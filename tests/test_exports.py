"""The package's public names: `__all__` lists exactly what `__init__`
imports, a star import of it succeeds, and the program itself uses each."""

import ast
from pathlib import Path

import ridgeforget

INIT = Path(ridgeforget.__file__)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_public_names():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_lists_exactly_the_imported_names():
    assert len(ridgeforget.__all__) == len(set(ridgeforget.__all__))
    assert set(ridgeforget.__all__) == _imported_public_names()


def test_star_import_succeeds():
    namespace = {}
    exec("from ridgeforget import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ridgeforget.__all__)


def _uses(path):
    """Names a module uses: loaded names, attributes and exact string
    constants (perfbench patches functions by name), each counted outside
    the top-level definition that binds it."""
    used = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        bound = {getattr(top, "name", None)} | {
            target.id
            for target in getattr(top, "targets", ())
            if isinstance(target, ast.Name)
        }
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        used |= found - bound
    return used


def test_every_export_is_used_by_the_program():
    # the package's modules other than __init__, and perfbench's non-test
    # modules; a name only tests call belongs in tests/_helpers.py
    modules = [p for p in INIT.parent.glob("*.py") if p != INIT]
    modules += [p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_uses, modules))
    assert [name for name in ridgeforget.__all__ if name not in used] == []
