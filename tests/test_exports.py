"""The package's public names: `__all__` lists exactly what `__init__`
imports, and a star import of it succeeds."""

import ast
from pathlib import Path

import ridgeforget

INIT = Path(ridgeforget.__file__)


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
