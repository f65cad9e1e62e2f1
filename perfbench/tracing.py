"""Spans around the public functions of each ridgeforget layer.

The tracer replaces a function where its caller looks it up (a module
global such as ``ridgeforget.harness.unlearn_tracking``, or a method on a
class) with a wrapper that records one span per call: name, start, end,
parent span, the work unit ("op") it belongs to, and whether it raised.
Spans stay in memory; ``write`` dumps them when the run ends.  Nothing in
the program is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time

# (module or "module:Class", attribute, span name).  Span names are
# "<layer>.<function>"; the layer is the package module the function
# belongs to, whichever module calls it.
PATCHES = (
    ("ridgeforget.core", "joint_fit", "core.joint_fit"),
    ("ridgeforget.core", "learn_update", "core.learn_update"),
    ("ridgeforget.core", "unlearn_tracking", "core.unlearn_tracking"),
    ("ridgeforget.core", "unlearn_model", "core.unlearn_model"),
    ("ridgeforget.core", "predict", "core.predict"),
    ("ridgeforget.core:FeatureBatch", "__post_init__", "core.batch"),
    ("ridgeforget.harness", "learn_update", "core.learn_update"),
    ("ridgeforget.harness", "unlearn_tracking", "core.unlearn_tracking"),
    ("ridgeforget.harness", "unlearn_model", "core.unlearn_model"),
    ("ridgeforget.harness", "gap_report", "verify.gap_report"),
    ("ridgeforget.verify", "joint_fit", "core.joint_fit"),
    ("ridgeforget.verify", "predict", "core.predict"),
    ("ridgeforget.verify", "oracle_retrain", "verify.oracle_retrain"),
    ("ridgeforget.verify", "mia_gap", "verify.mia_gap"),
    ("ridgeforget.verify:SampleLedger", "record_learn", "verify.ledger"),
    ("ridgeforget.verify:SampleLedger", "record_forget", "verify.ledger"),
    ("ridgeforget.features:EncodedDataset", "subset_by_ids", "features.subset_by_ids"),
    ("ridgeforget.cli", "load_csv", "features.load_csv"),
    ("ridgeforget.cli", "encode", "features.encode"),
    ("ridgeforget.cli", "build_stream", "harness.build_stream"),
    ("ridgeforget.cli", "run_stream", "harness.run_stream"),
    ("ridgeforget.cli", "gap_report", "verify.gap_report"),
    ("ridgeforget.cli", "save_state", "state.save"),
    ("ridgeforget.cli", "load_state", "state.load"),
)

LAYERS = ("core", "verify", "features", "harness", "state", "cli")


def resolve(target: str):
    """The module, or class within a module, named by a PATCHES target."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans while installed.  ``op`` labels the spans of the
    current work unit (a request, a desk job, or "setup")."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op, ok)
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        # span() inlined: a generator context manager costs ~3 us per call,
        # which is measurable against a ~1 ms narrow-stream request
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, ok)

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """One span around the block; spans opened inside it are children."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        ok = False
        start = time.perf_counter_ns()
        try:
            yield
            ok = True
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op, ok)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self):
        if self._saved:
            return
        for target, attr, name in PATCHES:
            owner = resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, ok) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "ok": ok,
                }) + "\n")

    def per_op(self):
        """{op: {name: [inclusive ns, self ns, calls, failures]}} over every
        finished span that belongs to an op.  Self time is a span's duration
        minus the time its direct children cover (calls are sequential, so
        children never overlap)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op, ok in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        table = {}
        for index, (name, start, end, parent, op, ok) in enumerate(self.spans):
            if op is None:
                continue
            entry = table.setdefault(op, {}).setdefault(name, [0, 0, 0, 0])
            entry[0] += end - start
            entry[1] += end - start - child_ns[index]
            entry[2] += 1
            entry[3] += 0 if ok else 1
        return table


def median_over_ops(table, name, column=0):
    """(median, number of ops) over the ops that call `name`, of its per-op
    total: column 0 inclusive ns, 1 self ns (both returned in ms), 2 calls."""
    values = [entries[name][column] for entries in table.values() if name in entries]
    if not values:
        return 0.0, 0
    value = statistics.median(values)
    return (value / 1e6 if column < 2 else float(value)), len(values)


def failures_by_layer(table):
    failed = dict.fromkeys(LAYERS, 0)
    for entries in table.values():
        for name, (_, _, _, failures) in entries.items():
            failed[name.split(".", 1)[0]] += failures
    return failed
