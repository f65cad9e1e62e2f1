"""The three benchmark workloads, their inputs, and the correctness checks.

Every workload is a single client in a closed loop: the next request is
sent only after the previous one returned, from one process and thread.

desk-verified  the README desk recipe driven through ``ridgeforget.cli.main``:
               one job is ``run --verify-every 1`` followed by ``verify``.
narrow-stream  d=64 features, N=10,000 retained rows; alternating requests
               forget 100 retained rows / learn 100 fresh rows, one predict
               on 1,000 query rows after each pair.
wide-stream    the same loop at d=1024.

Inputs derive only from the seed.  Correctness is checked without
``ridgeforget.verify``: the final model is refitted from the retained rows
with ``np.linalg.solve``/``inv`` and compared with W and T.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ridgeforget.cli as cli
from ridgeforget import core, verify
from ridgeforget import state as rf_state

import tracing

GAMMA = 1e-3
# Relative error allowed between the program's (W, T) and the refit.  The
# recursions reproduce a refit to ~1e-12 on these inputs; 1e-8 leaves room
# for drift over long streams while catching any wrong update.
REFIT_RTOL = 1e-8
# Largest gap delta allowed in the CLI's own gap reports.
DELTA_BOUND = 1e-8
# Longest request loop, so a run ends within its time limit even when the
# program got much slower and the minimum sample count is not reached.
LOOP_CAP_S = 100.0
# Share of the minimum sample count run first and not timed, so thread
# pools, allocator and caches settle; a count, so that every run's timed
# requests start from the same ledger size.
WARMUP_SHARE = 0.1


@dataclass(frozen=True)
class DeskSpec:
    classes: int = 10
    per_class: int = 400
    test_per_class: int = 100
    input_dim: int = 16
    spread: float = 0.1
    learn_chunks: int = 8
    forget_total: int = 1000
    requests: int = 25
    feature_dim: int = 64


@dataclass(frozen=True)
class StreamSpec:
    dim: int
    base_rows: int = 10_000
    batch: int = 100
    classes: int = 10
    queries: int = 1000


WORKLOADS = {
    "desk-verified": DeskSpec(),
    "narrow-stream": StreamSpec(dim=64),
    "wide-stream": StreamSpec(dim=1024),
}

# Percentile reported as *_tail, and the samples a run needs so that ten
# lie beyond it.  p99 would be the highest percentile narrow-stream can
# support, but it swings with rare BLAS-thread stalls: its quartile spread
# over ten 30 s runs reached 0.29.  It is printed beside the bounded p90.
TAIL = 90.0
MIN_SAMPLES = 100

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rel_err(value, reference) -> float:
    return float(np.linalg.norm(value - reference) / np.linalg.norm(reference))


# ---------------------------------------------------------------- environment

def openblas_threads():
    """{owner: (thread count, build string)} of every loaded scipy_openblas
    copy, read and never set.  numpy's 64-bit-index copy serves the
    matmuls; scipy's own copy serves LAPACK (lu_factor, gecon, cho_factor)."""
    counts = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({
                line.split()[-1] for line in handle
                if "libscipy_openblas" in line and line.rstrip().endswith(".so")
            })
    except OSError:
        return counts
    for path in paths:
        lib = ctypes.CDLL(path)
        owner = "numpy" if "numpy.libs" in path else "scipy" if "scipy.libs" in path else path
        for suffix in ("64_", ""):
            if hasattr(lib, "scipy_openblas_get_num_threads" + suffix):
                threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                threads.argtypes, threads.restype = [], ctypes.c_int
                config = getattr(lib, "scipy_openblas_get_config" + suffix)
                config.argtypes, config.restype = [], ctypes.c_char_p
                counts[owner] = (threads(), config().decode(errors="replace"))
                break
    return counts


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "openblas_threads": openblas_threads(),
    }


# ------------------------------------------------------- computed core costs

def forget_cost(d: int, m: int, c: int):
    """(flops, bytes) of one forget request, unlearn_tracking + unlearn_model,
    counted from (d, m, classes) for the algorithm the program used when the
    benchmark was written: T F^T, F T F^T, an m x m LU and solve, the outer
    update, symmetrization plus TrackingMatrix checks, then the weight
    update.  Bytes are the compulsory traffic: read T, F, Y, W once, write
    T' and W' once."""
    flops = 4 * d * d * m + 4 * d * m * m + 2 * m**3 / 3 + 10 * d * d + 6 * d * m * c + 4 * d * d * c
    return flops, 8 * (2 * d * d + d * m + m * c + 2 * d * c)


def learn_cost(d: int, m: int, c: int):
    """(flops, bytes) of one learn_update, counted like forget_cost.  With
    m >= d the program uses the dual d x d form (Cholesky of T, L^T F^T F L,
    a d x d Cholesky and solve); otherwise the m x m form."""
    if m >= d:
        flops = 26 * d**3 / 3 + 4 * d * d * m + 4 * d * m * c + 10 * d * d
    else:
        flops = 6 * d * d * m + 4 * d * m * m + m**3 / 3 + 4 * d * m * c + 10 * d * d
    return flops, 8 * (2 * d * d + d * m + m * c + 2 * d * c)


# ------------------------------------------------------------------- streams

class Stream:
    """A retained set of `base_rows` rows held in a fixed slot pool.  Forget
    frees 100 random occupied slots; learn fills free slots with fresh rows
    under new ids, so memory stays flat however long the loop runs."""

    def __init__(self, spec: StreamSpec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        d, n, c = spec.dim, spec.base_rows, spec.classes
        self.means = self.rng.standard_normal((c, d))
        capacity = n + spec.batch
        self.features = np.empty((capacity, d))
        self.one_hots = np.zeros((capacity, c))
        self.ids = np.full(capacity, -1, dtype=np.int64)
        self.occupied = np.zeros(capacity, dtype=bool)
        for start in range(0, n, 1000):
            self._fresh_rows(np.arange(start, min(start + 1000, n)))
        self.ids[:n] = np.arange(n)
        self.occupied[:n] = True
        self.next_id = n
        self.queries = self.rng.standard_normal((spec.queries, d)) + self.means[
            self.rng.integers(0, c, spec.queries)
        ]
        base = core.FeatureBatch(self.features[:n], self.one_hots[:n], self.ids[:n])
        self.model, self.tracking = core.joint_fit(base, GAMMA)
        del base
        self.ledger = verify.SampleLedger()
        self.ledger.record_learn(self.ids[:n])

    def _fresh_rows(self, slots):
        labels = self.rng.integers(0, self.spec.classes, slots.size)
        self.features[slots] = self.rng.standard_normal((slots.size, self.spec.dim))
        self.features[slots] += self.means[labels]
        self.one_hots[slots] = 0.0
        self.one_hots[slots, labels] = 1.0

    def forget(self) -> float:
        slots = self.rng.choice(np.flatnonzero(self.occupied), self.spec.batch, replace=False)
        f, y, ids = self.features[slots], self.one_hots[slots], self.ids[slots]
        start = time.perf_counter()
        batch = core.FeatureBatch(f, y, ids)
        tracking = core.unlearn_tracking(self.tracking, batch)
        model = core.unlearn_model(self.model, tracking, batch)
        self.ledger.record_forget(ids)
        elapsed = time.perf_counter() - start
        self.tracking, self.model = tracking, model
        self.occupied[slots] = False
        return elapsed

    def learn(self) -> float:
        slots = np.flatnonzero(~self.occupied)[: self.spec.batch]
        self._fresh_rows(slots)
        self.ids[slots] = np.arange(self.next_id, self.next_id + slots.size)
        self.next_id += slots.size
        f, y, ids = self.features[slots], self.one_hots[slots], self.ids[slots]
        start = time.perf_counter()
        batch = core.FeatureBatch(f, y, ids)
        tracking, model = core.learn_update(self.tracking, self.model, batch)
        self.ledger.record_learn(ids)
        elapsed = time.perf_counter() - start
        self.tracking, self.model = tracking, model
        self.occupied[slots] = True
        return elapsed

    def predict(self) -> float:
        start = time.perf_counter()
        core.predict(self.model, self.queries)
        return time.perf_counter() - start

    def check(self):
        """Refit the retained rows with plain numpy and compare."""
        f, y = self.features[self.occupied], self.one_hots[self.occupied]
        gram = f.T @ f + GAMMA * np.eye(self.spec.dim)
        err_w = rel_err(self.model.weights, np.linalg.solve(gram, f.T @ y))
        err_t = rel_err(self.tracking.matrix, np.linalg.inv(gram))
        retained = frozenset(self.ids[self.occupied].tolist())
        return [
            ("weights match refit", err_w <= REFIT_RTOL, f"rel err {err_w:.3e} <= {REFIT_RTOL:.0e}"),
            ("tracking matches refit", err_t <= REFIT_RTOL, f"rel err {err_t:.3e} <= {REFIT_RTOL:.0e}"),
            ("ledger retains the live rows", self.ledger.retained_ids == retained,
             f"{len(self.ledger.retained_ids)} retained ids"),
        ]


def run_stream(spec: StreamSpec, seed: int, seconds: float, tracer=None, ready=None):
    """Set up, signal `ready`, run the closed loop, check.  With a tracer,
    odd request pairs run traced and even pairs untraced."""
    if tracer is not None:
        tracer.install()
        tracer.op = "setup"
    stream = Stream(spec, seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    if ready is not None:
        ready()
    forget_s, learn_s, predict_s = [], [], []
    traced_forget, untraced_forget = [], []
    attempted = failed = 0
    need = MIN_SAMPLES * (2 if tracer is not None else 1)
    warmup = math.ceil(need * WARMUP_SHARE)
    rss = None
    loop_start = time.perf_counter()
    pair = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        enough = pair >= warmup + need
        if rss is None and enough:
            rss = peak_rss_mb()  # after a fixed request count, not a fixed time
        if (elapsed >= seconds and enough) or elapsed >= LOOP_CAP_S:
            break
        warm = pair < warmup
        traced = tracer is not None and not warm and pair % 2 == 1
        if traced:
            tracer.install()
        for kind, call, sink in (("forget", stream.forget, forget_s),
                                 ("learn", stream.learn, learn_s),
                                 ("predict", stream.predict, predict_s)):
            attempted += 1
            if tracer is not None:
                tracer.op = f"{kind}{pair}"
            try:
                latency = call()
            except Exception:  # a failed request is counted, the loop goes on
                failed += 1
                if failed <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            if warm:
                continue
            sink.append(latency)
            if kind == "forget" and tracer is not None:
                (traced_forget if traced else untraced_forget).append(latency)
                if traced:
                    with tracer.span("core.tracking_validate"):
                        core.TrackingMatrix(stream.tracking.matrix, stream.tracking.gamma)
        if traced:
            tracer.uninstall()
            tracer.op = None
        pair += 1
    rss = peak_rss_mb() if rss is None else rss
    checks = stream.check()
    d, m, c = spec.dim, spec.batch, spec.classes
    return {
        "attempted": attempted + len(checks),
        "failed": failed + sum(not ok for _, ok, _ in checks),
        "checks": checks,
        "forget_ms": [s * 1e3 for s in forget_s],
        "learn_ms": [s * 1e3 for s in learn_s],
        "rows_per_s": m * (len(forget_s) + len(learn_s)) / max(sum(forget_s) + sum(learn_s), 1e-12),
        "peak_rss_mb": rss,
        "extras": {"predict_ms_p50": (statistics.median(predict_s) * 1e3 if predict_s else 0.0,
                                      "ms", f"p50 of n={len(predict_s)}")},
        "costs": {"forget": forget_cost(d, m, c), "learn": learn_cost(d, m, c)},
        "file_bytes": 0,
        "overhead": (traced_forget, untraced_forget),
        "op": "request",
    }


# ---------------------------------------------------------------------- desk

def _cluster_draw(rng, means, per_class, spread):
    classes, dim = means.shape
    labels = np.repeat(np.arange(classes), per_class)
    inputs = means[labels] + spread * rng.standard_normal((labels.size, dim))
    return inputs, labels


def _write_raw_csv(path, ids, inputs, labels):
    lines = ["id,label," + ",".join(f"x{k}" for k in range(inputs.shape[1]))]
    for sample_id, label, row in zip(ids.tolist(), labels.tolist(), inputs.tolist()):
        lines.append(f"{sample_id},{label}," + ",".join(repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _deltas_ok(rows, where):
    worst = 0.0
    for row in rows:
        for key, value in row.items():
            if key.startswith("delta_"):
                if value == "":
                    return False, f"{where}: {key} missing"
                worst = max(worst, float(value))
    return worst <= DELTA_BOUND, f"{where}: largest delta {worst:.3e} <= {DELTA_BOUND:.0e}"


class RequestClock:
    """Start time of every request inside a ``run`` command, as a client of
    ``run --verify-every 1`` waits for it: a request lasts from the start of
    its update to the start of the next one (or the end of run_stream), so
    a forget request includes its gap report.  The stamps are taken where
    run_stream looks up the update functions."""

    HOOKS = (("ridgeforget.harness", "learn_update", "learn"),
             ("ridgeforget.harness", "unlearn_tracking", "forget"),
             ("ridgeforget.cli", "run_stream", "end"))

    def __init__(self):
        self.marks = []
        self._saved = []

    def _stamp(self, kind, fn):
        marks = self.marks

        def stamped(*args, **kwargs):
            if kind != "end":
                marks.append((kind, time.perf_counter()))
            result = fn(*args, **kwargs)
            if kind == "end":
                marks.append((kind, time.perf_counter()))
            return result

        return stamped

    def __enter__(self):
        self.marks.clear()
        for target, attr, kind in self.HOOKS:
            owner = tracing.resolve(target)
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, self._stamp(kind, getattr(owner, attr)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def latencies(self, kind):
        return [later - t for (k, t), (_, later) in zip(self.marks, self.marks[1:]) if k == kind]


class Desk:
    """Input files written once per process; each job runs the CLI twice."""

    def __init__(self, spec: DeskSpec, seed: int, workdir: Path):
        self.spec = spec
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        means = rng.standard_normal((spec.classes, spec.input_dim))
        self.inputs, self.labels = _cluster_draw(rng, means, spec.per_class, spec.spread)
        self.ids = np.arange(self.labels.size, dtype=np.int64)
        test_inputs, test_labels = _cluster_draw(rng, means, spec.test_per_class, spec.spread)
        test_ids = np.arange(test_labels.size, dtype=np.int64) + self.ids.size
        self.train = workdir / "train.csv"
        self.test = workdir / "test.csv"
        _write_raw_csv(self.train, self.ids, self.inputs, self.labels)
        _write_raw_csv(self.test, test_ids, test_inputs, test_labels)
        self.report = workdir / "report.csv"
        self.state = workdir / "run.state"
        self.verify_out = workdir / "verify.csv"
        self.clock = RequestClock()

    def _cli(self, argv, tracer):
        """cli.main with its console output captured; returns (exit code,
        seconds, captured stderr)."""
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span("cli.main") if tracer is not None and tracer.installed else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # an uncaught error is a failed command, not a crash
            code = -1
            err.write(traceback.format_exc())
        return code, time.perf_counter() - start, err.getvalue()

    def job(self, index: int, tracer=None):
        spec = self.spec
        cli_seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0] % 2**31)
        run_argv = [
            "run", "--data", str(self.train), "--test-data", str(self.test),
            "--gamma", repr(GAMMA), "--learn-chunks", str(spec.learn_chunks),
            "--forget-total", str(spec.forget_total), "--requests", str(spec.requests),
            "--seed", str(cli_seed), "--verify-every", "1",
            "--feature-dim", str(spec.feature_dim),
            "--out", str(self.report), "--state", str(self.state),
        ]
        with self.clock:
            run_code, run_s, run_err = self._cli(run_argv, tracer)
        verify_code, verify_s, verify_err = self._cli([
            "verify", "--state", str(self.state), "--data", str(self.train),
            "--test-data", str(self.test), "--out", str(self.verify_out),
        ], tracer)
        for err in (run_err, verify_err):
            if err:
                sys.stderr.write(err)
        return run_code, run_s, verify_code, verify_s

    def check(self, run_code, verify_code):
        """Exit codes, the CLI's own gap deltas, and an independent refit of
        the saved state; returns (checks, learn seconds, forget seconds) with
        the request latencies of the last job."""
        self.saved_tracking = None
        checks = [("run exits 0", run_code == 0, f"exit {run_code}"),
                  ("verify exits 0", verify_code == 0, f"exit {verify_code}")]
        if run_code != 0 or verify_code != 0:
            return checks, [], []
        with open(self.report, newline="", encoding="utf-8") as handle:
            report = list(csv.DictReader(handle))
        forget_rows = [r for r in report if r["kind"] == "forget"]
        learn, forget = self.clock.latencies("learn"), self.clock.latencies("forget")
        counts = (len(report) - len(forget_rows), len(forget_rows), len(learn), len(forget))
        checks.append(("report and clock cover every request",
                       counts == (self.spec.learn_chunks, self.spec.requests) * 2,
                       "{} learn + {} forget report rows, {} + {} timed".format(*counts)))
        checks.append(("run report deltas", *_deltas_ok(forget_rows, "run report")))
        with open(self.verify_out, newline="", encoding="utf-8") as handle:
            checks.append(("verify deltas", *_deltas_ok(list(csv.DictReader(handle)), "verify")))
        saved = rf_state.load_state(self.state)
        retained = np.isin(self.ids, np.fromiter(saved.ledger.retained_ids, dtype=np.int64))
        z = self.inputs[retained] @ saved.extractor.projection
        f = np.maximum(z, 0.0) if saved.extractor.nonlinearity == "relu" else z
        y = np.eye(self.spec.classes)[self.labels[retained]]
        gram = f.T @ f + GAMMA * np.eye(f.shape[1])
        err_w = rel_err(saved.model.weights, np.linalg.solve(gram, f.T @ y))
        err_t = rel_err(saved.tracking.matrix, np.linalg.inv(gram))
        expected = self.ids.size - self.spec.forget_total
        checks += [
            ("retained count", int(retained.sum()) == expected, f"{int(retained.sum())} of {expected}"),
            ("weights match refit", err_w <= REFIT_RTOL, f"rel err {err_w:.3e} <= {REFIT_RTOL:.0e}"),
            ("tracking matches refit", err_t <= REFIT_RTOL, f"rel err {err_t:.3e} <= {REFIT_RTOL:.0e}"),
        ]
        self.saved_tracking = saved.tracking
        return checks, learn, forget


def run_desk(spec: DeskSpec, seed: int, seconds: float, tracer=None, ready=None, workdir=None):
    """Write the inputs, signal `ready`, then run jobs until `seconds` have
    passed and enough requests were seen for the tail percentile.  With a
    tracer, odd jobs run traced."""
    workdir = Path(workdir)
    try:
        desk = Desk(spec, seed, workdir)
        if ready is not None:
            ready()
        run_times, verify_times, learn_s, forget_s = [], [], [], []
        traced_jobs, untraced_jobs = [], []
        attempted = failed = 0
        first_failing = last_checks = None
        need = MIN_SAMPLES
        per_job = min(spec.learn_chunks, spec.requests)
        # job 0 warms up (first calls into the CLI) and is not timed
        need_jobs = 1 + math.ceil(need / per_job) * (2 if tracer is not None else 1)
        rss = None
        loop_start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - loop_start
            if rss is None and index >= need_jobs:
                rss = peak_rss_mb()
            if (elapsed >= seconds and index >= need_jobs) or elapsed >= LOOP_CAP_S:
                break
            warm = index == 0
            traced = tracer is not None and not warm and index % 2 == 1
            if traced:
                tracer.install()
                tracer.op = f"job{index}"
            run_code, run_s, verify_code, verify_s = desk.job(index, tracer)
            if traced:
                tracer.uninstall()
            checks, learn, forget = desk.check(run_code, verify_code)
            if traced and desk.saved_tracking is not None:
                with tracer.span("core.tracking_validate"):
                    core.TrackingMatrix(desk.saved_tracking.matrix, desk.saved_tracking.gamma)
            if tracer is not None:
                tracer.op = None
            attempted += 2 + len(checks)
            failed += (run_code != 0) + (verify_code != 0) + sum(not ok for _, ok, _ in checks)
            last_checks = checks
            if first_failing is None and not all(ok for _, ok, _ in checks):
                first_failing = checks
            index += 1
            if warm:
                continue
            run_times.append(run_s)
            verify_times.append(verify_s)
            learn_s += learn
            forget_s += forget
            if tracer is not None:
                (traced_jobs if traced else untraced_jobs).append(run_s + verify_s)
        rss = peak_rss_mb() if rss is None else rss
        file_bytes = desk.state.stat().st_size if desk.state.exists() else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rows = spec.classes * spec.per_class + spec.forget_total
    learn_m = [len(p) for p in np.array_split(np.arange(spec.classes * spec.per_class), spec.learn_chunks)]
    forget_m = [len(p) for p in np.array_split(np.arange(spec.forget_total), spec.requests)]
    d, c = spec.feature_dim, spec.classes
    costs = {
        "forget": tuple(sum(v) for v in zip(*(forget_cost(d, m, c) for m in forget_m))),
        "learn": tuple(sum(v) for v in zip(*(learn_cost(d, m, c) for m in learn_m))),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "checks": first_failing or last_checks or [],
        "forget_ms": [s * 1e3 for s in forget_s],
        "learn_ms": [s * 1e3 for s in learn_s],
        "rows_per_s": rows * len(run_times) / max(sum(run_times) + sum(verify_times), 1e-12),
        "peak_rss_mb": rss,
        "extras": {
            "run_s": (statistics.median(run_times), "s", f"median of n={len(run_times)} jobs"),
            "verify_s": (statistics.median(verify_times), "s", f"median of n={len(verify_times)} jobs"),
        },
        "costs": costs,
        "file_bytes": file_bytes,
        "overhead": (traced_jobs, untraced_jobs),
        "op": "job",
    }


# ------------------------------------------------------------------- metrics

def end_to_end_metrics(result):
    """{name: (value, unit, note)} for every end-to-end metric but setup_s
    (the parent process times set-up), and the same for the figures the
    printed report adds: medians, the tail under its percentile's name, and
    the workload's own extras.

    Central latency is the mean: host contention moves these requests
    between a fast and a slow mode for seconds at a time, and a run's
    median jumps between the modes while its mean weighs them by time."""
    metrics, extras = {}, {}
    for kind in ("forget", "learn"):
        values = result[f"{kind}_ms"]
        n = len(values)
        metrics[f"{kind}_ms_mean"] = (statistics.fmean(values) if n else 0.0, "ms", f"mean of n={n}")
        metrics[f"{kind}_ms_tail"] = (float(np.percentile(values, TAIL)) if n else 0.0, "ms",
                                      f"p{TAIL:g} of n={n}, {n - math.ceil(n * TAIL / 100)} beyond")
        extras[f"{kind}_ms_p50"] = (float(np.percentile(values, 50)) if n else 0.0, "ms", f"p50 of n={n}")
        if n >= 1000:
            extras[f"{kind}_ms_p99"] = (float(np.percentile(values, 99)), "ms",
                                        f"p99 of n={n}, {n - math.ceil(n * 0.99)} beyond")
    rows = len(result["forget_ms"]) + len(result["learn_ms"])
    metrics["rows_per_s"] = (result["rows_per_s"], "1/s", f"over n={rows} requests")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "after the minimum request count")
    extras.update(result["extras"])
    return metrics, extras


def per_layer_metrics(result, tracer, import_s):
    """{name: (value, unit, note)} for every per-layer metric.  A `*_ms`
    value is the median, over the traced ops that call the function, of
    the time spent in it per op (an op is one desk job or one stream
    request); counts are per op the same way."""
    table = tracer.per_op()
    unit_of_work = result["op"]

    def timed(name, column=0, unit="ms"):
        value, n = tracing.median_over_ops(table, name, column)
        return value, unit, f"median over n={n} {unit_of_work}s"

    def computed(value, unit):
        return value, unit, f"computed per {unit_of_work}"

    forget_flop, forget_bytes = result["costs"]["forget"]
    learn_flop, learn_bytes = result["costs"]["learn"]
    forget_core = timed("core.unlearn_tracking")[0] + timed("core.unlearn_model")[0]
    learn_core = timed("core.learn_update")[0]
    traced, untraced = (statistics.median(v) * 1e3 if v else 0.0 for v in result["overhead"])
    overhead = 100.0 * (traced / untraced - 1.0) if traced and untraced else 0.0
    counts = tuple(len(v) for v in result["overhead"])
    failed = tracing.failures_by_layer(table)
    metrics = {
        "core.unlearn_tracking_ms": timed("core.unlearn_tracking"),
        "core.unlearn_model_ms": timed("core.unlearn_model"),
        "core.learn_update_ms": timed("core.learn_update"),
        "core.tracking_validate_ms": timed("core.tracking_validate"),
        "core.batch_ms": timed("core.batch"),
        "core.joint_fit_ms": timed("core.joint_fit"),
        "core.predict_ms": timed("core.predict"),
        "core.forget_gflop": computed(forget_flop / 1e9, "GFLOP"),
        "core.learn_gflop": computed(learn_flop / 1e9, "GFLOP"),
        "core.forget_mb": computed(forget_bytes / 1e6, "MB"),
        "core.learn_mb": computed(learn_bytes / 1e6, "MB"),
        "core.forget_gflops_per_s": (forget_flop / 1e6 / forget_core if forget_core else 0.0,
                                     "GFLOP/s", "computed GFLOP / median core time"),
        "core.learn_gflops_per_s": (learn_flop / 1e6 / learn_core if learn_core else 0.0,
                                    "GFLOP/s", "computed GFLOP / median core time"),
        "verify.ledger_ms": timed("verify.ledger"),
        "verify.gap_report_ms": timed("verify.gap_report"),
        "verify.oracle_retrain_ms": timed("verify.oracle_retrain"),
        "verify.mia_gap_ms": timed("verify.mia_gap"),
        "verify.reports": timed("verify.gap_report", 2, "count"),
        "features.load_csv_ms": timed("features.load_csv"),
        "features.encode_ms": timed("features.encode"),
        "features.subset_by_ids_ms": timed("features.subset_by_ids"),
        "features.subset_by_ids_calls": timed("features.subset_by_ids", 2, "count"),
        "harness.build_stream_ms": timed("harness.build_stream"),
        "harness.run_stream_ms": timed("harness.run_stream"),
        "harness.self_ms": timed("harness.run_stream", 1),
        "state.save_ms": timed("state.save"),
        "state.load_ms": timed("state.load"),
        "state.file_bytes": (result["file_bytes"], "B", "last saved state"),
        "cli.import_s": (import_s, "s", "import of ridgeforget.cli in the workload process"),
        "cli.self_ms": timed("cli.main", 1),
        "trace.overhead_pct": (overhead, "%", f"median {unit_of_work} {traced:.6g} ms traced (n={counts[0]}) "
                               f"vs {untraced:.6g} ms untraced (n={counts[1]})"),
        "trace.spans": (len(tracer.spans), "count", "spans recorded"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.failed"] = (failed[layer], "count", "traced calls that raised")
    return metrics
