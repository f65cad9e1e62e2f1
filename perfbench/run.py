"""Benchmark of ridgeforget: one workload per invocation.

    python3 perfbench/run.py --workload desk-verified --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  Each workload process is
a fresh interpreter.  With ``--trace 0`` the last line of standard output
is a JSON object holding every end-to-end metric; with ``--trace 1`` it
holds every per-layer metric, from a run whose alternate requests go
through the tracer.  The lines before it repeat each metric with its unit
and sample count, the environment, and each correctness check.  The exit
code is 0 only when every request and check succeeded.

set-up time: ``setup_s`` is the median over SETUP_RUNS fresh interpreters
of the time from process start to the first request being ready (import,
input generation, base fit and ledger fill).  All but the last of those
interpreters stop after set-up; the last one runs the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-verified", "narrow-stream", "wide-stream")
SETUP_RUNS = 5
# A run must end within 180 s; the workload process is killed after this.
CHILD_TIMEOUT_S = 170.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------ workload process

def child_main(args) -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ridgeforget.cli  # noqa: F401  (timed: the whole package and its imports)

    import_s = time.perf_counter() - start
    if Path(ridgeforget.cli.__file__).resolve().parent != SRC / "ridgeforget":
        print(f"error: imported ridgeforget from {ridgeforget.cli.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    def ready():
        print("READY", flush=True)

    spec = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if args.child == "setup":
        # set-up only: build the inputs and the base model, then stop
        if isinstance(spec, workloads.StreamSpec):
            workloads.Stream(spec, args.seed)
        else:
            workdir = HERE / ".work" / f"setup-{os.getpid()}"
            try:
                workloads.Desk(spec, args.seed, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        ready()
        return 0
    if isinstance(spec, workloads.StreamSpec):
        result = workloads.run_stream(spec, args.seed, args.seconds, tracer, ready)
    else:
        workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        result = workloads.run_desk(spec, args.seed, args.seconds, tracer, ready, workdir)
    if tracer is not None:
        metrics, extras = workloads.per_layer_metrics(result, tracer, import_s), result["extras"]
        trace_dir = HERE / ".work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, extras = workloads.end_to_end_metrics(result)
    payload = {
        "metrics": metrics,
        "extras": extras,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "env": workloads.environment(),
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


def spawn(args, mode):
    """Start a workload process; returns (seconds until READY, result)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--child", mode,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    except BaseException:
        proc.kill()  # this process is being stopped: never leave the child running
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        killer.cancel()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{mode} process for {args.workload} exited with code {code}")
    return setup_s, result


def report(args, setup_times, result):
    """Human-readable lines, then the JSON result line."""
    env = result["env"]
    threads = "; ".join(f"{owner}={count} ({build})" for owner, (count, build)
                        in env["openblas_threads"].items()) or "unknown"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"env nproc={env['nproc']} affinity={env['affinity_cpus']} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']} "
        f"openblas threads: {threads}"
    )
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s",
                              f"median of n={len(setup_times)} interpreters")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<8} {note}")
    for name, (value, unit, note) in result["extras"].items():
        print(f"  (also) {name:<23} {value:>14.6g} {unit:<8} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for name, ok, detail in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() stops its child first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.child:
        return child_main(args)
    if not (SRC / "ridgeforget" / "__init__.py").is_file():
        print(f"error: no ridgeforget source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        setup_times = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setup_times.append(spawn(args, "setup")[0])
        setup_s, result = spawn(args, "run")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_times.append(setup_s)
    return report(args, setup_times, result)


if __name__ == "__main__":
    sys.exit(main())
