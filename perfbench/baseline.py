"""Repeat benchmark runs and summarize them.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 20 --out perfbench/.work/baseline.json

For every workload: one untraced run per seed, reporting each end-to-end
metric's median and quartile spread (q3 - q1, as a share of the median,
from ``statistics.quantiles(values, n=4)``) beside the bound in
BENCHMARK.json.  ``--traced`` adds one traced run per workload (per-layer
table and tracing overhead); ``--reference`` adds untraced runs of the
stream workloads with OPENBLAS_NUM_THREADS=1 set in that process only,
as reference numbers for the BLAS-thread headroom.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STREAMS = ("narrow-stream", "wide-stream")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds, trace, env=None):
    """One benchmark run; returns the parsed JSON line (or None on failure)
    and the human-readable lines before it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def summarize(results, bounds):
    rows = []
    names = results[0]["metrics"].keys()
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        rows.append({
            "metric": name, "unit": results[0]["metrics"][name]["unit"], "median": median,
            "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name), "values": values,
        })
    return rows


def print_table(title, rows):
    print(f"\n{title}")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:g}"
        flag = ""
        if row["bound"] is not None and row["metric"] != "setup_s" and row["spread"] > row["bound"] / 3:
            flag = "  > bound/3"
        print(f"  {row['metric']:<30} {row['median']:>12.6g} {row['q1']:>12.6g} {row['q3']:>12.6g} "
              f"{row['spread']:>8.3f} {bound:>6}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--out", default=None, help="write every result here as JSON")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    record = {"seconds": seconds, "seeds": seeds, "untraced": {}, "traced": {}, "reference": {}}
    failures = 0
    for workload in workloads:
        results = []
        for seed in seeds:
            result, lines = run_once(workload, seed, seconds, 0)
            if result is None or not result["correct"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED", file=sys.stderr)
                continue
            results.append(result)
            if seed == seeds[0]:
                record.setdefault("report_lines", {})[workload] = lines
        if results:
            record["untraced"][workload] = summarize(results, bounds)
            print_table(f"{workload}: {len(results)} untraced runs of {seconds} s", record["untraced"][workload])
        if args.traced:
            result, lines = run_once(workload, seeds[0], seconds, 1)
            if result is None:
                failures += 1
            else:
                record["traced"][workload] = {"result": result, "lines": lines}
                print(f"\n{workload}: traced run, seed {seeds[0]}")
                print("\n".join(lines))
        if args.reference and workload in STREAMS:
            env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
            results = [r for r in (run_once(workload, s, seconds, 0, env)[0] for s in seeds[:3]) if r]
            if results:
                record["reference"][workload] = summarize(results, bounds)
                print_table(f"{workload}: reference, OPENBLAS_NUM_THREADS=1, {len(results)} runs",
                            record["reference"][workload])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
