"""Command-line interface.

Subcommands:
  gen-data   synthetic Gaussian-cluster dataset -> CSV
  run        learn the dataset, process forget requests, report and persist
  verify     gap report for a persisted state against its dataset
  resume     continue a persisted state with more forget requests

Exit codes: 0 success, 1 contract/input errors, 2 state-integrity errors.
Every random choice derives from the single --seed flag.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import DEFAULT_GAMMA, _check_seed
from .errors import InputError, RidgeForgetError, StateFormatError
from .features import (
    EncodedDataset,
    FeatureExtractor,
    RawDataset,
    SyntheticSpec,
    encode,
    generate_synthetic,
    load_csv,
    write_csv,
)
from .harness import (
    EngineState,
    build_forget_stream,
    build_stream,
    run_stream,
)
from .state import load_state, save_state
from .verify import GAP_CSV_HEADER, gap_report

# the report's own columns, then GAP_CSV_HEADER's gap columns in its order
RUN_CSV_HEADER = ",".join(
    ["kind", "request", "batch_size", "wall_time_seconds"]
    + GAP_CSV_HEADER.split(",")[1:]
)


def _derive_extractor_seed(seed: int) -> int:
    seq = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=(2,))
    return int(seq.generate_state(1, np.uint64)[0])


def _encode_dataset(path, extractor, class_count=None):
    """Load a CSV; raw inputs are pushed through `extractor`, which rejects
    a raw width other than its own before the body is parsed."""
    dataset = load_csv(
        path, class_count=class_count,
        check_raw_width=extractor._check_width if extractor is not None else None,
    )
    if isinstance(dataset, EncodedDataset):
        return dataset
    if extractor is None:
        raise InputError(
            f"{path} holds raw inputs but no extractor is available; "
            "use a feature-mode CSV or a state saved with an extractor"
        )
    return encode(extractor, dataset)


def _emit(path, lines):
    """Write `lines` to `path`, or print them when no path is given."""
    text = "\n".join(lines)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _run_report_lines(record):
    """RUN_CSV_HEADER, then one row per request; the gap columns stay empty
    for a request that was not verified."""
    lines = [RUN_CSV_HEADER]
    for req in record.per_request:
        cells = [
            req.kind,
            str(req.request_index),
            str(req.batch_size),
            repr(req.wall_time_seconds),
        ]
        if req.report is not None:
            cells += [repr(v) for v in req.report.deltas]
        else:
            cells += [""] * 5
        lines.append(",".join(cells))
    return lines


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        class_count=args.classes,
        samples_per_class=args.per_class,
        input_dim=args.input_dim,
        cluster_spread=args.spread,
        seed=args.seed,
    )
    raw = generate_synthetic(spec, draw=args.draw)
    write_csv(args.out, raw)
    print(f"wrote {len(raw)} rows ({args.classes} classes) to {args.out}")
    return 0


def _advance(args, state, encoded, stream, state_path):
    """The tail `run` and `resume` share: encode --test-data with the
    state's extractor, run the stream on `state`, write the report and save
    the state (when `state_path` is set).  Returns the RunRecord."""
    test_rows = None
    if args.test_data is not None:
        test_rows = _encode_dataset(
            args.test_data, state.extractor, class_count=encoded.class_count
        )
    if args.verify_every > 0 and test_rows is None:
        raise InputError("--verify-every > 0 requires --test-data")
    record, _ = run_stream(
        stream, state, verify_every=args.verify_every,
        dataset=encoded, test_rows=test_rows,
    )
    if args.out:
        _emit(args.out, _run_report_lines(record))
    if state_path:
        save_state(state, state_path)
    return record


def _cmd_run(args) -> int:
    seed = _derive_extractor_seed(args.seed)

    def check_recipe(width):  # before a too-wide raw body is parsed
        FeatureExtractor._check_recipe(seed, width, args.feature_dim, args.nonlinearity)

    encoded = load_csv(args.data, check_raw_width=check_recipe)
    extractor = None
    if isinstance(encoded, RawDataset):  # the extractor comes from the run seed
        extractor = FeatureExtractor(
            seed, encoded.input_dim, args.feature_dim, args.nonlinearity
        )
        encoded = encode(extractor, encoded)
    state = EngineState.fresh(
        encoded.feature_dim, encoded.class_count, args.gamma, extractor
    )
    stream = build_stream(
        encoded, args.learn_chunks, args.forget_total, args.requests, args.seed
    )
    record = _advance(args, state, encoded, stream, args.state)
    reports = record.reports()
    worst = max((r.max_delta() for r in reports), default=None)
    print(
        f"processed {len(stream.learn_requests)} learn + "
        f"{len(stream.forget_requests)} forget requests in "
        f"{record.cumulative_time_seconds:.4f}s of update time"
    )
    if worst is not None:
        print(f"largest gap delta across {len(reports)} reports: {worst:.3e}")
    return 0


def _cmd_verify(args) -> int:
    state = load_state(args.state)
    encoded = _encode_dataset(args.data, state.extractor)
    test_rows = _encode_dataset(
        args.test_data, state.extractor, class_count=encoded.class_count
    )
    report = gap_report(state.model, encoded, state.ledger, test_rows, 0)
    _emit(args.out, [GAP_CSV_HEADER, report.to_csv_row()])
    return 0


def _cmd_resume(args) -> int:
    state = load_state(args.state)
    encoded = _encode_dataset(args.data, state.extractor)
    stream = build_forget_stream(
        encoded, state.ledger.retained_ids, args.forget_total, args.requests,
        args.seed,
    )
    record = _advance(args, state, encoded, stream, args.state_out or args.state)
    print(
        f"resumed: {len(stream.forget_requests)} forget requests in "
        f"{record.cumulative_time_seconds:.4f}s of update time"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeforget",
        description="Exact continual unlearning for closed-form ridge classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--per-class", type=int, default=400)
    gen.add_argument("--input-dim", type=int, default=16)
    gen.add_argument("--spread", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--draw", type=int, default=0,
                     help="independent sample draw sharing the class means")
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_data)

    run = sub.add_parser("run", help="learn a dataset, then process forget requests")
    run.add_argument("--data", required=True)
    run.add_argument("--test-data", default=None)
    run.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    run.add_argument("--learn-chunks", type=int, default=8)
    run.add_argument("--forget-total", type=int, default=1000)
    run.add_argument("--requests", type=int, default=25)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--verify-every", type=int, default=0)
    run.add_argument("--feature-dim", type=int, default=64,
                     help="extractor width when --data holds raw inputs")
    run.add_argument("--nonlinearity", choices=("relu", "identity"), default="relu")
    run.add_argument("--out", default=None, help="per-request report CSV")
    run.add_argument("--state", default=None, help="write final state here")
    run.set_defaults(handler=_cmd_run)

    ver = sub.add_parser("verify", help="gap report for a persisted state")
    ver.add_argument("--state", required=True)
    ver.add_argument("--data", required=True)
    ver.add_argument("--test-data", required=True)
    ver.add_argument("--out", default=None)
    ver.set_defaults(handler=_cmd_verify)

    res = sub.add_parser("resume", help="continue a saved state with more forgetting")
    res.add_argument("--state", required=True)
    res.add_argument("--data", required=True)
    res.add_argument("--test-data", default=None)
    res.add_argument("--forget-total", type=int, required=True)
    res.add_argument("--requests", type=int, required=True)
    res.add_argument("--seed", type=int, default=0)
    res.add_argument("--verify-every", type=int, default=0)
    res.add_argument("--out", default=None)
    res.add_argument("--state-out", default=None)
    res.set_defaults(handler=_cmd_resume)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except StateFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RidgeForgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
