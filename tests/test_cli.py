import argparse
import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ridgeforget import StateFormatError, load_csv, load_state
from ridgeforget import cli
from ridgeforget.cli import build_parser, main
from ridgeforget.core import MAX_FEATURE_DIM
from ridgeforget.features import MAX_PROJECTION_VALUES


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def data_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert run_cli(
        "gen-data", "--classes", 4, "--per-class", 50, "--input-dim", 8,
        "--spread", 0.1, "--seed", 3, "--out", train,
    ) == 0
    assert run_cli(
        "gen-data", "--classes", 4, "--per-class", 20, "--input-dim", 8,
        "--spread", 0.1, "--seed", 3, "--draw", 1, "--out", test,
    ) == 0
    return train, test


def read_report(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_run_verify_resume_pipeline(tmp_path, data_files, capsys):
    train, test = data_files
    report = tmp_path / "report.csv"
    state = tmp_path / "run.state"
    code = run_cli(
        "run", "--data", train, "--test-data", test, "--gamma", 1e-3,
        "--learn-chunks", 4, "--forget-total", 60, "--requests", 6,
        "--seed", 11, "--verify-every", 2, "--feature-dim", 32,
        "--out", report, "--state", state,
    )
    assert code == 0
    rows = read_report(report)
    assert len(rows) == 4 + 6
    verified = [r for r in rows if r["delta_params"]]
    assert len(verified) == 3
    assert all(float(r["delta_params"]) <= 1e-6 for r in verified)
    assert all(float(r["delta_mia"]) <= 1e-6 for r in verified)

    gaps = tmp_path / "gaps.csv"
    assert run_cli(
        "verify", "--state", state, "--data", train, "--test-data", test,
        "--out", gaps,
    ) == 0
    gap_rows = read_report(gaps)
    assert len(gap_rows) == 1
    assert float(gap_rows[0]["delta_params"]) <= 1e-6

    assert run_cli(
        "resume", "--state", state, "--data", train, "--test-data", test,
        "--forget-total", 20, "--requests", 2, "--seed", 12,
        "--verify-every", 1, "--out", tmp_path / "resume.csv",
    ) == 0
    resumed = read_report(tmp_path / "resume.csv")
    assert len(resumed) == 2
    assert all(float(r["delta_params"]) <= 1e-6 for r in resumed)
    capsys.readouterr()


def test_run_report_gap_columns_match_gap_header(tmp_path, data_files):
    train, test = data_files
    report = tmp_path / "report.csv"
    assert run_cli(
        "run", "--data", train, "--test-data", test, "--forget-total", 20,
        "--requests", 2, "--verify-every", 1, "--feature-dim", 16,
        "--out", report,
    ) == 0
    with open(report, encoding="utf-8") as handle:
        header = handle.readline().strip()
    assert header.endswith(
        "delta_params,delta_retain,delta_forget,delta_test,delta_mia"
    )


def test_subcommands_are_the_documented_four(capsys):
    expected = {"gen-data", "run", "verify", "resume"}
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    doc_block = cli.__doc__.split("Subcommands:\n")[1].split("\n\n")[0]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli_block = readme.split("## CLI\n\n```\n")[1].split("```")[0]
    assert set(action.choices) == expected
    assert {line.split()[0] for line in doc_block.splitlines()} == expected
    assert {line.split()[1] for line in cli_block.splitlines()
            if line.startswith("ridgeforget ")} == expected
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--sizes", "1000"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_bad_input_exits_1(tmp_path, data_files, capsys):
    train, test = data_files
    code = run_cli(
        "run", "--data", train, "--test-data", test,
        "--forget-total", 10_000, "--requests", 2,
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_zero_forget_total_learns_only_and_resumes_to_the_same_state(
    tmp_path, data_files, capsys
):
    train, _ = data_files
    state = tmp_path / "run.state"
    assert run_cli("run", "--data", train, "--forget-total", 0, "--state", state) == 0
    assert "8 learn + 0 forget requests" in capsys.readouterr().out
    saved = state.read_bytes()
    assert run_cli(
        "resume", "--state", state, "--data", train, "--forget-total", 0, "--requests", 1,
    ) == 0
    assert "resumed: 0 forget requests" in capsys.readouterr().out
    assert state.read_bytes() == saved


def test_non_finite_features_exit_1(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text("id,label,f0,f1\n0,0,0.5,0.25\n1,1,nan,1.0\n", encoding="utf-8")
    assert run_cli("run", "--data", data, "--forget-total", 1, "--requests", 1) == 1
    assert "sample id 1 contain non-finite" in capsys.readouterr().err


def test_id_beyond_int64_exits_1(tmp_path, capsys):
    data = tmp_path / "big.csv"
    data.write_text("id,label,f0\n0,0,0.5\n9223372036854775808,1,1.0\n", encoding="utf-8")
    assert run_cli("run", "--data", data, "--forget-total", 1, "--requests", 1) == 1
    assert "error: line 3: id must be below 2**63" in capsys.readouterr().err


def test_label_beyond_the_class_bound_exits_1(tmp_path, capsys):
    data = tmp_path / "huge-label.csv"
    data.write_text("id,label,f0\n0,1000000000000000,0.5\n", encoding="utf-8")
    assert run_cli("run", "--data", data, "--forget-total", 1, "--requests", 1) == 1
    assert "error: line 2: label 1000000000000000 must be below 65536" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "body, message",
    [(b"1,1,\xff2.0\n", "line 3: not valid UTF-8"),
     (b"1,1,0." + b"0" * 140_000 + b"1\n", "line 3: field larger than field limit")],
    ids=["non-utf8-byte", "field-over-csv-size-limit"],
)
def test_unreadable_csv_exits_1(tmp_path, capsys, body, message):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"id,label,f0\n0,0,0.5\n" + body)
    assert run_cli("run", "--data", data, "--forget-total", 1, "--requests", 1) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_infinite_gamma_exits_1(tmp_path, data_files, capsys):
    train, _ = data_files
    code = run_cli(
        "run", "--data", train, "--gamma", "inf", "--forget-total", 1,
        "--requests", 1, "--out", tmp_path / "report.csv",
    )
    assert code == 1
    assert "gamma" in capsys.readouterr().err


def test_missing_file_exits_1(tmp_path, capsys):
    assert run_cli("run", "--data", tmp_path / "absent.csv") == 1
    capsys.readouterr()


def test_corrupt_state_exits_2(tmp_path, data_files, capsys):
    train, test = data_files
    state = tmp_path / "run.state"
    assert run_cli(
        "run", "--data", train, "--forget-total", 10, "--requests", 1,
        "--state", state, "--feature-dim", 16,
    ) == 0
    blob = bytearray(state.read_bytes())
    blob[-1] ^= 0xFF
    state.write_bytes(bytes(blob))
    code = run_cli("verify", "--state", state, "--data", train, "--test-data", test)
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verification_without_test_data_exits_1(tmp_path, data_files, capsys):
    train, _ = data_files
    code = run_cli(
        "run", "--data", train, "--forget-total", 10, "--requests", 1,
        "--verify-every", 1,
    )
    assert code == 1
    assert "test-data" in capsys.readouterr().err


@pytest.fixture
def thirty_rows(tmp_path):
    """A 30-row raw CSV (3 classes x 10), a 15-row test CSV and a test CSV
    that holds only its header."""
    train, test, empty = (tmp_path / n for n in ("train.csv", "test.csv", "empty.csv"))
    sizes = ("--classes", 3, "--input-dim", 4, "--seed", 1)
    assert run_cli("gen-data", *sizes, "--per-class", 10, "--out", train) == 0
    assert run_cli(
        "gen-data", *sizes, "--per-class", 5, "--draw", 1, "--out", test
    ) == 0
    empty.write_text(test.read_text(encoding="utf-8").splitlines()[0] + "\n",
                     encoding="utf-8")
    return train, test, empty


@pytest.mark.parametrize(
    "forget_total, test_name, message",
    [(30, "test", "forget request 3 would leave no retained row"),
     (6, "empty", "verification requires at least one test row")],
    ids=["all-rows-forgotten", "header-only-test-data"],
)
def test_unverifiable_run_exits_1_before_any_request(
    tmp_path, thirty_rows, capsys, monkeypatch, forget_total, test_name, message
):
    train, test, empty = thirty_rows
    capsys.readouterr()
    updates = []
    monkeypatch.setattr(
        "ridgeforget.harness.learn_update", lambda *args: updates.append(args)
    )
    report, state = tmp_path / "r.csv", tmp_path / "s.state"
    code = run_cli(
        "run", "--data", train, "--test-data", {"test": test, "empty": empty}[test_name],
        "--forget-total", forget_total, "--requests", 3, "--verify-every", 1,
        "--feature-dim", 8, "--state", state, "--out", report,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert updates == []
    assert not report.exists() and not state.exists()


def test_run_with_no_verified_request_accepts_header_only_test_data(
    tmp_path, thirty_rows
):
    train, _, empty = thirty_rows
    report = tmp_path / "r.csv"
    # 3 forget requests, every 4th verified: none is, so no test row is needed
    assert run_cli(
        "run", "--data", train, "--test-data", empty, "--forget-total", 6,
        "--requests", 3, "--verify-every", 4, "--feature-dim", 8, "--out", report,
    ) == 0
    rows = report.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["learn"] * 8 + ["forget"] * 3
    assert all(row.endswith(",,,,,") for row in rows[1:])


def test_verify_without_retained_or_test_rows_exits_1_naming_the_cause(
    tmp_path, thirty_rows, capsys
):
    train, test, empty = thirty_rows
    state = tmp_path / "all.state"
    assert run_cli(
        "run", "--data", train, "--forget-total", 30, "--requests", 3,
        "--feature-dim", 8, "--state", state,
    ) == 0
    capsys.readouterr()
    assert run_cli("verify", "--state", state, "--data", train, "--test-data", test) == 1
    assert "the ledger retains none of its 30 learned ids" in capsys.readouterr().err
    kept = tmp_path / "kept.state"
    assert run_cli(
        "run", "--data", train, "--forget-total", 3, "--requests", 1,
        "--feature-dim", 8, "--state", kept,
    ) == 0
    capsys.readouterr()
    assert run_cli("verify", "--state", kept, "--data", train, "--test-data", empty) == 1
    assert "a gap report needs at least one test row" in capsys.readouterr().err


def test_gen_data_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(
            "gen-data", "--classes", 3, "--per-class", 5, "--input-dim", 4,
            "--seed", 42, "--out", path,
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [(("--classes", 10**15), "class_count must lie in [1, 65536], got 1000000000000000"),
     (("--classes", 65537), "class_count must lie in [1, 65536], got 65537"),
     (("--per-class", 0), "counts must be positive"),
     (("--input-dim", -1), "counts must be positive"),
     (("--per-class", 10**8), "exceed the 16777216 input values"),
     (("--input-dim", 10**20), "exceed the 16777216 input values"),
     (("--draw", 10**21), "draw must be in [0, 1537228672809129301)"),
     (("--spread", "nan"), "cluster_spread must be finite and non-negative")],
    ids=["classes-over-bound", "classes-one-over", "per-class-zero",
         "input-dim-negative", "rows-over-cap", "input-dim-over-cap", "draw-over-ids",
         "spread-nan"],
)
def test_gen_data_bad_value_exits_1(tmp_path, capsys, flags, message):
    out = tmp_path / "out.csv"
    # the last occurrence of a flag wins, so `flags` overrides these values
    sizes = ("--classes", 2, "--per-class", 3, "--input-dim", 2)
    assert run_cli("gen-data", *sizes, *flags, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_run_with_feature_data_and_raw_test_data_exits_1(tmp_path, data_files, capsys):
    _, test = data_files
    features = tmp_path / "features.csv"
    rows = "".join(f"{i},{i},0.5,{i}.25\n" for i in range(4))  # test.csv's 4 classes
    features.write_text("id,label,f0,f1\n" + rows, encoding="utf-8")
    state = tmp_path / "run.state"
    code = run_cli(
        "run", "--data", features, "--test-data", test, "--learn-chunks", 4,
        "--forget-total", 1, "--requests", 1, "--state", state,
    )
    assert code == 1
    assert "holds raw inputs but no extractor is available" in capsys.readouterr().err
    assert not state.exists()


def _resume(state, train, *extra):
    return run_cli(
        "resume", "--state", state, "--data", train, "--forget-total", 10,
        "--requests", 2, "--seed", 5, *extra,
    )


def test_resume_writes_state_out_and_leaves_its_input_whole(tmp_path, data_files, capsys):
    train, _ = data_files
    state = tmp_path / "run.state"
    assert run_cli(
        "run", "--data", train, "--forget-total", 20, "--requests", 2,
        "--feature-dim", 16, "--state", state,
    ) == 0
    before = state.read_bytes()
    out = tmp_path / "resumed.state"
    assert _resume(state, train, "--state-out", out) == 0
    assert state.read_bytes() == before
    resumed = load_state(out)
    assert len(resumed.ledger.forgotten_ids) == 30
    # without --state-out, resume overwrites its input with the same result
    assert _resume(state, train) == 0
    assert state.read_bytes() == out.read_bytes()
    capsys.readouterr()


def test_test_data_label_beyond_the_data_classes_exits_1(tmp_path, data_files, capsys):
    train, _ = data_files
    test = tmp_path / "test.csv"
    # train.csv has 4 classes (labels 0..3) and 8 input columns
    header = "id,label," + ",".join(f"x{k}" for k in range(8))
    test.write_text(f"{header}\n0,1{',0.5' * 8}\n12,4{',1.0' * 8}\n", encoding="utf-8")
    code = run_cli(
        "run", "--data", train, "--test-data", test, "--forget-total", 1,
        "--requests", 1,
    )
    assert code == 1
    assert "error: label 4 of sample id 12 is out of range [0, 4)" in (
        capsys.readouterr().err
    )


_OVER = MAX_FEATURE_DIM + 1
_RUN = ("run", "--data", "{train}", "--forget-total", 1, "--requests", 1)


@pytest.mark.parametrize(
    "argv, message",
    [((*_RUN, "--seed", -1), "seed must fit in 64 unsigned bits: -1"),
     (("resume", "--state", "{state}", "--data", "{train}", "--forget-total", 1,
       "--requests", 1, "--seed", -1), "seed must fit in 64 unsigned bits: -1"),
     ((*_RUN, "--feature-dim", -3), f"feature_dim must lie in [1, {MAX_FEATURE_DIM}]"),
     ((*_RUN, "--feature-dim", _OVER), f"got {_OVER}"),
     (("run", "--data", "{wide}", "--forget-total", 1, "--requests", 1),
      f"line 1: {_OVER} feature columns exceed MAX_FEATURE_DIM"),
     (("run", "--data", "{train}", "--forget-total", 10, "--requests", 20),
      "forget_requests 20 exceeds forget_total 10"),
     ((*_RUN, "--learn-chunks", 5000), "learn_chunks must lie in [1, 200]"),
     (("run", "--data", "{wide_raw}", "--forget-total", 1, "--requests", 1,
       "--feature-dim", MAX_FEATURE_DIM),
      f"input_dim {_OVER} x feature_dim {MAX_FEATURE_DIM} exceeds the "
      f"{MAX_PROJECTION_VALUES} projection entries")],
    ids=["run-seed-negative", "resume-seed-negative",
         "run-feature-dim-negative", "run-feature-dim-over-bound",
         "feature-csv-over-bound",
         "run-more-requests-than-forget-rows", "run-more-learn-chunks-than-rows",
         "raw-csv-over-projection-bound"],
)
def test_bad_value_exits_1_before_allocating(tmp_path, data_files, capsys, argv, message):
    train, _ = data_files
    state = tmp_path / "run.state"
    wide = tmp_path / "wide.csv"
    header = "id,label," + ",".join(f"f{k}" for k in range(_OVER))
    wide.write_text(f"{header}\n0,0{',0.5' * _OVER}\n1,1{',1.0' * _OVER}\n",
                    encoding="utf-8")
    # as many raw input columns as the feature columns above
    wide_raw = tmp_path / "wide_raw.csv"
    wide_raw.write_text(wide.read_text(encoding="utf-8").replace(",f", ",x"),
                        encoding="utf-8")

    def filled(args):
        return [str(a).format(train=train, state=state, wide=wide, wide_raw=wide_raw)
                for a in args]

    if "{state}" in argv:
        assert run_cli(*filled(_RUN), "--feature-dim", 8, "--state", state) == 0
        capsys.readouterr()
    tracemalloc.start()
    try:
        code = run_cli(*filled(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    # a d x d float64 matrix at the bound is 128 MiB; the check comes first
    assert peak < 8 * MAX_FEATURE_DIM**2 // 16


@pytest.mark.parametrize("command", ["run", "resume", "verify"])
def test_wrong_raw_width_exits_1_before_the_body_is_parsed(
    tmp_path, data_files, capsys, command
):
    train, test = data_files
    state = tmp_path / "run.state"
    run = ("run", "--forget-total", 1, "--requests", 1, "--data")
    assert run_cli(*run, train, "--feature-dim", 8, "--state", state) == 0
    # 400 rows of _OVER zero inputs: over the projection bound at the largest
    # feature_dim, and wider than the 8 inputs the saved extractor takes
    wide = tmp_path / "wide_raw.csv"
    header = "id,label," + ",".join(f"x{k}" for k in range(_OVER))
    wide.write_text(header + "\n" + "".join(f"{r},0{',0' * _OVER}\n" for r in range(400)),
                    encoding="utf-8")
    argv, message = {
        "run": ((*run, wide, "--feature-dim", MAX_FEATURE_DIM),
                f"input_dim {_OVER} x feature_dim {MAX_FEATURE_DIM} exceeds the "
                f"{MAX_PROJECTION_VALUES} projection entries"),
        "resume": (("resume", "--state", state, "--data", wide, "--forget-total", 1,
                    "--requests", 1),
                   f"dataset input_dim {_OVER} does not match extractor input_dim 8"),
        "verify": (("verify", "--state", state, "--data", wide, "--test-data", test),
                   f"dataset input_dim {_OVER} does not match extractor input_dim 8"),
    }[command]
    bound = 3 * wide.stat().st_size  # reading the file holds it about twice
    capsys.readouterr()
    peaks = []
    for call in (lambda: load_csv(wide), lambda: run_cli(*argv)):
        tracemalloc.start()
        try:
            result = call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert result == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    parsed, rejected = peaks
    assert rejected < bound < parsed


def _mutated(rng, blob):
    """`blob` with one seeded insertion, deletion or substitution of a byte
    0-255."""
    data = bytearray(blob)
    kind, byte = int(rng.integers(3)), int(rng.integers(256))
    at = int(rng.integers(len(data) + (kind == 0)))
    if kind == 0:
        data.insert(at, byte)
    elif kind == 1:
        del data[at]
    else:
        data[at] = byte
    return bytes(data)


_SMALL = ("--learn-chunks", 2, "--forget-total", 6, "--requests", 2, "--feature-dim", 8)


@pytest.fixture
def small_run(tmp_path, capsys):
    """A 30-row raw desk CSV and the state `run` saved from it."""
    train, state = tmp_path / "train.csv", tmp_path / "run.state"
    assert run_cli(
        "gen-data", "--classes", 3, "--per-class", 10, "--input-dim", 4,
        "--seed", 1, "--out", train,
    ) == 0
    assert run_cli("run", "--data", train, *_SMALL, "--state", state) == 0
    capsys.readouterr()
    return train, state


def test_mutated_csv_runs_or_exits_1(tmp_path, small_run, capsys):
    train, _ = small_run
    blob, bad = train.read_bytes(), tmp_path / "bad.csv"
    rng = np.random.default_rng(0)
    for i in range(200):
        bad.write_bytes(_mutated(rng, blob))
        code = run_cli("run", "--data", bad, *_SMALL)
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error: ")), (i, err)


def test_mutated_state_exits_2_under_verify_and_resume(tmp_path, small_run, capsys):
    train, state = small_run
    blob, bad = state.read_bytes(), tmp_path / "bad.state"
    rng = np.random.default_rng(0)
    for i in range(300):
        mutated = _mutated(rng, blob)
        if mutated == blob:
            continue
        bad.write_bytes(mutated)
        # format 2's checksum covers the header too, so no changed file loads
        with pytest.raises(StateFormatError):
            load_state(bad)
        for argv in (
            ("verify", "--state", bad, "--data", train, "--test-data", train),
            ("resume", "--state", bad, "--data", train, "--forget-total", 3,
             "--requests", 1, "--state-out", tmp_path / "out.state"),
        ):
            code = run_cli(*argv)
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error: "), (i, err)


def test_python_m_ridgeforget_runs_main_and_exits_with_its_code(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ridgeforget", *map(str, argv)],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )

    data = tmp_path / "data.csv"
    made = run("gen-data", "--classes", 2, "--per-class", 5, "--input-dim", 3, "--out", data)
    assert made.returncode == 0, made.stderr
    assert load_csv(data).class_count == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("id,label,x0\n0,zero,1.0\n", encoding="utf-8")
    failed = run("run", "--data", bad)
    assert failed.returncode == 1 and failed.stderr.startswith("error: ")
    corrupt = tmp_path / "corrupt.state"
    corrupt.write_bytes(b"NOPE" + bytes(32))
    refused = run("verify", "--state", corrupt, "--data", data, "--test-data", data)
    assert refused.returncode == 2 and "not a ridgeforget state file" in refused.stderr
