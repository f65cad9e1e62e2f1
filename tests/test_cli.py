import csv

import pytest

from ridgeforget.cli import main


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


def test_bench_writes_timing_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--sizes", "50,100", "--forget-size", 10, "--dfeat", 8,
        "--repeats", 2, "--out", out,
    ) == 0
    rows = read_report(out)
    assert [r["retained_size"] for r in rows] == ["50", "100"]
    capsys.readouterr()


def test_bad_input_exits_1(tmp_path, data_files, capsys):
    train, test = data_files
    code = run_cli(
        "run", "--data", train, "--test-data", test,
        "--forget-total", 10_000, "--requests", 2,
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
