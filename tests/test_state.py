import hashlib
import json
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

from ridgeforget import (
    EngineState,
    FeatureExtractor,
    IntegrityError,
    RequestStream,
    SampleLedger,
    TrackingMatrix,
    VersionError,
    build_stream,
    joint_fit,
    learn_update,
    load_state,
    run_stream,
    save_state,
)
from ridgeforget import state as state_module
from ridgeforget.cli import main
from ridgeforget.state import MAGIC
from _helpers import fresh_state, rand_batch
from test_harness import make_dataset


def run_to_state(seed=0, forget_requests=4):
    rng = np.random.default_rng(seed)
    dataset = make_dataset(rng, 50, 6, 3)
    stream = build_stream(dataset, 3, 16, forget_requests, seed=seed)
    _, state = run_stream(stream, fresh_state(stream, 1e-3))
    state.extractor = FeatureExtractor(seed, 4, 6)
    return dataset, stream, state


def assert_states_equal(a, b):
    assert np.array_equal(a.model.weights, b.model.weights)
    assert np.array_equal(a.tracking.matrix, b.tracking.matrix)
    assert a.model.gamma == b.model.gamma
    assert a.ledger.learned_ids == b.ledger.learned_ids
    assert a.ledger.forgotten_ids == b.ledger.forgotten_ids
    if a.extractor is None:
        assert b.extractor is None
    else:
        assert np.array_equal(a.extractor.projection, b.extractor.projection)
        assert a.extractor.nonlinearity == b.extractor.nonlinearity


def test_fresh_state_round_trip_is_bit_identical(tmp_path):
    state = EngineState.fresh(4, 3, 0.5)
    path = tmp_path / "fresh.state"
    save_state(state, path)
    assert_states_equal(load_state(path), state)
    # the writer is deterministic: saving again yields identical bytes
    twin = tmp_path / "fresh2.state"
    save_state(state, twin)
    assert path.read_bytes() == twin.read_bytes()


def _built(how):
    """An EngineState at d = 6, c = 3, built `how`."""
    if how == "fresh":
        return EngineState.fresh(6, 3, 0.5)
    rng = np.random.default_rng(31)
    base = rand_batch(rng, 30, 6, 3)
    model, tracking = joint_fit(base, 1e-3)
    ledger = SampleLedger(range(30), range(0, 30, 4))
    extractor = FeatureExtractor(5, 4, 6)
    if how == "inverse":
        inverse = np.linalg.inv(base.features.T @ base.features + 1e-3 * np.eye(6))
        assert not np.array_equal(inverse, inverse.T)  # rounding broke its symmetry
        tracking = TrackingMatrix(inverse, 1e-3)
    elif how in ("primal-update", "dual-update"):
        rows = 2 if how == "primal-update" else 8  # m < d, m >= d
        tracking, model = learn_update(
            tracking, model, rand_batch(rng, rows, 6, 3, id_start=30)
        )
        ledger.record_learn(range(30, 30 + rows))
    elif how == "numpy-recipe":
        extractor = FeatureExtractor(np.uint64(5), np.int64(4), np.int32(6), np.str_("relu"))
    return EngineState(model, tracking, ledger, extractor)


@pytest.mark.parametrize(
    "how", ["fresh", "joint-fit", "inverse", "primal-update", "dual-update", "numpy-recipe"]
)
def test_a_saved_state_loads_as_the_same_state(tmp_path, how):
    state = _built(how)
    path, again = tmp_path / "first.state", tmp_path / "again.state"
    save_state(state, path)
    loaded = load_state(path)
    assert_states_equal(loaded, state)
    assert np.array_equal(loaded.tracking.matrix, loaded.tracking.matrix.T)
    assert loaded.extractor == state.extractor
    save_state(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_round_trip_after_requests(tmp_path):
    _, _, state = run_to_state(seed=7)
    path = tmp_path / "mid.state"
    save_state(state, path)
    assert_states_equal(load_state(path), state)


def test_split_run_equals_straight_run_bitwise(tmp_path):
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        dataset = make_dataset(rng, 60, 5, 3)
        stream = build_stream(dataset, 2, 20, 10, seed=seed)
        _, straight = run_stream(stream, fresh_state(stream, 1e-3))

        first = RequestStream(stream.learn_requests, stream.forget_requests[:5])
        second = RequestStream((), stream.forget_requests[5:])
        _, half_state = run_stream(first, fresh_state(first, 1e-3))
        path = tmp_path / f"split-{seed}.state"
        save_state(half_state, path)
        resumed = load_state(path)
        _, final = run_stream(second, resumed)

        assert np.array_equal(final.model.weights, straight.model.weights)
        assert np.array_equal(final.tracking.matrix, straight.tracking.matrix)


def test_truncated_file_is_integrity_error(tmp_path):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.state"
    clipped.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(IntegrityError):
        load_state(clipped)


def test_flipped_payload_byte_is_integrity_error(tmp_path):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF
    bad = tmp_path / "bad.state"
    bad.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="checksum"):
        load_state(bad)


def test_bad_magic_is_integrity_error(tmp_path):
    path = tmp_path / "junk.state"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(IntegrityError, match="not a ridgeforget state file"):
        load_state(path)


@pytest.mark.parametrize("version", [99, 1, True], ids=["future", "format-1", "true"])
def test_unknown_version_is_version_error(tmp_path, version):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len])
    header["format_version"] = version
    new_header = json.dumps(header, sort_keys=True).encode()
    future = tmp_path / "future.state"
    future.write_bytes(
        MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[8 + header_len :]
    )
    with pytest.raises(VersionError):
        load_state(future)


_HEADER_EDITS = [
    ("extractor-without-input-dim", lambda h: h["extractor"].pop("input_dim"), None),
    ("extractor-not-an-object", lambda h: h.update(extractor=5), None),
    ("unknown-nonlinearity", lambda h: h["extractor"].update(nonlinearity="relx"), None),
    ("negative-extractor-seed", lambda h: h["extractor"].update(seed=-1), None),
    ("negative-gamma", lambda h: h.update(gamma=-1.0), None),
    ("extractor-dim-off-the-model", lambda h: h["extractor"].update(feature_dim=7), None),
    ("extractor-input-dim-over-bound",
     lambda h: h["extractor"].update(input_dim=10**15), None),
    ("unknown-checksum-algorithm", lambda h: h.update(checksum_algorithm="md5"), None),
    ("header-in-another-json-form", lambda h: None, 1),
    # the payload's ids stay put: the counts say which are learned
    ("forgotten-ids-counted-as-learned",
     lambda h: h.update(learned_count=66, forgotten_count=0), None),
    ("one-forgotten-id-counted-as-learned",
     lambda h: h.update(learned_count=51, forgotten_count=15), None),
    ("negative-id-count", lambda h: h.update(learned_count=-1, forgotten_count=67), None),
    # valid values of another state: only the checksum tells
    ("gamma-replaced", lambda h: h.update(gamma=0.031), None),
    ("extractor-seed-digit-added",
     lambda h: h["extractor"].update(seed=int("1" + str(h["extractor"]["seed"]))), None),
]

_CHECKSUM_ONLY = ("gamma-replaced", "extractor-seed-digit-added")


def _assert_rejected(path, tmp_path, capsys):
    """load_state raises IntegrityError, and verify exits 2 before anything
    the header sizes is drawn; returns load_state's message."""
    with pytest.raises(IntegrityError) as excinfo:
        load_state(path)
    # load_state is the first thing verify does, so the data need not exist
    absent = tmp_path / "absent.csv"
    tracemalloc.start()
    try:
        code = main(["verify", "--state", str(path), "--data", str(absent),
                     "--test-data", str(absent)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert peak < 1 << 23
    return str(excinfo.value)


@pytest.mark.parametrize(
    "edit, indent, resign",
    [pytest.param(edit, indent, False, id=name) for name, edit, indent in _HEADER_EDITS]
    # re-signed, an edit reaches the checks behind the checksum
    + [pytest.param(edit, indent, True, id=name + "-resigned")
       for name, edit, indent in _HEADER_EDITS if name not in _CHECKSUM_ONLY],
)
def test_corrupt_header_is_integrity_error_and_exits_2(tmp_path, capsys, edit, indent, resign):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len])
    payload = blob[8 + header_len :]
    edit(header)
    if resign:
        header.pop("checksum")
        header["checksum"] = hashlib.sha256(
            json.dumps(header, sort_keys=True).encode() + payload
        ).hexdigest()
    new_header = json.dumps(header, sort_keys=True, indent=indent).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(new_header)) + new_header + payload)
    message = _assert_rejected(path, tmp_path, capsys)
    assert not (resign and "checksum mismatch" in message)


def _signed(header: dict, payload: bytes) -> bytes:
    """A state file of `header` and `payload`, with a valid checksum."""
    covered = json.dumps(header, sort_keys=True).encode("utf-8") + payload
    header = dict(header, checksum=hashlib.sha256(covered).hexdigest())
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<I", len(raw)) + raw + payload


@pytest.mark.parametrize(
    "dims, learned",
    [((0, 3), []), ((2, 0), []), ((2, 3), [-3])],
    ids=["feature-dim-zero", "class-count-zero", "negative-learned-id"],
)
def test_signed_state_no_valid_save_writes_is_integrity_error(tmp_path, capsys, dims, learned):
    d, c = dims
    header = {
        "format_version": 2, "gamma": 0.5, "feature_dim": d, "class_count": c,
        "extractor": None, "learned_count": len(learned), "forgotten_count": 0,
        "checksum_algorithm": "sha256",
    }
    payload = b"".join([
        np.zeros((d, c), dtype="<f8").tobytes(),
        (2.0 * np.eye(d)).astype("<f8").tobytes(),
        np.array(learned, dtype="<i8").tobytes(),
    ])
    path = tmp_path / "hand.state"
    path.write_bytes(_signed(header, payload))
    assert "checksum" not in _assert_rejected(path, tmp_path, capsys)


def _wide_state():
    rng = np.random.default_rng(17)
    model, tracking = joint_fit(rand_batch(rng, 600, 512, 3), 1e-3)
    return EngineState(model, tracking,
                       SampleLedger(set(range(600)), set(range(0, 600, 7))),
                       FeatureExtractor(3, 4, 512))


def _hand_built(state):
    """The file of `_wide_state()`, built by hand."""
    payload = b"".join([
        state.model.weights.astype("<f8").tobytes(),
        state.tracking.matrix.astype("<f8").tobytes(),
        np.arange(600, dtype="<i8").tobytes(),
        np.arange(0, 600, 7, dtype="<i8").tobytes(),
    ])
    header = {
        "format_version": 2, "gamma": 1e-3, "feature_dim": 512, "class_count": 3,
        "extractor": {"seed": 3, "input_dim": 4, "feature_dim": 512, "nonlinearity": "relu"},
        "learned_count": 600, "forgotten_count": 86, "checksum_algorithm": "sha256",
    }
    return _signed(header, payload)


def test_save_writes_the_payload_without_copying_t(tmp_path):
    state = _wide_state()
    t_bytes = 8 * 512 * 512
    path = tmp_path / "wide.state"
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        save_state(state, path)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * t_bytes
    # nor is the full matrix built and left on the live state
    assert "matrix" not in vars(state.tracking)
    assert path.read_bytes() == _hand_built(state)


def test_load_takes_the_payload_without_copying_it(tmp_path):
    path = tmp_path / "wide.state"
    save_state(_wide_state(), path)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        load_state(path)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    # the file's bytes, the tracking matrix's copy of T and its symmetry
    # check's d x d temporary; a copy of the payload would be a fourth T
    assert peak < 3.5 * 8 * 512 * 512


def test_state_without_extractor_round_trips(tmp_path):
    state = EngineState.fresh(3, 2, 1.0)
    path = tmp_path / "noext.state"
    save_state(state, path)
    assert load_state(path).extractor is None


class _PayloadWriteFails:
    """A binary file whose second write, the payload, stops half way."""

    def __init__(self, path, mode):
        self._file = open(path, mode)
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            self._file.write(data[: len(data) // 2])
            raise OSError("disk full")
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)


def _disk_full(*args):
    raise OSError("disk full")


@pytest.mark.parametrize("failing", ["payload-write", "fsync", "replace"])
def test_failed_save_leaves_the_old_state_whole(tmp_path, monkeypatch, failing):
    path = tmp_path / "run.state"
    save_state(EngineState.fresh(6, 3, 1e-3), path)
    before = path.read_bytes()
    _, _, state = run_to_state(seed=3)
    if failing == "payload-write":
        monkeypatch.setattr(state_module, "open", _PayloadWriteFails, raising=False)
    else:
        monkeypatch.setattr(state_module.os, failing, _disk_full)
    with pytest.raises(OSError, match="disk full"):
        save_state(state, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.state"]
    monkeypatch.undo()
    save_state(state, path)
    assert_states_equal(load_state(path), state)
    assert [p.name for p in tmp_path.iterdir()] == ["run.state"]


def test_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "run.state"
    save_state(EngineState.fresh(6, 3, 1e-3), path)
    _, _, state = run_to_state(seed=5)
    fsync, synced = os.fsync, []

    def spy(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        synced.append((is_dir, os.fstat(fd).st_ino, path.read_bytes()))
        return fsync(fd)

    monkeypatch.setattr(state_module.os, "fsync", spy)
    save_state(state, path)
    after = path.read_bytes()
    directory = os.stat(tmp_path).st_ino
    assert any(d and ino == directory and now == after for d, ino, now in synced)
