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
    VersionError,
    build_stream,
    load_state,
    run_stream,
    save_state,
)
from ridgeforget import state as state_module
from ridgeforget.cli import main
from ridgeforget.state import MAGIC
from _helpers import fresh_state
from test_harness import make_dataset


def run_to_state(seed=0, forget_requests=4):
    rng = np.random.default_rng(seed)
    dataset = make_dataset(rng, 50, 6, 3)
    stream = build_stream(dataset, 3, 16, forget_requests, seed=seed)
    _, state = run_stream(stream, fresh_state(stream, 1e-3))
    state.extractor = FeatureExtractor.from_seed(seed, 4, 6)
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


def test_unknown_version_is_version_error(tmp_path):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len])
    header["format_version"] = 99
    new_header = json.dumps(header, sort_keys=True).encode()
    future = tmp_path / "future.state"
    future.write_bytes(
        MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[8 + header_len :]
    )
    with pytest.raises(VersionError):
        load_state(future)


@pytest.mark.parametrize(
    "edit, indent",
    [(lambda h: h["extractor"].pop("input_dim"), None),
     (lambda h: h.update(extractor=5), None),
     (lambda h: h["extractor"].update(nonlinearity="relx"), None),
     (lambda h: h["extractor"].update(seed=-1), None),
     (lambda h: h.update(gamma=-1.0), None),
     (lambda h: h["extractor"].update(feature_dim=7), None),
     (lambda h: h["extractor"].update(input_dim=10**15), None),
     (lambda h: h.update(checksum_algorithm="md5"), None),
     (lambda h: None, 1),
     # the payload's ids stay put: the counts say which are learned
     (lambda h: h.update(learned_count=66, forgotten_count=0), None),
     (lambda h: h.update(learned_count=51, forgotten_count=15), None),
     (lambda h: h.update(learned_count=-1, forgotten_count=67), None)],
    ids=["extractor-without-input-dim", "extractor-not-an-object",
         "unknown-nonlinearity", "negative-extractor-seed", "negative-gamma",
         "extractor-dim-off-the-model", "extractor-input-dim-over-bound",
         "unknown-checksum-algorithm",
         "header-in-another-json-form",
         "forgotten-ids-counted-as-learned", "one-forgotten-id-counted-as-learned",
         "negative-id-count"],
)
def test_corrupt_header_is_integrity_error_and_exits_2(tmp_path, capsys, edit, indent):
    _, _, state = run_to_state()
    path = tmp_path / "full.state"
    save_state(state, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8 : 8 + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, indent=indent).encode()
    path.write_bytes(
        MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[8 + header_len :]
    )
    with pytest.raises(IntegrityError):
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
    # the header is checked before anything it sizes is drawn
    assert peak < 1 << 23


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
