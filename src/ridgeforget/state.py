"""Lossless binary persistence for engine state.

Layout (little-endian throughout):

    bytes 0..3   magic b"RFGS"
    bytes 4..7   header length (uint32)
    header       UTF-8 JSON as json.dumps(header, sort_keys=True) writes
                 it: format_version (2), gamma, feature_dim, class_count,
                 extractor (or null), learned/forgotten id counts, checksum
                 algorithm, and checksum: the sha256 hex of the header
                 without its checksum field, in that form, then the payload
    payload      W entries, T entries (float64), then the sorted learned
                 and forgotten id sets (int64)

Floats travel as raw 64-bit payload bytes, so load(save(state)) reproduces
W, T (the symmetric matrix updates read, mirrored from its lower triangle),
the ledger, and the extractor recipe bit-for-bit.  A bad magic, truncated
payload, checksum mismatch, a header in any other form than the one
save_state writes, or a header value no valid state holds raises
IntegrityError without exposing partial state; an unknown format_version
raises VersionError.  Each id array must be strictly increasing, as
save_state writes it, and the forgotten ids a subset of the learned ones,
so a header that shifts ids between the two counts is rejected too.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import struct

import numpy as np

from .core import AnalyticModel, TrackingMatrix
from .errors import ContractViolation, IntegrityError, VersionError
from .features import FeatureExtractor
from .harness import EngineState
from .verify import SampleLedger

MAGIC = b"RFGS"
FORMAT_VERSION = 2
CHECKSUM_ALGORITHM = "sha256"

# Rows of T a save mirrors from its lower triangle at a time: a block is
# 64 d floats, an eighth of T at d = 512, where a full copy is d x d.
_ROW_BLOCK = 64


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def save_state(state: EngineState, path) -> None:
    """Write `state` to `path` in the versioned checksummed container.

    The file is written and fsynced under a temporary name in the same
    directory, then renamed over `path`, so a crash or a failed write
    leaves any earlier file at `path` whole.  The directory is fsynced
    after the rename, so that the rename itself survives a power cut."""
    learned = np.array(sorted(state.ledger.learned_ids), dtype=np.int64)
    forgotten = np.array(sorted(state.ledger.forgotten_ids), dtype=np.int64)

    def pieces():
        # byte views of the payload in order, made once to hash and once to
        # write (the arrays are C order; "<" is the native order on
        # little-endian hosts)
        floats = itertools.chain(
            [state.model.weights], state.tracking._row_blocks(_ROW_BLOCK)
        )
        for arrays, dtype in ((floats, "<f8"), ((learned, forgotten), "<i8")):
            for array in arrays:
                yield memoryview(np.ascontiguousarray(array, dtype=dtype)).cast("B")

    extractor = None
    if state.extractor is not None:
        extractor = {
            "seed": state.extractor.seed,
            "input_dim": state.extractor.input_dim,
            "feature_dim": state.extractor.feature_dim,
            "nonlinearity": state.extractor.nonlinearity,
        }
    header = {
        "format_version": FORMAT_VERSION,
        "gamma": state.gamma,
        "feature_dim": state.model.feature_dim,
        "class_count": state.model.class_count,
        "extractor": extractor,
        "learned_count": int(learned.size),
        "forgotten_count": int(forgotten.size),
        "checksum_algorithm": CHECKSUM_ALGORITHM,
    }
    checksum = hashlib.sha256(_canonical(header))
    for piece in pieces():
        checksum.update(piece)
    header["checksum"] = checksum.hexdigest()
    header_bytes = _canonical(header)
    path = os.fspath(path)
    directory, name = os.path.split(path)
    # written beside `path` so that os.replace swaps it in atomically
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes)
            for piece in pieces():
                handle.write(piece)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temp)
        raise
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_state(path) -> EngineState:
    """Read a state file, verifying version and checksum before use."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a ridgeforget state file")
    (header_len,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + header_len:
        raise IntegrityError(f"{path}: truncated header")
    raw = blob[8 : 8 + header_len]
    try:
        header = json.loads(raw.decode("utf-8"))
        version = header.get("format_version")
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError) as exc:
        raise IntegrityError(f"{path}: unreadable header: {exc}") from exc
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    if _canonical(header) != raw:
        raise IntegrityError(f"{path}: header is not in the form save_state writes")
    payload = memoryview(blob)[8 + header_len :]
    offset = 0

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal offset
        out = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        offset += 8 * count
        return out

    try:
        if header["checksum_algorithm"] != CHECKSUM_ALGORITHM:
            raise IntegrityError(f"{path}: unknown checksum algorithm")
        checksum = header["checksum"]
        digest = hashlib.sha256(
            _canonical({k: v for k, v in header.items() if k != "checksum"})
        )
        gamma = float(header["gamma"])
        d_f = int(header["feature_dim"])
        d_c = int(header["class_count"])
        learned_count = int(header["learned_count"])
        forgotten_count = int(header["forgotten_count"])
        extractor_info = header["extractor"]
        if learned_count < 0 or forgotten_count < 0:
            raise IntegrityError(f"{path}: negative id count")
        expected_len = 8 * (d_f * d_c + d_f * d_f + learned_count + forgotten_count)
        if len(payload) != expected_len:
            raise IntegrityError(
                f"{path}: payload is {len(payload)} bytes, expected {expected_len}"
            )
        digest.update(payload)
        if digest.hexdigest() != checksum:
            raise IntegrityError(f"{path}: checksum mismatch")
        weights = take(d_f * d_c, "<f8").reshape(d_f, d_c)
        tracking = take(d_f * d_f, "<f8").reshape(d_f, d_f)
        learned = take(learned_count, "<i8")
        forgotten = take(forgotten_count, "<i8")
        # save_state writes each id set sorted: ids shifted between the two
        # counts leave an array out of order or forgotten ids never learned
        if (np.diff(learned) <= 0).any() or (np.diff(forgotten) <= 0).any():
            raise IntegrityError(f"{path}: id arrays are not strictly increasing")
        if (learned[:1] < 0).any():  # the smallest; forgotten ids are learned
            raise IntegrityError(f"{path}: negative sample id {learned[0]}")
        extractor = None
        if extractor_info is not None:
            extractor = FeatureExtractor.from_seed(
                int(extractor_info["seed"]),
                int(extractor_info["input_dim"]),
                int(extractor_info["feature_dim"]),
                str(extractor_info["nonlinearity"]),
            )
        return EngineState(
            AnalyticModel(weights, gamma),
            TrackingMatrix(tracking, gamma),
            SampleLedger(set(learned.tolist()), set(forgotten.tolist())),
            extractor,
        )
    except (KeyError, TypeError, ValueError, OverflowError, ContractViolation) as exc:
        raise IntegrityError(f"{path}: malformed header: {exc}") from exc
