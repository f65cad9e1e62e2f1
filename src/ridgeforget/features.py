"""Frozen random-feature extraction, synthetic data, and CSV ingestion.

The extractor replaces a heavyweight pretrained backbone with a seeded
Gaussian random projection (entries scaled by 1/sqrt(input_dim)) followed
by an optional ReLU.  It is drawn once from its seed and never mutated, so
feature extraction is a pure function of (seed, input).

Datasets come in two flavors: RawDataset (inputs not yet projected) and
EncodedDataset (feature rows plus label indices, keyed by sample id, with
one-hot label rows derived from the indices).  Both round-trip through a
CSV format selected by header prefix:

    id,label,x0,...,x{m-1}   raw inputs
    id,label,f0,...,f{d-1}   pre-extracted features (extractor bypassed)

Labels are 0-based integers.  Parse errors report 1-based line numbers.
load_csv reads the body in one np.loadtxt pass, and leaves any input that
pass would reject, or read differently, to a line-by-line parser.
RawDataset, EncodedDataset and core's FeatureBatch check their row
invariants (ids, row counts, finite features, labels in [0, class_count),
one-hot rows) through one helper, core._check_rows, so a label out of range
is an InputError naming its sample id wherever it enters.  encode extracts
a whole dataset in one product.

EncodedDataset.subset copies its rows; subset_by_ids returns views when the
rows it finds are one contiguous run.  An EncodedDataset also keeps prefix
sums (F^T F, F^T Y) of its first rows for the gap report's oracle, grown on
first use (_prefix_sums).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    MAX_CLASSES, MAX_FEATURE_DIM, FeatureBatch, _as_matrix, _check_feature_dim,
    _check_rows, _check_seed, _normal_sums, _set_fields,
)
from .errors import ContractViolation, InputError

NONLINEARITIES = ("relu", "identity")

# Most input values (rows x input_dim) a synthetic dataset may hold, which
# caps its rows at MAX_SYNTHETIC_VALUES // input_dim.  Generation holds a few
# float64 arrays of this size (128 MiB each at the cap), so an oversized
# request fails before it allocates; 2**24 is 262x the desk recipe.
MAX_SYNTHETIC_VALUES = 2**24

# Most projection entries (input_dim x feature_dim) an extractor may hold.
# The projection is drawn as one dense float64 array (128 MiB at the cap), and
# input_dim comes from outside: a raw CSV's width or a state header.  At the
# default feature_dim of 64 the cap allows 262,144 input columns.
MAX_PROJECTION_VALUES = 2**24


@dataclass(frozen=True)
class FeatureExtractor:
    """Seeded, frozen map from raw input vectors to feature vectors."""

    seed: int
    input_dim: int
    feature_dim: int
    nonlinearity: str
    projection: np.ndarray

    def __post_init__(self):
        self._check_recipe(self.seed, self.input_dim, self.feature_dim, self.nonlinearity)
        projection = np.array(self.projection, dtype=np.float64, order="C", copy=True)
        if projection.shape != (self.input_dim, self.feature_dim):
            raise ContractViolation(
                f"projection must be {self.input_dim}x{self.feature_dim}, "
                f"got {projection.shape}"
            )
        _set_fields(self, projection=projection)

    @staticmethod
    def _check_recipe(seed, input_dim, feature_dim, nonlinearity):
        _check_seed(seed)
        if input_dim <= 0:
            raise ContractViolation(f"input_dim must be positive, got {input_dim}")
        # Python ints: a numpy product could wrap around below the bound
        if int(input_dim) * _check_feature_dim(feature_dim) > MAX_PROJECTION_VALUES:
            raise ContractViolation(
                f"input_dim {input_dim} x feature_dim {feature_dim} exceeds the "
                f"{MAX_PROJECTION_VALUES} projection entries an extractor may hold"
            )
        if nonlinearity not in NONLINEARITIES:
            raise ContractViolation(
                f"nonlinearity must be one of {NONLINEARITIES}, got {nonlinearity!r}"
            )

    @classmethod
    def from_seed(
        cls,
        seed: int,
        input_dim: int,
        feature_dim: int,
        nonlinearity: str = "relu",
    ) -> "FeatureExtractor":
        """Draw the projection once from `seed` and freeze it; the recipe is
        checked before anything is drawn."""
        cls._check_recipe(seed, input_dim, feature_dim, nonlinearity)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        projection = rng.standard_normal((input_dim, feature_dim)) / math.sqrt(
            input_dim
        )
        return cls(seed, input_dim, feature_dim, nonlinearity, projection)

    def extract_rows(self, inputs) -> np.ndarray:
        """Feature rows G(inputs @ projection).  einsum's own loop, unlike a
        BLAS product, gives a row the same bits alone or in any stack, so
        features do not depend on how rows are batched."""
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[1] != self.input_dim:
            raise ContractViolation(
                f"inputs must be n x {self.input_dim}, got shape {inputs.shape}"
            )
        z = np.einsum("ij,jk->ik", inputs, self.projection, optimize=False)
        if self.nonlinearity == "relu":
            return np.maximum(z, 0.0)
        return z

    def _check_width(self, input_dim: int):
        if input_dim != self.input_dim:
            raise ContractViolation(
                f"dataset input_dim {input_dim} does not match extractor "
                f"input_dim {self.input_dim}"
            )


@dataclass(frozen=True)
class RawDataset:
    """Inputs and integer labels, keyed by distinct non-negative ids."""

    sample_ids: np.ndarray
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        ids = np.array(self.sample_ids, dtype=np.int64, copy=True).reshape(-1)
        inputs = _as_matrix(self.inputs, "inputs")
        labels = np.array(self.labels, dtype=np.int64, copy=True).reshape(-1)
        _check_rows(ids, inputs, labels=labels, class_count=self.class_count)
        _set_fields(self, sample_ids=ids, inputs=inputs, labels=labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster dataset recipe: one seeded mean per class, per-sample
    noise scaled by cluster_spread."""

    class_count: int
    samples_per_class: int
    input_dim: int
    cluster_spread: float
    seed: int

    def __post_init__(self):
        if self.class_count <= 0 or self.samples_per_class <= 0 or self.input_dim <= 0:
            raise ContractViolation("all synthetic-spec counts must be positive")
        if self.class_count > MAX_CLASSES:
            raise ContractViolation(
                f"class_count {self.class_count} must be at most {MAX_CLASSES}"
            )
        rows = int(self.class_count) * int(self.samples_per_class)
        if rows * int(self.input_dim) > MAX_SYNTHETIC_VALUES:
            raise ContractViolation(
                f"{rows} rows x {self.input_dim} input dims exceed the "
                f"{MAX_SYNTHETIC_VALUES} input values a synthetic dataset may hold"
            )
        if not (math.isfinite(self.cluster_spread) and self.cluster_spread >= 0):
            raise ContractViolation("cluster_spread must be finite and non-negative")
        _check_seed(self.seed)


def generate_synthetic(spec: SyntheticSpec, draw: int = 0) -> RawDataset:
    """Deterministic Gaussian clusters for `spec`.

    Class means depend only on spec.seed, so different `draw` values yield
    fresh samples from the same distribution (held-out test draws).  Ids
    are disjoint across draws.
    """
    n = spec.class_count * spec.samples_per_class
    if not 0 <= draw < 2**63 // n:  # ids draw*n .. (draw+1)*n - 1 fit in int64
        raise ContractViolation(f"draw must be in [0, {2**63 // n}), got {draw}")
    rng_means = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,))
    )
    rng_noise = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, draw))
    )
    means = rng_means.standard_normal((spec.class_count, spec.input_dim))
    noise = rng_noise.standard_normal((n, spec.input_dim))
    inputs = np.repeat(means, spec.samples_per_class, axis=0)
    inputs = inputs + spec.cluster_spread * noise
    labels = np.repeat(np.arange(spec.class_count), spec.samples_per_class)
    ids = np.arange(n, dtype=np.int64) + draw * n
    return RawDataset(ids, inputs, labels, spec.class_count)


@dataclass(frozen=True)
class EncodedDataset:
    """Feature rows with label indices, keyed by distinct sample ids; the
    one-hot label rows are derived from the indices.

    Features must be finite: rows of a validated dataset are valid batch
    rows, so to_batch re-checks nothing.
    """

    sample_ids: np.ndarray
    features: np.ndarray
    label_indices: np.ndarray
    class_count: int
    one_hots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.array(self.sample_ids, dtype=np.int64, copy=True).reshape(-1)
        features = _as_matrix(self.features, "features")
        labels = np.array(self.label_indices, dtype=np.int64, copy=True).reshape(-1)
        _check_rows(ids, features=features, labels=labels, class_count=self.class_count)
        one_hots = (labels[:, None] == np.arange(self.class_count)).astype(np.float64)
        _set_fields(self, sample_ids=ids, features=features, label_indices=labels,
                    one_hots=one_hots)

    @classmethod
    def _trusted(cls, ids, features, labels, one_hots, class_count):
        """Wrap fresh arrays holding rows of a validated dataset, frozen in
        place: rows of a valid dataset are valid, so nothing is re-checked."""
        return _set_fields(
            object.__new__(cls), sample_ids=ids, features=features,
            label_indices=labels, one_hots=one_hots, class_count=class_count,
        )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "EncodedDataset":
        """Rows at `indices`, as fancy-indexed (fresh) read-only copies."""
        indices = np.asarray(indices, dtype=np.int64)
        _check_rows(self.sample_ids[indices])
        return self._take(indices)

    def _take(self, rows) -> "EncodedDataset":
        return EncodedDataset._trusted(
            self.sample_ids[rows],
            self.features[rows],
            self.label_indices[rows],
            self.one_hots[rows],
            self.class_count,
        )

    @cached_property
    def _id_index(self):
        """(rows in id order, ids in that order): the id -> row index, built
        on first use and kept, since the arrays never change."""
        order = np.argsort(self.sample_ids)
        return order, self.sample_ids[order]

    def _locate(self, wanted: np.ndarray):
        """The rows holding the ids of `wanted`, and the ids no row holds,
        sorted and distinct."""
        order, sorted_ids = self._id_index
        at = np.searchsorted(sorted_ids, wanted)
        found = at < sorted_ids.size
        found[found] = sorted_ids[at[found]] == wanted[found]
        return order[at[found]], np.unique(wanted[~found])

    def subset_by_ids(self, ids) -> "EncodedDataset":
        """Rows whose id is in `ids`, in dataset order: read-only views of
        this dataset's arrays when the rows form one contiguous run, and
        read-only copies otherwise.  Unknown ids are a contract violation."""
        rows, unknown = self._locate(np.fromiter(ids, dtype=np.int64))
        if unknown.size:
            raise ContractViolation(
                f"ids not present in dataset: {unknown[:5].tolist()}"
                + ("..." if unknown.size > 5 else "")
            )
        taken = np.zeros(len(self), dtype=bool)
        taken[rows] = True
        rows = np.flatnonzero(taken)
        if rows.size and rows[-1] - rows[0] + 1 == rows.size:
            return self._take(slice(rows[0], rows[-1] + 1))
        return self._take(rows)

    @cached_property
    def _prefix_cache(self) -> list:
        """[sums of the first b rows, of the first 2b rows, ...], grown by
        _prefix_sums as far as a caller has asked."""
        return []

    def _prefix_sums(self, rows: int):
        """(n, sums): n is the largest multiple of the block size b at most
        `rows`, and sums core._normal_sums' (F^T F, F^T Y) over the first n
        rows, or None when n = 0.  A block's sums are its own SYRK and GEMM
        added to the previous block's.  b = max(256, 4 d), so a block's
        d^2 + d c sums are at most a quarter of its b (d + c) values."""
        block = max(256, 4 * self.feature_dim)
        blocks = min(rows, len(self)) // block
        if blocks == 0:
            return 0, None
        cache = self._prefix_cache
        while len(cache) < blocks:
            rows_in = slice(len(cache) * block, (len(cache) + 1) * block)
            cache.append(_normal_sums(
                self.features[rows_in], self.one_hots[rows_in],
                cache[-1] if cache else None,
            ))
        return blocks * block, cache[blocks - 1]

    def to_batch(self) -> FeatureBatch:
        return FeatureBatch._trusted(self.features, self.one_hots, self.sample_ids)


def encode(extractor: FeatureExtractor, raw: RawDataset) -> EncodedDataset:
    """Extract every raw row, preserving order, ids, labels and class count."""
    if len(raw) > 0:
        extractor._check_width(raw.input_dim)
    # an empty dataset of any width encodes to no rows
    inputs = raw.inputs.reshape(-1, extractor.input_dim)
    return EncodedDataset(
        raw.sample_ids, extractor.extract_rows(inputs), raw.labels, raw.class_count
    )


def _format_float(value: float) -> str:
    return repr(float(value))


def write_csv(path, dataset) -> None:
    """Write a RawDataset (x columns) or EncodedDataset (f columns)."""
    if isinstance(dataset, RawDataset):
        prefix, values, labels = "x", dataset.inputs, dataset.labels
    elif isinstance(dataset, EncodedDataset):
        prefix, values, labels = "f", dataset.features, dataset.label_indices
    else:
        raise ContractViolation(f"cannot write {type(dataset).__name__} as CSV")
    width = values.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "label"] + [f"{prefix}{k}" for k in range(width)])
        for row in range(values.shape[0]):
            writer.writerow(
                [int(dataset.sample_ids[row]), int(labels[row])]
                + [_format_float(v) for v in values[row]]
            )


def _decoded_lines(handle):
    """The lines of the binary file `handle`, split as bytes.splitlines
    splits them and decoded as they are read; a line that is not UTF-8 is an
    InputError naming it."""
    pieces = (piece for chunk in handle for piece in chunk.splitlines(keepends=True))
    for number, line in enumerate(pieces, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(
                f"line {number}: not valid UTF-8 "
                f"(byte {exc.start + 1} of the line: {exc.reason})"
            ) from exc


def load_csv(path, class_count: int | None = None, check_raw_width=None):
    """Load a dataset CSV; the header's 3rd column picks the mode.

    Returns an EncodedDataset for `f`-prefixed columns or a RawDataset for
    `x`-prefixed ones.  class_count defaults to max(label) + 1, and then
    every label must be below MAX_CLASSES; against a given class_count the
    dataset checks each label, naming the sample id of one out of range.
    The header is read and checked before the body.  The body is parsed in
    one np.loadtxt pass; any row that pass cannot take as-is sends the whole
    body through the line parser, which accepts the same inputs and names
    the line of the first bad row, a label beyond MAX_CLASSES included.  A
    line that is not UTF-8, or a field over the csv module's size limit, is
    an InputError naming its line too.  A caller that knows the input
    dimension passes `check_raw_width`, which sees the width of a raw file
    with a non-blank body before the rest of that body is read, and raises
    to reject it.
    """
    with open(path, "rb") as handle:
        lines = _decoded_lines(handle)
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError("line 1: file is empty, expected a header row")
        except csv.Error as exc:
            raise InputError(f"line {reader.line_num}: {exc}") from exc
        header_lines = reader.line_num  # a quoted field may span lines
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "id" or header[1] != "label":
            raise InputError(
                "line 1: header must start with 'id,label' followed by "
                "f0..f{d-1} or x0..x{m-1}"
            )
        prefix = header[2][:1]
        if prefix not in ("f", "x"):
            raise InputError(
                f"line 1: data columns must start with 'f' or 'x', got {header[2]!r}"
            )
        width = len(header) - 2
        expected = [f"{prefix}{k}" for k in range(width)]
        if header[2:] != expected:
            raise InputError(
                f"line 1: data columns must be exactly {prefix}0..{prefix}{width - 1}"
            )
        if prefix == "f" and width > MAX_FEATURE_DIM:
            raise InputError(
                f"line 1: {width} feature columns exceed MAX_FEATURE_DIM = {MAX_FEATURE_DIM}"
            )
        # the lines after the header record, read up to the first non-blank
        # one before check_raw_width sees the width
        body = []
        if prefix == "x" and check_raw_width is not None:
            for line in lines:
                body.append(line)
                if line.strip():
                    check_raw_width(width)
                    break
        body += lines
    # an inferred class count is bounded; the dataset checks a given one
    limit = MAX_CLASSES if class_count is None else 2**63
    ids, labels, values = (
        _parse_body(body, width, limit)
        or _parse_lines(body, width, limit, first=header_lines + 1)
    )
    if class_count is None:
        class_count = int(labels.max()) + 1 if labels.size else 0
    dataset = RawDataset if prefix == "x" else EncodedDataset
    return dataset(ids, values, labels, class_count)


# numpy strips these ASCII separators as whitespace; int() and float() reject
# them.  (numpy's integer parser also reads many non-ASCII characters as
# digits, so the fast path only sees ASCII.)
_LINE_PARSER_ONLY = ("\x1c", "\x1d", "\x1e", "\x1f")


def _parse_body(body: list, width: int, label_limit: int):
    """(ids, labels, values) from one np.loadtxt pass over the data lines,
    or None where the line parser must decide: no data rows, text numpy
    would read differently, a row numpy rejects, or rows the line parser
    rejects once parsed (negative or repeated ids, labels outside
    [0, label_limit))."""
    text = "".join(body)
    if (
        not any(line.strip("\r\n") for line in body)
        or not text.isascii()
        or any(sep in text for sep in _LINE_PARSER_ONLY)
        or max(map(len, body)) > csv.field_size_limit()
    ):
        return None
    row = np.dtype(
        [("id", np.int64), ("label", np.int64), ("values", np.float64, (width,))]
    )
    try:
        parsed = np.loadtxt(
            body, dtype=row, delimiter=",", comments=None, ndmin=1, encoding="utf-8"
        )
    except (ValueError, OverflowError):
        return None
    ids, labels = parsed["id"], parsed["label"]
    try:  # the line parser names the line of a bad id or label
        _check_rows(ids, labels=labels, class_count=label_limit)
    except (ContractViolation, InputError):
        return None
    return ids, labels, parsed["values"]


def _csv_records(body: list, first: int):
    """(line, record) of each csv record of the data lines, where `line` is
    the 1-based file line the record starts on and `first` that of body[0];
    a csv.Error becomes an InputError naming the line it was found on."""
    reader = csv.reader(body)
    start = first
    try:
        for record in reader:
            yield start, record
            start = first + reader.line_num
    except csv.Error as exc:
        raise InputError(f"line {first + reader.line_num - 1}: {exc}") from exc


def _parse_lines(body: list, width: int, label_limit: int, first: int):
    """(ids, labels, values) parsed line by line from the data lines, body[0]
    being file line `first`; the first bad row, a label at or above
    `label_limit` included, raises an InputError naming its 1-based line."""
    ids, labels, rows = [], [], []
    seen = {}
    for lineno, record in _csv_records(body, first):
        if not record:
            continue
        if len(record) != width + 2:
            raise InputError(
                f"line {lineno}: expected {width + 2} fields, got {len(record)}"
            )
        try:
            sample_id = int(record[0])
            label = int(record[1])
            values = [float(v) for v in record[2:]]
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        for name, number in (("id", sample_id), ("label", label)):
            if number < 0:
                raise InputError(f"line {lineno}: {name} must be non-negative")
            if number >= 2**63:
                raise InputError(f"line {lineno}: {name} must be below 2**63")
        if label >= label_limit:
            raise InputError(
                f"line {lineno}: label {label} must be below {label_limit}"
            )
        if sample_id in seen:
            raise InputError(
                f"line {lineno}: duplicate id {sample_id} "
                f"(first seen on line {seen[sample_id]})"
            )
        seen[sample_id] = lineno
        ids.append(sample_id)
        labels.append(label)
        rows.append(values)
    return (
        np.array(ids, dtype=np.int64),
        np.array(labels, dtype=np.int64),
        np.array(rows, dtype=np.float64).reshape(-1, width),
    )
