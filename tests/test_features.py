import hashlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ridgeforget import (
    ContractViolation,
    EncodedDataset,
    FeatureBatch,
    FeatureExtractor,
    InputError,
    RawDataset,
    SyntheticSpec,
    accuracy,
    encode,
    generate_synthetic,
    joint_fit,
    load_csv,
    write_csv,
)
from ridgeforget import features

# -------------------------------------------------------------- extractor


def test_extract_zero_input_relu_is_zero():
    extractor = FeatureExtractor.from_seed(1, 5, 8)
    assert np.array_equal(extractor.extract(np.zeros(5)), np.zeros(8))


def test_identity_projection_identity_nonlinearity_is_passthrough():
    extractor = FeatureExtractor(0, 4, 4, "identity", np.eye(4))
    x = np.array([-1.5, 0.0, 2.0, 3.5])
    assert np.array_equal(extractor.extract(x), x)


def test_extract_rejects_length_mismatch():
    extractor = FeatureExtractor.from_seed(1, 5, 8)
    with pytest.raises(ContractViolation):
        extractor.extract(np.zeros(4))


def test_same_seed_same_features_across_processes():
    x = np.linspace(-1.0, 1.0, 6)
    extractor = FeatureExtractor.from_seed(42, 6, 9)
    local_hash = hashlib.sha256(extractor.extract(x).tobytes()).hexdigest()
    code = (
        "import hashlib, numpy as np\n"
        "from ridgeforget import FeatureExtractor\n"
        "x = np.linspace(-1.0, 1.0, 6)\n"
        "e = FeatureExtractor.from_seed(42, 6, 9)\n"
        "print(hashlib.sha256(e.extract(x).tobytes()).hexdigest())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == local_hash


def test_projection_is_frozen():
    extractor = FeatureExtractor.from_seed(7, 3, 4)
    with pytest.raises(ValueError):
        extractor.projection[0, 0] = 1.0


def test_extract_rows_matches_per_row_extract_bitwise():
    rng = np.random.default_rng(15)
    shapes = [
        (rng.standard_normal((20, 5)), 7),
        (rng.standard_normal((40, 16)), 64),
        (rng.standard_normal((30, 100)), 1024),
        (rng.standard_normal((9, 1)), 1),
        (rng.standard_normal((5, 30)).T, 7),  # transposed, non-contiguous
    ]
    for inputs, feature_dim in shapes:
        extractor = FeatureExtractor.from_seed(3, inputs.shape[1], feature_dim)
        stacked = extractor.extract_rows(inputs)
        for row in range(len(inputs)):
            assert np.array_equal(stacked[row], extractor.extract(inputs[row]))


def test_projection_untouched_by_a_full_run():
    from ridgeforget import build_stream, run_stream

    spec = SyntheticSpec(3, 30, 5, 0.2, 55)
    extractor = FeatureExtractor.from_seed(12, 5, 8)
    fingerprint = extractor.projection_hash()
    encoded = encode(extractor, generate_synthetic(spec))
    stream = build_stream(encoded, 3, 30, 3, seed=55)
    run_stream(stream, 1e-3, dataset=encoded, test_rows=encoded)
    assert extractor.projection_hash() == fingerprint


def test_bad_nonlinearity_rejected():
    with pytest.raises(ContractViolation):
        FeatureExtractor.from_seed(1, 3, 4, nonlinearity="tanh")


# -------------------------------------------------------------- synthetic


def test_synthetic_counts_and_labels():
    spec = SyntheticSpec(2, 5, 3, 0.5, 0)
    raw = generate_synthetic(spec)
    assert len(raw) == 10
    assert np.array_equal(np.sort(raw.labels), [0] * 5 + [1] * 5)
    assert np.unique(raw.sample_ids).size == 10


def test_synthetic_zero_spread_collapses_to_class_means():
    spec = SyntheticSpec(3, 4, 6, 0.0, 9)
    raw = generate_synthetic(spec)
    for label in range(3):
        rows = raw.inputs[raw.labels == label]
        assert np.array_equal(rows, np.repeat(rows[:1], 4, axis=0))


def test_synthetic_is_deterministic_and_draws_are_disjoint():
    spec = SyntheticSpec(2, 3, 4, 0.2, 123)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.inputs, b.inputs)
    held_out = generate_synthetic(spec, draw=1)
    assert not np.array_equal(a.inputs, held_out.inputs)
    assert not set(a.sample_ids.tolist()) & set(held_out.sample_ids.tolist())


def test_synthetic_classifier_generalizes_to_held_out_draw():
    spec = SyntheticSpec(4, 100, 8, 0.1, 7)
    extractor = FeatureExtractor.from_seed(99, 8, 32)
    train = encode(extractor, generate_synthetic(spec, draw=0))
    test = encode(extractor, generate_synthetic(spec, draw=1))
    model, _ = joint_fit(train.to_batch(), 1e-3)
    assert accuracy(model, test) >= 95.0


# ----------------------------------------------------------------- encode


def test_encode_empty():
    extractor = FeatureExtractor.from_seed(1, 3, 4)
    raw = RawDataset(np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0, np.int64), 2)
    encoded = encode(extractor, raw)
    assert len(encoded) == 0
    assert encoded.feature_dim == 4


def test_encode_single_row_matches_extract():
    extractor = FeatureExtractor.from_seed(4, 3, 5)
    raw = RawDataset([7], [[0.1, -0.3, 2.0]], [1], 3)
    encoded = encode(extractor, raw)
    assert np.array_equal(encoded.features[0], extractor.extract([0.1, -0.3, 2.0]))
    assert np.array_equal(encoded.one_hots[0], [0.0, 1.0, 0.0])


def test_encode_rows_match_per_row_recomputation():
    rng = np.random.default_rng(21)
    extractor = FeatureExtractor.from_seed(5, 6, 10)
    raw = RawDataset(
        np.arange(100), rng.standard_normal((100, 6)), rng.integers(0, 4, 100), 4
    )
    encoded = encode(extractor, raw)
    for row in (3, 17):
        assert np.array_equal(encoded.features[row], extractor.extract(raw.inputs[row]))


def test_encode_is_within_rounding_of_the_blas_product():
    raw = generate_synthetic(SyntheticSpec(10, 400, 16, 0.1, 4))
    extractor = FeatureExtractor.from_seed(9, 16, 64)
    features = encode(extractor, raw).features
    reference = np.maximum(raw.inputs @ extractor.projection, 0.0)
    assert np.linalg.norm(features - reference) <= 1e-13 * np.linalg.norm(reference)


def test_encode_error_carries_row_index():
    extractor = FeatureExtractor.from_seed(1, 2, 3)
    raw = RawDataset([0, 1, 2], np.zeros((3, 2)), [0, 1, 1], 2)
    with pytest.raises(InputError, match="row 1"):
        encode(extractor, raw, class_count=1)


def test_encode_is_referentially_transparent():
    spec = SyntheticSpec(3, 20, 5, 0.3, 77)
    raw = generate_synthetic(spec)
    extractor_a = FeatureExtractor.from_seed(11, 5, 7)
    extractor_b = FeatureExtractor.from_seed(11, 5, 7)
    assert encode(extractor_a, raw).content_hash() == encode(extractor_b, raw).content_hash()


def test_dataset_one_hot_rows_always_sum_to_one():
    spec = SyntheticSpec(5, 8, 4, 0.2, 3)
    encoded = encode(FeatureExtractor.from_seed(2, 4, 6), generate_synthetic(spec))
    assert np.array_equal(encoded.one_hots.sum(axis=1), np.ones(len(encoded)))


def test_subset_is_read_only_and_equals_validated_construction():
    spec = SyntheticSpec(4, 6, 3, 0.2, 8)
    encoded = encode(FeatureExtractor.from_seed(1, 3, 5), generate_synthetic(spec))
    rows = [17, 2, 9, 0]
    subset = encoded.subset(rows)
    checked = EncodedDataset(
        encoded.sample_ids[rows],
        encoded.features[rows],
        encoded.label_indices[rows],
        encoded.one_hots[rows],
        encoded.class_count,
    )
    assert subset.class_count == checked.class_count
    for name in ("sample_ids", "features", "label_indices", "one_hots"):
        got, want = getattr(subset, name), getattr(checked, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
        assert not np.shares_memory(got, getattr(encoded, name))
    with pytest.raises(ContractViolation):
        encoded.subset([3, 3])


def test_subset_by_ids_rejects_unknown():
    encoded = EncodedDataset.from_features([1, 2], np.zeros((2, 3)), [0, 1], 2)
    with pytest.raises(ContractViolation, match=r"not present in dataset: \[5\]$"):
        encoded.subset_by_ids([1, 5])
    with pytest.raises(ContractViolation, match=r": \[3, 4, 5, 6, 7\]\.\.\.$"):
        encoded.subset_by_ids(range(2, 9))


def _unsorted_ids_dataset():
    return EncodedDataset.from_features(
        [7, 3, 11, 5], np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], 2
    )


def test_subset_by_ids_keeps_dataset_order_for_unsorted_ids():
    encoded = _unsorted_ids_dataset()
    got = encoded.subset_by_ids([5, 7, 11])
    assert got.sample_ids.tolist() == [7, 11, 5]
    assert np.array_equal(got.features, encoded.features[[0, 2, 3]])
    assert got.label_indices.tolist() == [0, 0, 1]
    assert np.array_equal(got.one_hots, encoded.one_hots[[0, 2, 3]])


def test_subset_by_ids_collapses_repeated_ids():
    got = _unsorted_ids_dataset().subset_by_ids([11, 3, 11, 11])
    assert got.sample_ids.tolist() == [3, 11]


def test_subset_by_ids_of_no_ids_is_empty():
    got = _unsorted_ids_dataset().subset_by_ids(set())
    assert len(got) == 0
    assert got.features.shape == (0, 2) and got.one_hots.shape == (0, 2)


@pytest.mark.parametrize(
    "ids",
    [{11, 7}, frozenset({7, 11}), range(7, 12, 4), (i for i in (11, 7))],
    ids=["set", "frozenset", "range", "generator"],
)
def test_subset_by_ids_accepts_any_iterable(ids):
    assert _unsorted_ids_dataset().subset_by_ids(ids).sample_ids.tolist() == [7, 11]


def test_subset_by_ids_matches_a_membership_loop():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(0, 40))
        ids = rng.choice(1000, size=n, replace=False)
        encoded = EncodedDataset.from_features(
            ids, rng.standard_normal((n, 3)), rng.integers(0, 2, n), 2
        )
        wanted = rng.choice(ids, size=int(rng.integers(0, 2 * n + 1))) if n else []
        keep = set(int(i) for i in wanted)
        rows = [r for r in range(n) if int(ids[r]) in keep]
        got = encoded.subset_by_ids(wanted)
        assert got.sample_ids.tolist() == ids[rows].tolist()
        assert np.array_equal(got.features, encoded.features[rows])


_ROWS = np.arange(6.0).reshape(3, 2)
_NAN_ROWS = np.where(_ROWS == 2.0, np.nan, _ROWS)  # row 1 is not finite
_ONE_HOTS = np.eye(2)[[0, 1, 0]]


def _raw(ids=(0, 1, 2)):
    return RawDataset(ids, _ROWS, [0, 1, 0], 2)


def _encoded(ids=(0, 1, 2), features=_ROWS, labels=(0, 1, 0), one_hots=_ONE_HOTS):
    return EncodedDataset(ids, features, labels, one_hots, 2)


def _batch(ids=(0, 1, 2), features=_ROWS):
    return FeatureBatch(features, _ONE_HOTS, ids)


def _from_features(labels):
    return EncodedDataset.from_features((0, 1, 2), _ROWS, labels, 2)


_SHARED_BAD_ROWS = {
    "duplicate-id": {"ids": (0, 1, 1)},
    "negative-id": {"ids": (0, -1, 2)},
    "row-count": {"ids": (0, 1)},
}


@pytest.mark.parametrize(
    "build, kwargs, error, message",
    [
        pytest.param(
            build, kwargs, ContractViolation, None, id=f"{build.__name__[1:]}-{name}"
        )
        for build in (_raw, _encoded, _batch)
        for name, kwargs in _SHARED_BAD_ROWS.items()
    ]
    + [
        pytest.param(
            build, {"ids": (0, 7, 2), "features": _NAN_ROWS}, InputError,
            "sample id 7 contain non-finite", id=f"{build.__name__[1:]}-non-finite",
        )
        for build in (_encoded, _batch)
    ]
    + [
        pytest.param(_encoded, {"labels": (0, 0, 0)}, ContractViolation,
                     "match label_indices", id="encoded-one-hots-disagree"),
        pytest.param(_encoded, {"one_hots": np.eye(3)[[0, 1, 0]]}, ContractViolation,
                     "width", id="encoded-one-hot-width"),
        pytest.param(_from_features, {"labels": (0, 2, 0)}, ContractViolation,
                     None, id="from-features-label-out-of-range"),
        pytest.param(_from_features, {"labels": (0, -1, 0)}, ContractViolation,
                     None, id="from-features-negative-label"),
    ],
)
def test_every_row_container_rejects_bad_rows(build, kwargs, error, message):
    with pytest.raises(error, match=message):
        build(**kwargs)


def test_feature_csv_with_nan_fails_at_load(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("id,label,f0,f1\n0,0,0.5,0.25\n4,1,nan,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="sample id 4 contain non-finite"):
        load_csv(path)


def test_raw_csv_with_inf_fails_at_encode(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("id,label,x0,x1\n0,0,0.5,0.25\n3,1,inf,1.0\n", encoding="utf-8")
    raw = load_csv(path)
    with pytest.raises(InputError, match="sample id 3 contain non-finite"):
        encode(FeatureExtractor.from_seed(1, 2, 6), raw)


# -------------------------------------------------------------------- CSV


def test_raw_csv_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(3, 7, 5, 0.4, 31)
    raw = generate_synthetic(spec)
    path = tmp_path / "raw.csv"
    write_csv(path, raw)
    loaded = load_csv(path)
    assert isinstance(loaded, RawDataset)
    assert np.array_equal(loaded.inputs, raw.inputs)
    assert np.array_equal(loaded.labels, raw.labels)
    assert np.array_equal(loaded.sample_ids, raw.sample_ids)


def test_feature_csv_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(2, 6, 4, 0.4, 13)
    encoded = encode(FeatureExtractor.from_seed(8, 4, 5), generate_synthetic(spec))
    path = tmp_path / "features.csv"
    write_csv(path, encoded)
    loaded = load_csv(path)
    assert isinstance(loaded, EncodedDataset)
    assert loaded.content_hash() == encoded.content_hash()


def test_csv_header_selects_mode(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,label,f0,f1\n0,1,0.5,0.25\n", encoding="utf-8")
    loaded = load_csv(path)
    assert isinstance(loaded, EncodedDataset)
    path.write_text("id,label,x0,x1\n0,1,0.5,0.25\n", encoding="utf-8")
    loaded = load_csv(path)
    assert isinstance(loaded, RawDataset)


def test_csv_parse_errors_use_one_based_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,x0\n0,0,1.0\n1,zero,2.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3"):
        load_csv(path)
    path.write_text("id,label,x0\n0,0,1.0\n0,1,2.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3.*duplicate id 0"):
        load_csv(path)
    path.write_text("id,label,x0\n5,0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 2"):
        load_csv(path)


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample,label,x0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_csv(path)
    path.write_text("id,label,q0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_csv(path)
    path.write_text("id,label,x0,x2\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_csv(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="line 1"):
        load_csv(path)


def test_csv_class_count_override(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,label,f0\n0,1,0.5\n", encoding="utf-8")
    loaded = load_csv(path, class_count=4)
    assert loaded.class_count == 4
    with pytest.raises(InputError):
        load_csv(path, class_count=1)


def test_csv_ids_and_labels_beyond_int64_name_their_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(
        "id,label,x0\n0,0,1.0\n9223372036854775807,0,1.0\n9223372036854775808,1,2.0\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=r"line 4: id must be below 2\*\*63"):
        load_csv(path)
    path.write_text("id,label,x0\n0,9223372036854775808,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"line 2: label must be below 2\*\*63"):
        load_csv(path)


_F = "id,label,f0,f1\n"
_X = "id,label,x0,x1\n"


def _csv_outcome(path, class_count):
    """What load_csv makes of `path`: the dataset's type, class count and
    array bytes, or the exception's type and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = load_csv(path, class_count)
    except Exception as exc:  # any failure is an outcome to compare
        return type(exc), str(exc)
    if isinstance(data, RawDataset):
        arrays = (data.sample_ids, data.labels, data.inputs)
    else:
        arrays = (data.sample_ids, data.label_indices, data.features)
    return type(data), data.class_count, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize(
    "text, class_count, numpy_parses",
    [
        pytest.param(_F + "0,1,0.5,1.5\r\n\r\n2,0,-1,2\r\n\n", None, True,
                     id="crlf-and-blank-lines"),
        pytest.param(_F + "0,1,0.5,1.5\n   \n2,0,1,2\n", None, False,
                     id="whitespace-only-line"),
        pytest.param(_F + "0,1,0.5,1.5,\n", None, False, id="trailing-comma"),
        pytest.param(_F + "0,1,0.5\n", None, False, id="too-few-fields"),
        pytest.param(_F + "0,1,0.5,1.5,2.5\n", None, False, id="too-many-fields"),
        pytest.param(_F + "0,1,,1.5\n", None, False, id="empty-field"),
        pytest.param(_F + '"0",1,"0.5",1.5\n', None, False, id="quoted-field"),
        pytest.param(_F + "1_0,1,0.5,1.5\n", None, False, id="underscore-id"),
        pytest.param(_F + "0,1,1_0.5,1.5\n", None, False, id="underscore-value"),
        pytest.param(_F + "\u0661\u0662,1,0.5,1.5\n", None, False, id="unicode-digit-id"),
        pytest.param(_F + "0,1,\u0663.5,1.5\n", None, False, id="unicode-digit-value"),
        pytest.param(_F + "\u01fe1,1,0.5,1.5\n", None, False, id="non-ascii-letter-id"),
        pytest.param(_F + "0,1,\x1c0.5,1.5\n", None, False, id="ascii-separator-value"),
        pytest.param(_F + "0,1,0." + "0" * 140_000 + "1,1.5\n", None, False,
                     id="field-over-csv-size-limit"),
        pytest.param(_F + " +5 ,1,0.5,1.5\n", None, True, id="signed-padded-id"),
        pytest.param(_F + "0,1,0.5,1.5\n1,0,nan,inf\n", None, True, id="nan-inf-features"),
        pytest.param(_X + "0,1,nan,-inf\n1,0,-nan,Infinity\n", None, True,
                     id="nan-inf-raw"),
        pytest.param(_F + "0,1,0.5,1.5\n-3,0,1,2\n", None, False, id="negative-id"),
        pytest.param(_F + "0,1,0.5,1.5\n3,0,1,2\n0,1,1,1\n", None, False,
                     id="duplicate-id"),
        pytest.param(_F + "0,1,0.5,1.5\n3,-1,1,2\n", None, False, id="negative-label"),
        pytest.param(_F + "9223372036854775808,1,0.5,1.5\n", None, False,
                     id="int64-overflow-id"),
        pytest.param(_F + "9223372036854775807,1,0.5,1.5\n", None, True, id="int64-max-id"),
        pytest.param(_F + "1.0,1,0.5,1.5\n", None, False, id="float-id"),
        pytest.param(_F, None, False, id="header-only"),
        pytest.param(_F + "\n\r\n", None, False, id="blank-lines-only"),
        pytest.param(_X + "7,2,0.25,-3e-5", None, True, id="single-row-no-newline"),
        pytest.param(_F + "0,1,0.5,1.5\n", 4, True, id="class-count-override"),
        pytest.param(_F + "0,1,0.5,1.5\n", 1, True, id="class-count-too-small"),
    ],
)
def test_load_csv_agrees_with_the_line_parser(
    tmp_path, monkeypatch, text, class_count, numpy_parses
):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    numpy_pass, taken = features._parse_body, []

    def spy(*args):
        taken.append(numpy_pass(*args))
        return taken[-1]

    monkeypatch.setattr(features, "_parse_body", spy)
    got = _csv_outcome(path, class_count)
    assert (taken[0] is not None) == numpy_parses
    monkeypatch.setattr(features, "_parse_body", lambda *a: None)
    assert got == _csv_outcome(path, class_count)
