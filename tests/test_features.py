import hashlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from _helpers import accuracy_oracle

from ridgeforget import (
    ContractViolation,
    EncodedDataset,
    FeatureBatch,
    FeatureExtractor,
    InputError,
    RawDataset,
    SyntheticSpec,
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
    assert np.array_equal(extractor.extract_rows(np.zeros((1, 5))), np.zeros((1, 8)))


def test_identity_projection_identity_nonlinearity_is_passthrough():
    extractor = FeatureExtractor(0, 4, 4, "identity", np.eye(4))
    x = np.array([-1.5, 0.0, 2.0, 3.5])
    assert np.array_equal(extractor.extract_rows([x])[0], x)


def test_extract_rejects_length_mismatch():
    extractor = FeatureExtractor.from_seed(1, 5, 8)
    with pytest.raises(ContractViolation):
        extractor.extract_rows(np.zeros((1, 4)))


def test_same_seed_same_features_across_processes():
    x = np.linspace(-1.0, 1.0, 6)
    extractor = FeatureExtractor.from_seed(42, 6, 9)
    local_hash = hashlib.sha256(extractor.extract_rows([x]).tobytes()).hexdigest()
    code = (
        "import hashlib, numpy as np\n"
        "from ridgeforget import FeatureExtractor\n"
        "x = np.linspace(-1.0, 1.0, 6)\n"
        "e = FeatureExtractor.from_seed(42, 6, 9)\n"
        "print(hashlib.sha256(e.extract_rows([x]).tobytes()).hexdigest())\n"
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
            alone = extractor.extract_rows(inputs[row : row + 1])
            assert np.array_equal(stacked[row : row + 1], alone)


def test_projection_untouched_by_a_full_run():
    from _helpers import fresh_state

    from ridgeforget import build_stream, run_stream

    spec = SyntheticSpec(3, 30, 5, 0.2, 55)
    extractor = FeatureExtractor.from_seed(12, 5, 8)
    fingerprint = extractor.projection.copy()
    encoded = encode(extractor, generate_synthetic(spec))
    stream = build_stream(encoded, 3, 30, 3, seed=55)
    run_stream(stream, fresh_state(stream, 1e-3), dataset=encoded, test_rows=encoded)
    assert np.array_equal(extractor.projection, fingerprint)


def test_bad_nonlinearity_rejected():
    with pytest.raises(ContractViolation):
        FeatureExtractor.from_seed(1, 3, 4, nonlinearity="tanh")


@pytest.mark.parametrize(
    "build, message",
    [(lambda: FeatureExtractor.from_seed(1, 0, 4), "input_dim must be positive, got 0"),
     (lambda: FeatureExtractor(1, 3, 4, "relu", np.zeros((4, 3))),
      r"projection must be 3x4, got \(4, 3\)")],
    ids=["no-input-columns", "projection-of-another-shape"],
)
def test_extractor_rejects_a_bad_recipe(build, message):
    with pytest.raises(ContractViolation, match=message):
        build()


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
    assert accuracy_oracle(model, test) >= 95.0


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
    alone = extractor.extract_rows([[0.1, -0.3, 2.0]])
    assert np.array_equal(encoded.features[:1], alone)
    assert np.array_equal(encoded.one_hots[0], [0.0, 1.0, 0.0])


def test_encode_rows_match_per_row_recomputation():
    rng = np.random.default_rng(21)
    extractor = FeatureExtractor.from_seed(5, 6, 10)
    raw = RawDataset(
        np.arange(100), rng.standard_normal((100, 6)), rng.integers(0, 4, 100), 4
    )
    encoded = encode(extractor, raw)
    for row in (3, 17):
        alone = extractor.extract_rows(raw.inputs[row : row + 1])
        assert np.array_equal(encoded.features[row : row + 1], alone)


def test_encode_is_within_rounding_of_the_blas_product():
    raw = generate_synthetic(SyntheticSpec(10, 400, 16, 0.1, 4))
    extractor = FeatureExtractor.from_seed(9, 16, 64)
    features = encode(extractor, raw).features
    reference = np.maximum(raw.inputs @ extractor.projection, 0.0)
    assert np.linalg.norm(features - reference) <= 1e-13 * np.linalg.norm(reference)


def test_label_beyond_a_given_class_count_names_its_sample_id(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("id,label,x0,x1\n0,0,0.5,0.25\n9,1,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(InputError, match=r"label 1 of sample id 9 is out of range \[0, 1\)"):
        load_csv(path, class_count=1)


def assert_same_encoded(a, b):
    assert a.class_count == b.class_count
    for name in ("sample_ids", "features", "label_indices"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_encode_is_referentially_transparent():
    spec = SyntheticSpec(3, 20, 5, 0.3, 77)
    raw = generate_synthetic(spec)
    extractor_a = FeatureExtractor.from_seed(11, 5, 7)
    extractor_b = FeatureExtractor.from_seed(11, 5, 7)
    assert_same_encoded(encode(extractor_a, raw), encode(extractor_b, raw))


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
    encoded = EncodedDataset([1, 2], np.zeros((2, 3)), [0, 1], 2)
    with pytest.raises(ContractViolation, match=r"not present in dataset: \[5\]$"):
        encoded.subset_by_ids([1, 5])
    with pytest.raises(ContractViolation, match=r": \[3, 4, 5, 6, 7\]\.\.\.$"):
        encoded.subset_by_ids(range(2, 9))


def _unsorted_ids_dataset():
    return EncodedDataset(
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


def test_subset_by_ids_of_a_contiguous_run_is_read_only_views():
    rng = np.random.default_rng(19)
    encoded = EncodedDataset(
        1000 + rng.permutation(12), rng.standard_normal((12, 3)),
        rng.integers(0, 4, 12), 4,
    )
    names = ("sample_ids", "features", "label_indices", "one_hots")
    for rows, views in (([3, 4, 5, 6], True), ([0], True), ([3, 4, 6], False)):
        got = encoded.subset_by_ids(reversed(encoded.sample_ids[rows].tolist()))
        want = encoded.subset(rows)
        for name in names:
            array = getattr(got, name)
            assert np.array_equal(array, getattr(want, name))
            assert not array.flags.writeable
            assert np.shares_memory(array, getattr(encoded, name)) == views


def test_subset_by_ids_matches_a_membership_loop():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(0, 40))
        ids = rng.choice(1000, size=n, replace=False)
        encoded = EncodedDataset(
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


def _raw(ids=(0, 1, 2), labels=(0, 1, 0), class_count=2):
    return RawDataset(ids, _ROWS, labels, class_count)


def _encoded(ids=(0, 1, 2), features=_ROWS, labels=(0, 1, 0), class_count=2):
    return EncodedDataset(ids, features, labels, class_count)


def _batch(ids=(0, 1, 2), features=_ROWS):
    return FeatureBatch(features, _ONE_HOTS, ids)


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
        pytest.param(
            build, {"ids": (0, 7, 2), "labels": (0, label, 0)}, InputError,
            rf"label {label} of sample id 7 is out of range \[0, 2\)",
            id=f"{build.__name__[1:]}-{name}",
        )
        for build in (_raw, _encoded)
        for name, label in (("label-out-of-range", 2), ("negative-label", -1))
    ]
    + [
        pytest.param(
            build, {"class_count": 2.5}, ContractViolation,
            "class_count must be an integer >= 0", id=f"{build.__name__[1:]}-class-count",
        )
        for build in (_raw, _encoded)
    ]
    + [
        pytest.param(
            build, {"features": _ROWS[0]}, ContractViolation,
            "features must be a 2-D array, got ndim=1", id=f"{build.__name__[1:]}-1-d",
        )
        for build in (_encoded, _batch)
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


def test_write_csv_rejects_other_row_containers(tmp_path):
    path = tmp_path / "batch.csv"
    with pytest.raises(ContractViolation, match="cannot write FeatureBatch as CSV"):
        write_csv(path, _batch())
    assert not path.exists()


def test_feature_csv_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(2, 6, 4, 0.4, 13)
    encoded = encode(FeatureExtractor.from_seed(8, 4, 5), generate_synthetic(spec))
    path = tmp_path / "features.csv"
    write_csv(path, encoded)
    loaded = load_csv(path)
    assert isinstance(loaded, EncodedDataset)
    assert_same_encoded(loaded, encoded)


def test_csv_header_selects_mode(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,label,f0,f1\n0,1,0.5,0.25\n", encoding="utf-8")
    loaded = load_csv(path)
    assert isinstance(loaded, EncodedDataset)
    path.write_text("id,label,x0,x1\n0,1,0.5,0.25\n", encoding="utf-8")
    loaded = load_csv(path)
    assert isinstance(loaded, RawDataset)


def test_csv_raw_width_check_sees_only_raw_files_with_rows(tmp_path):
    seen = []
    path = tmp_path / "data.csv"
    for text in ("id,label,x0,x1\n0,1,0.5,0.25\n", "id,label,x0,x1,x2\n\n",
                 "id,label,f0,f1\n0,1,0.5,0.25\n"):
        path.write_text(text, encoding="utf-8")
        load_csv(path, check_raw_width=seen.append)
    assert seen == [2]

    def reject(width):
        raise InputError(f"width {width}")

    path.write_text("id,label,x0,x1,x2\n0,1,0.5,0.25,oops\n", encoding="utf-8")
    with pytest.raises(InputError, match="width 3"):  # not the parse error
        load_csv(path, check_raw_width=reject)


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
    # a quoted field spanning lines, in the header or in a row, moves the
    # later rows down a line
    path.write_text('id,label,"x0\n",x1\n0,0,1.0,2.0\n1,zero,2.0,3.0\n', encoding="utf-8")
    with pytest.raises(InputError, match="^line 4: "):
        load_csv(path)
    path.write_text(
        'id,label,x0\n0,0,"1.0\n"\n1,1,2.0\n2,zero,3.0\n', encoding="utf-8"
    )
    with pytest.raises(InputError, match="^line 5: "):
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


def test_csv_label_beyond_the_class_bound_names_its_line(tmp_path):
    path = tmp_path / "labels.csv"
    top = features.MAX_CLASSES - 1
    path.write_text(f"id,label,f0\n0,0,0.5\n1,{top},1.0\n", encoding="utf-8")
    assert load_csv(path).class_count == features.MAX_CLASSES
    for label in (features.MAX_CLASSES, 10**15):
        path.write_text(
            f"id,label,f0\n0,0,0.5\n\n1,{label},1.0\n2,{label},1.5\n",
            encoding="utf-8",
        )
        with pytest.raises(
            InputError, match=rf"line 4: label {label} must be below {top + 1}$"
        ):
            load_csv(path)


def test_feature_csv_width_is_bounded_at_its_header(tmp_path):
    path = tmp_path / "wide.csv"

    def write(width):
        header = "id,label," + ",".join(f"f{k}" for k in range(width))
        path.write_text(f"{header}\n0,0{',0.5' * width}\n", encoding="utf-8")

    write(features.MAX_FEATURE_DIM)
    assert load_csv(path).feature_dim == features.MAX_FEATURE_DIM
    write(features.MAX_FEATURE_DIM + 1)
    with pytest.raises(InputError, match=rf"line 1: {features.MAX_FEATURE_DIM + 1} feature"):
        load_csv(path)


def test_csv_header_error_comes_before_the_body_is_read(tmp_path):
    path = tmp_path / "lbl.csv"
    header = "id,lbl," + ",".join(f"x{k}" for k in range(64))
    row = ",0.123456789" * 64
    path.write_text(header + "\n" + "".join(f"{r},0{row}\n" for r in range(2000)),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="line 1: header must start with 'id,label'"):
            load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * path.stat().st_size


def test_csv_with_a_non_utf8_byte_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"id,label,x0\r\n0,0,1.0\r\n1,1,\xff2.0\r\n")
    with pytest.raises(InputError, match=r"line 3: not valid UTF-8 \(byte 5 "):
        load_csv(path)


def test_csv_field_over_the_size_limit_names_its_line(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("id,label,x0\n0,0,1.0\n1,1,0." + "0" * 140_000 + "1\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 3: field larger than field limit"):
        load_csv(path)
    path.write_text("id,label,x" + "0" * 140_000 + "\n0,0,1.0\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1: field larger than field limit"):
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
        pytest.param(_F + "0,1,0.5,1.5\n3,65536,1,2\n", None, False,
                     id="label-over-class-bound"),
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
