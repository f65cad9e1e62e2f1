import numpy as np
import pytest
from _helpers import (
    accuracy_oracle, member_threshold_oracle, permuted, rand_batch, rel_fro,
    residual_scores, solve_weights_oracle,
)

from ridgeforget import (
    AnalyticModel,
    ContractViolation,
    EncodedDataset,
    FeatureBatch,
    FeatureExtractor,
    InputError,
    SampleLedger,
    SyntheticSpec,
    encode,
    gap_report,
    generate_synthetic,
    joint_fit,
    mia_gap,
    oracle_retrain,
    params_gap,
    predict,
    unlearn_model,
    unlearn_tracking,
)
from ridgeforget import verify
from ridgeforget.verify import _scored as _scored_both, fit_member_threshold


def _scored(model, rows):
    """(accuracy, residual scores) of `model` on `rows` through gap_report's
    scoring, with `model` as both of the models it scores together."""
    first, second = _scored_both(rows, model, model)
    assert first[0] == second[0]
    np.testing.assert_array_equal(first[1], second[1])
    return first


def dataset_from_batch(batch, class_count):
    return EncodedDataset(
        batch.sample_ids, batch.features, np.argmax(batch.labels, axis=1), class_count
    )


# ----------------------------------------------------------------- ledger


def test_ledger_rejects_overlapping_forgets_before_mutation():
    ledger = SampleLedger({1, 2, 3, 4}, {1})
    with pytest.raises(ContractViolation):
        ledger.record_forget([1, 2])
    assert ledger.forgotten_ids == {1}
    with pytest.raises(ContractViolation):
        ledger.record_forget([2, 99])
    assert ledger.forgotten_ids == {1}


def test_ledger_rejects_duplicate_learns():
    ledger = SampleLedger()
    ledger.record_learn([1, 2])
    with pytest.raises(ContractViolation):
        ledger.record_learn([2, 3])
    assert ledger.learned_ids == {1, 2}


def test_ledger_records_numpy_array_ids():
    ledger = SampleLedger()
    ledger.record_learn(np.array([3, 1, 2], dtype=np.int64))
    ledger.record_forget(np.array([1, 2]))
    assert ledger.learned_ids == {1, 2, 3} and ledger.forgotten_ids == {1, 2}
    assert all(type(i) is int for i in ledger.learned_ids | ledger.forgotten_ids)
    with pytest.raises(ContractViolation, match="already forgotten"):
        ledger.record_forget(np.array([2, 3]))
    assert ledger.forgotten_ids == {1, 2}


_ID_ITERABLES = {
    "list": list, "tuple": tuple, "ndarray": np.array, "range": None,
    "set": set, "frozenset": frozenset, "generator": lambda ids: (i for i in ids),
}


def _as_iterable(kind, ids):
    """`ids` (consecutive ints) as the iterable kind named by `kind`."""
    if kind == "range":
        return range(ids[0], ids[-1] + 1)
    return _ID_ITERABLES[kind](ids)


@pytest.mark.parametrize("kind", list(_ID_ITERABLES))
def test_ledger_records_any_iterable_of_ids(kind):
    ledger = SampleLedger(_as_iterable(kind, [0, 1]), _as_iterable(kind, [1]))
    ledger.record_learn(_as_iterable(kind, [2, 3, 4]))
    ledger.record_forget(_as_iterable(kind, [3, 4]))
    assert ledger.learned_ids == {0, 1, 2, 3, 4}
    assert ledger.forgotten_ids == {1, 3, 4}
    assert all(type(i) is int for i in ledger.learned_ids | ledger.forgotten_ids)
    ledger.record_forget(ledger.retained_ids)
    assert ledger.retained_ids == frozenset()
    with pytest.raises(ContractViolation, match="already learned"):
        ledger.record_learn(_as_iterable(kind, [4, 5]))
    assert ledger.learned_ids == {0, 1, 2, 3, 4}


def test_ledger_requires_forgotten_subset_of_learned():
    with pytest.raises(ContractViolation):
        SampleLedger({1}, {1, 2})


# ----------------------------------------------------------- oracle_retrain


def test_oracle_nothing_forgotten_equals_full_fit():
    rng = np.random.default_rng(61)
    batch = rand_batch(rng, 25, 5, 3)
    dataset = dataset_from_batch(batch, 3)
    ledger = SampleLedger(set(batch.sample_ids.tolist()))
    model = oracle_retrain(dataset, ledger, 0.4)
    want, _ = joint_fit(batch, 0.4)
    assert np.array_equal(model.weights, want.weights)


def test_oracle_everything_forgotten_is_zero_model():
    rng = np.random.default_rng(67)
    batch = rand_batch(rng, 10, 4, 2)
    dataset = dataset_from_batch(batch, 2)
    ids = set(batch.sample_ids.tolist())
    model = oracle_retrain(dataset, SampleLedger(ids, ids), 1.0)
    assert np.array_equal(model.weights, np.zeros((4, 2)))


def test_oracle_matches_independent_dense_solve():
    rng = np.random.default_rng(71)
    batch = rand_batch(rng, 60, 7, 4)
    dataset = dataset_from_batch(batch, 4)
    forgotten = set(rng.choice(batch.sample_ids, 15, replace=False).tolist())
    ledger = SampleLedger(set(batch.sample_ids.tolist()), forgotten)
    model = oracle_retrain(dataset, ledger, 0.25)
    keep = ~np.isin(batch.sample_ids, sorted(forgotten))
    want = solve_weights_oracle(batch.features[keep], batch.labels[keep], 0.25)
    assert rel_fro(model.weights, want) <= 1e-10


def test_oracle_rejects_unknown_ids():
    rng = np.random.default_rng(3)
    dataset = dataset_from_batch(rand_batch(rng, 5, 3, 2), 2)
    with pytest.raises(ContractViolation, match=r"missing from dataset: \[998, 999\]$"):
        oracle_retrain(dataset, SampleLedger({999, 998}), 1.0)


# --------------------------------------------------------------- accuracy


def test_accuracy_memorizing_model_scores_100():
    spec = SyntheticSpec(2, 5, 4, 0.05, 5)
    encoded = encode(FeatureExtractor(6, 4, 16), generate_synthetic(spec))
    model, _ = joint_fit(encoded.to_batch(), 1e-4)
    assert _scored(model, encoded)[0] == 100.0


def test_accuracy_zero_model_on_balanced_two_classes_is_50():
    features = np.random.default_rng(0).standard_normal((10, 3))
    labels = np.array([0, 1] * 5)
    dataset = EncodedDataset(np.arange(10), features, labels, 2)
    model = AnalyticModel(np.zeros((3, 2)), 1.0)
    assert _scored(model, dataset)[0] == 50.0


def test_accuracy_matches_straight_recount():
    rng = np.random.default_rng(73)
    features = rng.standard_normal((30, 5))
    labels = rng.integers(0, 3, 30)
    dataset = EncodedDataset(np.arange(30), features, labels, 3)
    model = AnalyticModel(rng.standard_normal((5, 3)), 1.0)
    got = _scored(model, dataset)[0]
    _, classes = predict(model, features)
    hits = sum(1 for r in range(30) if classes[r] == labels[r])
    assert got == 100.0 * hits / 30


def test_accuracy_empty_rows_is_input_error():
    model = AnalyticModel(np.zeros((3, 2)), 1.0)
    empty = EncodedDataset(
        np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0, np.int64), 2
    )
    with pytest.raises(InputError):
        _scored(model, empty)


# -------------------------------------------------------------- params_gap


def test_params_gap_identical_is_zero():
    model = AnalyticModel(np.random.default_rng(0).standard_normal((4, 3)), 1.0)
    assert params_gap(model, model) == 0.0


def test_params_gap_doubled_weights_is_one():
    weights = np.random.default_rng(1).standard_normal((4, 3))
    a = AnalyticModel(2 * weights, 1.0)
    b = AnalyticModel(weights, 1.0)
    assert params_gap(a, b) == 1.0


def test_params_gap_matches_naive_computation():
    rng = np.random.default_rng(79)
    wa = rng.standard_normal((5, 4))
    wb = rng.standard_normal((5, 4))
    got = params_gap(AnalyticModel(wa, 1.0), AnalyticModel(wb, 1.0))
    diff = 0.0
    norm = 0.0
    for r in range(5):
        for c in range(4):
            diff += (wa[r, c] - wb[r, c]) ** 2
            norm += wb[r, c] ** 2
    want = (diff**0.5) / max(norm**0.5, 1e-30)
    assert abs(got - want) <= 1e-12


def test_params_gap_raw_distances_obey_triangle_inequality():
    rng = np.random.default_rng(83)
    for _ in range(10):
        wa, wb, wc = (rng.standard_normal((4, 4)) for _ in range(3))
        d_ac = np.linalg.norm(wa - wc)
        d_ab = np.linalg.norm(wa - wb)
        d_bc = np.linalg.norm(wb - wc)
        assert d_ac <= d_ab + d_bc + 1e-12


def test_params_gap_dimension_mismatch():
    with pytest.raises(ContractViolation):
        params_gap(
            AnalyticModel(np.zeros((2, 2)), 1.0), AnalyticModel(np.zeros((3, 2)), 1.0)
        )


# ------------------------------------------------------------------ mia_gap


def sweep_oracle_member_rate(member, nonmember, scored):
    """Naive loops over every candidate threshold; smallest wins ties."""
    candidates = [-np.inf] + sorted(set(list(member) + list(nonmember)))
    best_threshold, best_errors = None, None
    for threshold in candidates:
        errors = sum(1 for s in member if s > threshold)
        errors += sum(1 for s in nonmember if s <= threshold)
        if best_errors is None or errors < best_errors:
            best_threshold, best_errors = threshold, errors
    return sum(1 for s in scored if s <= best_threshold) / len(scored)


@pytest.mark.parametrize("class_count", [2, 3, 10, 17])
def test_residual_scores_match_a_straight_loop(class_count):
    rng = np.random.default_rng(79)
    features = rng.standard_normal((40, 6))
    rows = EncodedDataset(np.arange(40), features, rng.integers(0, class_count, 40),
                          class_count)
    model = AnalyticModel(rng.standard_normal((6, class_count)), 1.0)
    scores = features @ model.weights
    want = [
        sum((rows.one_hots[j, k] - scores[j, k]) ** 2 for k in range(class_count))
        for j in range(40)
    ]
    # the same c non-negative terms summed in another order: c roundings
    eps = np.finfo(np.float64).eps
    for got in (_scored(model, rows)[1], residual_scores(model, rows)):
        np.testing.assert_allclose(got, want, rtol=class_count * eps, atol=0.0)


def _memorization_setup():
    # Over-parameterized fits: the full-data model keeps near-zero residuals
    # on the forgotten rows, the retrained one does not.
    rng = np.random.default_rng(89)
    batch = rand_batch(rng, 30, 40, 2)
    dataset = dataset_from_batch(batch, 2)
    forgotten = set(batch.sample_ids[:10].tolist())
    ledger = SampleLedger(set(batch.sample_ids.tolist()), forgotten)
    test_rows = dataset_from_batch(rand_batch(rng, 15, 40, 2, id_start=900), 2)
    still_remembers, _ = joint_fit(batch, 1e-6)
    retrained = oracle_retrain(dataset, ledger, 1e-6)
    return dataset, ledger, test_rows, still_remembers, retrained


def test_mia_gap_zero_for_identical_models():
    dataset, ledger, test_rows, _, retrained = _memorization_setup()
    assert mia_gap(retrained, retrained, dataset, ledger, test_rows) == 0.0


def test_mia_gap_detects_a_model_that_still_remembers():
    dataset, ledger, test_rows, still_remembers, retrained = _memorization_setup()
    got = mia_gap(still_remembers, retrained, dataset, ledger, test_rows)
    retained = dataset.subset_by_ids(ledger.retained_ids)
    forgotten = dataset.subset_by_ids(ledger.forgotten_ids)
    rates = [
        sweep_oracle_member_rate(
            residual_scores(m, retained).tolist(),
            residual_scores(m, test_rows).tolist(),
            residual_scores(m, forgotten).tolist(),
        )
        for m in (still_remembers, retrained)
    ]
    assert got == abs(rates[0] - rates[1])
    assert got > 0.0


def test_mia_gap_survives_identical_score_distributions():
    rng = np.random.default_rng(97)
    batch = rand_batch(rng, 20, 6, 2)
    dataset = dataset_from_batch(batch, 2)
    ledger = SampleLedger(
        set(batch.sample_ids.tolist()), set(batch.sample_ids[:5].tolist())
    )
    # test rows duplicate the retained rows' content under fresh ids
    retained = dataset.subset_by_ids(ledger.retained_ids)
    test_rows = EncodedDataset(
        retained.sample_ids + 1000,
        retained.features,
        retained.label_indices,
        2,
    )
    model = oracle_retrain(dataset, ledger, 0.5)
    assert mia_gap(model, model, dataset, ledger, test_rows) == 0.0


def test_mia_gap_rejects_a_model_of_another_shape():
    dataset, ledger, test_rows, _, retrained = _memorization_setup()
    wider = AnalyticModel(np.zeros((40, 3)), 1e-6)
    with pytest.raises(ContractViolation, match="batch class count 2 does not match 3"):
        mia_gap(wider, retrained, dataset, ledger, test_rows)


def _unreachable(*args):
    raise AssertionError("rows gathered or oracle fitted before the shape check")


@pytest.mark.parametrize("wrong", ["model", "test-rows"])
def test_gap_metrics_check_row_shapes_before_gathering_rows(monkeypatch, wrong):
    dataset, ledger, test_rows, _, retrained = _memorization_setup()
    model = retrained
    if wrong == "model":
        model, message = AnalyticModel(np.zeros((8, 2)), 1e-6), "feature dim 40 does not match 8"
    else:
        test_rows = dataset_from_batch(rand_batch(np.random.default_rng(3), 5, 40, 3), 3)
        message = "batch class count 3 does not match 2"
    monkeypatch.setattr(verify, "_ledger_rows", _unreachable)
    monkeypatch.setattr(verify, "_oracle", _unreachable)
    with pytest.raises(ContractViolation, match=message):
        gap_report(model, dataset, ledger, test_rows, 0)
    for pair in ((model, retrained), (retrained, model)):
        with pytest.raises(ContractViolation, match=message):
            mia_gap(*pair, dataset, ledger, test_rows)


def test_fit_member_threshold_is_deterministic_under_ties():
    scores = [1.0, 2.0, 3.0]
    assert fit_member_threshold(scores, scores) == fit_member_threshold(scores, scores)


def _threshold_case(rng, case):
    """(member, nonmember) scores of one seeded case; every fourth case has
    integer scores (heavy ties), every fourth identical sides, and cases 3
    and 7 mod 8 an empty member or non-member side."""
    sizes = rng.integers(1, 30, 2)
    if case % 8 == 3:
        sizes[0] = 0
    elif case % 8 == 7:
        sizes[1] = 0
    if case % 4 == 0:
        return [rng.integers(0, 6, size).astype(float) for size in sizes]
    if case % 4 == 1:
        member = rng.integers(0, 10, sizes[0]).astype(float)
        return member, rng.permutation(member)
    return [rng.gamma(2.0, 1e-3, size) for size in sizes]


def test_fit_member_threshold_matches_the_brute_force_oracle():
    rng = np.random.default_rng(113)
    for case in range(200):
        member, nonmember = _threshold_case(rng, case)
        want = member_threshold_oracle(member.tolist(), nonmember.tolist())
        assert fit_member_threshold(member, nonmember) == want, case


def test_mia_gap_requires_nonempty_sets():
    rng = np.random.default_rng(5)
    batch = rand_batch(rng, 6, 3, 2)
    dataset = dataset_from_batch(batch, 2)
    ledger = SampleLedger(set(batch.sample_ids.tolist()))  # nothing forgotten
    model, _ = joint_fit(batch, 1.0)
    with pytest.raises(InputError, match="non-empty forgotten set"):
        mia_gap(model, model, dataset, ledger, dataset)
    ledger.record_forget(batch.sample_ids[:2])
    with pytest.raises(InputError, match="non-empty retained and test sets"):
        mia_gap(model, model, dataset, ledger, dataset.subset([]))
    ledger.record_forget(batch.sample_ids[2:])
    with pytest.raises(InputError, match="non-empty retained and test sets"):
        mia_gap(model, model, dataset, ledger, dataset)


@pytest.mark.parametrize(
    "deltas, message",
    [((0.0, 1.0, 0.0, -1e-9, 0.0), "must be non-negative"),
     ((0.0, 0.0, 100.5, 0.0, 0.0), "cannot exceed 100")],
    ids=["negative-delta", "accuracy-gap-over-100"],
)
def test_gap_report_rejects_impossible_deltas(deltas, message):
    with pytest.raises(ContractViolation, match=message):
        verify.GapReport(3, *deltas)


# --------------------------------------------------------------- gap_report


def _recursive_unlearn_setup(seed=101, n=80, d_f=8, d_c=3, gamma=1e-3):
    rng = np.random.default_rng(seed)
    batch = rand_batch(rng, n, d_f, d_c)
    dataset = dataset_from_batch(batch, d_c)
    test_rows = dataset_from_batch(rand_batch(rng, 30, d_f, d_c, id_start=5000), d_c)
    model, tracking = joint_fit(batch, gamma)
    ledger = SampleLedger(set(batch.sample_ids.tolist()))
    forget = permuted(batch, rng.choice(n, size=20, replace=False))
    tracking = unlearn_tracking(tracking, forget)
    model = unlearn_model(model, tracking, forget)
    ledger.record_forget(forget.sample_ids)
    return model, dataset, ledger, test_rows


def test_gap_report_recursive_unlearning_is_within_1e6():
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    report = gap_report(model, dataset, ledger, test_rows, 1)
    assert report.max_delta() <= 1e-6


def test_gap_report_identical_models_all_zero():
    _, dataset, ledger, test_rows = _recursive_unlearn_setup()
    retrained = oracle_retrain(dataset, ledger, 1e-3)
    report = gap_report(retrained, dataset, ledger, test_rows, 2)
    assert report.delta_params == 0.0
    assert report.delta_retain == 0.0
    assert report.delta_forget == 0.0
    assert report.delta_test == 0.0
    assert report.delta_mia == 0.0


def test_gap_report_zero_model_against_nonzero_reference():
    _, dataset, ledger, test_rows = _recursive_unlearn_setup()
    retrained = oracle_retrain(dataset, ledger, 1e-3)
    zero = AnalyticModel(np.zeros_like(retrained.weights), 1e-3)
    report = gap_report(zero, dataset, ledger, test_rows, 3)
    assert report.delta_params == 1.0
    retained = dataset.subset_by_ids(ledger.retained_ids)
    want_retain = abs(
        accuracy_oracle(zero, retained) - accuracy_oracle(retrained, retained)
    )
    assert report.delta_retain == want_retain
    want_test = abs(
        accuracy_oracle(zero, test_rows) - accuracy_oracle(retrained, test_rows)
    )
    assert report.delta_test == want_test


def test_gap_report_empty_forgotten_sets_flag():
    rng = np.random.default_rng(103)
    batch = rand_batch(rng, 12, 4, 2)
    dataset = dataset_from_batch(batch, 2)
    ledger = SampleLedger(set(batch.sample_ids.tolist()))
    model, _ = joint_fit(batch, 0.5)
    report = gap_report(model, dataset, ledger, dataset, 0)
    assert report.no_forgotten
    assert report.delta_forget == 0.0
    assert report.delta_mia == 0.0


def test_gap_report_csv_row_shape():
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    report = gap_report(model, dataset, ledger, test_rows, 7)
    row = report.to_csv_row()
    assert row.startswith("7,")
    assert len(row.split(",")) == 6


def test_gap_report_csv_row_holds_plain_floats():
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    report = gap_report(model, dataset, ledger, test_rows, 7)
    assert all(type(d) is float for d in report.deltas)
    fields = report.to_csv_row().split(",")
    assert [float(f) for f in fields[1:]] == list(report.deltas)


def _composed_deltas(model, dataset, ledger, test_rows):
    """gap_report's deltas from the public metric functions, with the
    accuracy gaps taken from the independent accuracy oracle."""
    retrained = oracle_retrain(dataset, ledger, model.gamma)
    retained = dataset.subset_by_ids(ledger.retained_ids)
    deltas = [
        params_gap(model, retrained),
        abs(accuracy_oracle(model, retained) - accuracy_oracle(retrained, retained)),
        0.0,
        abs(accuracy_oracle(model, test_rows) - accuracy_oracle(retrained, test_rows)),
        0.0,
    ]
    if ledger.forgotten_ids:
        forgotten = dataset.subset_by_ids(ledger.forgotten_ids)
        deltas[2] = abs(
            accuracy_oracle(model, forgotten) - accuracy_oracle(retrained, forgotten)
        )
        deltas[4] = 100.0 * mia_gap(model, retrained, dataset, ledger, test_rows)
    return deltas


def _report_deltas(report):
    return [
        report.delta_params, report.delta_retain, report.delta_forget,
        report.delta_test, report.delta_mia,
    ]


def test_gap_report_equals_the_public_metrics_bit_for_bit():
    model, dataset, ledger, test_rows = _recursive_unlearn_setup(n=60, d_f=30)
    rng = np.random.default_rng(107)
    perturbed = AnalyticModel(
        model.weights + 0.5 * rng.standard_normal(model.weights.shape), model.gamma
    )
    report = gap_report(perturbed, dataset, ledger, test_rows, 4)
    assert not report.no_forgotten
    assert min(_report_deltas(report)) > 0.0
    assert _report_deltas(report) == _composed_deltas(
        perturbed, dataset, ledger, test_rows
    )


def test_gap_report_without_forgotten_rows_equals_the_public_metrics():
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    ledger = SampleLedger(ledger.learned_ids)
    report = gap_report(model, dataset, ledger, test_rows, 5)
    assert report.no_forgotten
    assert report.delta_params > 0.0
    assert _report_deltas(report) == _composed_deltas(model, dataset, ledger, test_rows)


def _ledger_case(case):
    """(perturbed model, dataset, ledger, test rows) for one ledger shape."""
    model, dataset, ledger, test_rows = _recursive_unlearn_setup(n=60, d_f=30)
    rng = np.random.default_rng(109)
    if case == "nothing-forgotten":
        ledger = SampleLedger(ledger.learned_ids)
    elif case == "one-row-retained":
        ids = sorted(ledger.learned_ids)
        ledger = SampleLedger(set(ids), set(ids[1:]))
    else:
        # rows out of id order under ids that are not 0..n-1; with
        # "unlearned-rows" the ledger learned only some of them
        order = rng.permutation(len(dataset))
        ids = 1000 + 7 * rng.permutation(len(dataset))
        dataset = EncodedDataset(
            ids, dataset.features[order], dataset.label_indices[order],
            dataset.class_count,
        )
        learned = ids[: 45 if case == "unlearned-rows" else len(ids)]
        forgotten = rng.choice(learned, size=15, replace=False)
        ledger = SampleLedger(set(learned.tolist()), set(forgotten.tolist()))
    perturbed = AnalyticModel(
        model.weights + 0.5 * rng.standard_normal(model.weights.shape), model.gamma
    )
    return perturbed, dataset, ledger, test_rows


@pytest.mark.parametrize(
    "case",
    ["nothing-forgotten", "one-row-retained", "shuffled-ids", "unlearned-rows"],
)
def test_gap_report_equals_the_public_metrics_across_ledgers(case):
    model, dataset, ledger, test_rows = _ledger_case(case)
    report = gap_report(model, dataset, ledger, test_rows, 8)
    assert report.no_forgotten == (case == "nothing-forgotten")
    assert report.delta_params > 0.0
    assert _report_deltas(report) == _composed_deltas(model, dataset, ledger, test_rows)


@pytest.mark.parametrize("forgets, gathers", [(True, 2), (False, 1)])
def test_gap_report_gathers_each_row_set_once(monkeypatch, forgets, gathers):
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    if not forgets:
        ledger = SampleLedger(ledger.learned_ids)
    calls = {"subset_by_ids": 0, "validate": 0}
    subset_by_ids = EncodedDataset.subset_by_ids
    validate = FeatureBatch.__post_init__

    def counted_subset_by_ids(self, ids):
        calls["subset_by_ids"] += 1
        return subset_by_ids(self, ids)

    def counted_validate(self):
        calls["validate"] += 1
        validate(self)

    monkeypatch.setattr(EncodedDataset, "subset_by_ids", counted_subset_by_ids)
    monkeypatch.setattr(FeatureBatch, "__post_init__", counted_validate)
    report = gap_report(model, dataset, ledger, test_rows, 6)
    assert report.no_forgotten is not forgets
    assert calls == {"subset_by_ids": gathers, "validate": 0}


@pytest.mark.parametrize("forgets", [True, False])
def test_gap_report_locates_and_scores_each_row_set_once(monkeypatch, forgets):
    """One _locate per ledger id set (retained, forgotten), one score product
    of both models per row set (retained, test, forgotten), no batch
    re-validation."""
    model, dataset, ledger, test_rows = _recursive_unlearn_setup()
    if not forgets:
        ledger = SampleLedger(ledger.learned_ids)
    calls = {"_locate": 0, "_scored": 0, "__post_init__": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(EncodedDataset, "_locate")
    counted(verify, "_scored")
    counted(FeatureBatch, "__post_init__")
    report = gap_report(model, dataset, ledger, test_rows, 6)
    assert report.no_forgotten is not forgets
    assert calls == {"_locate": 1 + forgets, "_scored": 2 + forgets, "__post_init__": 0}
