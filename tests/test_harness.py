import tracemalloc

import numpy as np
import pytest
from _helpers import (
    batch_union, fresh_state, permuted, rand_batch, rel_fro, solve_weights_oracle,
)

from ridgeforget import (
    AnalyticModel,
    ContractViolation,
    EncodedDataset,
    EngineState,
    FeatureBatch,
    InputError,
    RequestStream,
    RunAbortedError,
    SampleLedger,
    TrackingMatrix,
    build_forget_stream,
    build_stream,
    joint_fit,
    learn_update,
    run_stream,
    unlearn_model,
    unlearn_tracking,
)
from ridgeforget import harness, verify
from ridgeforget.core import MAX_FEATURE_DIM
from ridgeforget.features import MAX_CLASSES


def make_dataset(rng, n, d_f, d_c, id_start=0):
    return EncodedDataset(
        np.arange(id_start, id_start + n),
        rng.standard_normal((n, d_f)),
        rng.integers(0, d_c, n),
        d_c,
    )


def stream_fingerprint(stream):
    return tuple(
        (kind, tuple(batch.sample_ids.tolist()))
        for kind, batches in (
            ("learn", stream.learn_requests),
            ("forget", stream.forget_requests),
        )
        for batch in batches
    )


# ------------------------------------------------------------- build_stream


def test_single_forget_request_covers_everything():
    dataset = make_dataset(np.random.default_rng(0), 20, 4, 2)
    stream = build_stream(dataset, 2, 20, 1, seed=5)
    assert len(stream.forget_requests) == 1
    assert set(stream.forget_requests[0].sample_ids.tolist()) == set(
        dataset.sample_ids.tolist()
    )


def test_five_requests_over_ten_thousand_ids():
    dataset = make_dataset(np.random.default_rng(1), 10_000, 3, 4)
    stream = build_stream(dataset, 4, 10_000, 5, seed=9)
    sizes = [len(b) for b in stream.forget_requests]
    assert sizes == [2000] * 5
    all_ids = [i for b in stream.forget_requests for i in b.sample_ids.tolist()]
    assert len(all_ids) == 10_000
    assert len(set(all_ids)) == 10_000


def test_build_stream_is_deterministic_under_seed():
    dataset = make_dataset(np.random.default_rng(2), 50, 4, 3)
    a = build_stream(dataset, 3, 20, 4, seed=77)
    b = build_stream(dataset, 3, 20, 4, seed=77)
    c = build_stream(dataset, 3, 20, 4, seed=78)
    assert stream_fingerprint(a) == stream_fingerprint(b)
    assert stream_fingerprint(a) != stream_fingerprint(c)


def test_remainder_goes_to_earliest_requests():
    dataset = make_dataset(np.random.default_rng(3), 30, 3, 2)
    stream = build_stream(dataset, 4, 10, 3, seed=0)
    assert [len(b) for b in stream.forget_requests] == [4, 3, 3]
    assert [len(b) for b in stream.learn_requests] == [8, 8, 7, 7]


def test_forget_total_larger_than_dataset_rejected():
    dataset = make_dataset(np.random.default_rng(4), 10, 3, 2)
    with pytest.raises(InputError):
        build_stream(dataset, 2, 11, 2, seed=0)


def test_more_forget_requests_than_forget_rows_rejected():
    dataset = make_dataset(np.random.default_rng(4), 10, 3, 2)
    with pytest.raises(InputError, match="forget_requests 4 exceeds forget_total 3"):
        build_stream(dataset, 2, 3, 4, seed=0)
    with pytest.raises(InputError, match="forget_requests 4 exceeds forget_total 3"):
        build_forget_stream(dataset, set(dataset.sample_ids.tolist()), 3, 4, seed=0)


def test_more_learn_chunks_than_rows_rejected():
    dataset = make_dataset(np.random.default_rng(4), 10, 3, 2)
    stream = build_stream(dataset, 10, 0, 1, seed=0)
    assert [len(b) for b in stream.learn_requests] == [1] * 10
    with pytest.raises(InputError, match=r"learn_chunks must lie in \[1, 10\]"):
        build_stream(dataset, 11, 0, 1, seed=0)


def test_zero_forget_total_makes_no_forget_requests():
    dataset = make_dataset(np.random.default_rng(5), 10, 3, 2)
    stream = build_stream(dataset, 2, 0, 25, seed=0)
    assert stream.forget_requests == ()
    assert sum(len(b) for b in stream.learn_requests) == 10
    eligible = set(dataset.sample_ids.tolist())
    assert build_forget_stream(dataset, eligible, 0, 25, seed=0).forget_requests == ()


# --------------------------------------------------------------- run_stream


def test_empty_stream_yields_fresh_state():
    record, state = run_stream(RequestStream((), ()), EngineState.fresh(3, 2, 0.5))
    assert record.per_request == []
    assert np.array_equal(state.model.weights, np.zeros((3, 2)))
    assert np.array_equal(state.tracking.matrix, np.eye(3) * 2.0)


def test_learn_only_stream_matches_joint_fit():
    rng = np.random.default_rng(11)
    batches = [rand_batch(rng, 15, 5, 3, id_start=100 * k) for k in range(3)]
    stream = RequestStream(tuple(batches), ())
    record, state = run_stream(stream, fresh_state(stream, 0.3))
    want_model, want_tracking = joint_fit(batch_union(*batches), 0.3)
    assert rel_fro(state.model.weights, want_model.weights) <= 1e-9
    assert rel_fro(state.tracking.matrix, want_tracking.matrix) <= 1e-9
    assert len(record.per_request) == 3


def test_full_stream_with_verification_every_request():
    rng = np.random.default_rng(13)
    dataset = make_dataset(rng, 120, 8, 3)
    test_rows = make_dataset(rng, 40, 8, 3, id_start=10_000)
    stream = build_stream(dataset, 4, 40, 5, seed=3)
    record, state = run_stream(
        stream,
        fresh_state(stream, 1e-3),
        verify_every=1,
        dataset=dataset,
        test_rows=test_rows,
    )
    reports = record.reports()
    assert len(reports) == 5
    assert all(r.max_delta() <= 1e-6 for r in reports)
    assert state.ledger.retained_ids == frozenset(
        set(dataset.sample_ids.tolist())
        - {i for b in stream.forget_requests for i in b.sample_ids.tolist()}
    )


def test_harness_adds_no_mathematical_behavior():
    rng = np.random.default_rng(17)
    dataset = make_dataset(rng, 60, 6, 3)
    stream = build_stream(dataset, 3, 18, 3, seed=21)
    _, state = run_stream(stream, fresh_state(stream, 0.05))

    manual_state = EngineState.fresh(6, 3, 0.05)
    tracking, model = manual_state.tracking, manual_state.model
    for batch in stream.learn_requests:
        tracking, model = learn_update(tracking, model, batch)
    for batch in stream.forget_requests:
        tracking = unlearn_tracking(tracking, batch)
        model = unlearn_model(model, tracking, batch)
    assert np.array_equal(state.model.weights, model.weights)
    assert np.array_equal(state.tracking.matrix, tracking.matrix)


def test_cumulative_time_is_sum_of_wall_times():
    rng = np.random.default_rng(19)
    dataset = make_dataset(rng, 40, 5, 2)
    stream = build_stream(dataset, 2, 10, 2, seed=1)
    record, _ = run_stream(stream, fresh_state(stream, 0.2))
    walls = [r.wall_time_seconds for r in record.per_request]
    assert all(w >= 0 for w in walls)
    assert record.cumulative_time_seconds == pytest.approx(sum(walls), abs=1e-12)
    running = 0.0
    for wall in walls:
        assert running <= running + wall
        running += wall


def test_stream_invariants_enforced_before_execution():
    rng = np.random.default_rng(23)
    learned = rand_batch(rng, 6, 4, 2)
    alien = rand_batch(rng, 2, 4, 2, id_start=999)
    stream = RequestStream((learned,), (alien,))
    state = EngineState.fresh(4, 2, 1.0)
    with pytest.raises(ContractViolation, match="never learned"):
        run_stream(stream, state)
    # nothing ran: the learn batch was never recorded either
    assert state.ledger.learned_ids == set()


def test_stream_dims_must_match_the_state():
    rng = np.random.default_rng(41)
    stream = RequestStream((rand_batch(rng, 6, 4, 2),), ())
    state = EngineState.fresh(3, 2, 1.0)
    with pytest.raises(ContractViolation, match="batch feature dim 4 does not match 3"):
        run_stream(stream, state)
    assert state.ledger.learned_ids == set()
    # every batch's dimensions are checked before any id is replayed, so a
    # wide batch is reported even after a forget batch that was never learned
    learned = rand_batch(rng, 6, 3, 2)
    alien = rand_batch(rng, 2, 3, 2, id_start=999)
    wide = rand_batch(rng, 2, 4, 2, id_start=50)
    for stream in (RequestStream((learned, wide), (alien,)),
                   RequestStream((learned,), (alien, wide))):
        with pytest.raises(ContractViolation, match="batch feature dim 4 does not match 3"):
            run_stream(stream, state)
    assert state.ledger.learned_ids == set()
    # validate returns the retained-row count after each forget request,
    # counting a resumed state's ledger, and leaves that ledger as it was
    stream = RequestStream((learned,), (permuted(learned, [0, 1]), permuted(learned, [2])))
    assert stream.validate(state) == [4, 3]
    resumed = EngineState(state.model, state.tracking, SampleLedger(set(range(6)), {5}))
    assert RequestStream((), (permuted(learned, [0, 1]),)).validate(resumed) == [3]
    assert resumed.ledger.forgotten_ids == {5}


def test_overlapping_forget_requests_rejected():
    rng = np.random.default_rng(29)
    batch = rand_batch(rng, 8, 4, 2)
    half = permuted(batch, np.arange(4))
    stream = RequestStream((batch,), (half, half))
    with pytest.raises(ContractViolation, match="overlap"):
        run_stream(stream, fresh_state(stream, 1.0))


def test_resumed_stream_cannot_reforget_before_any_request_runs():
    rng = np.random.default_rng(37)
    batch = rand_batch(rng, 8, 4, 2)
    first = RequestStream((batch,), (permuted(batch, [0, 1]),))
    _, state = run_stream(first, fresh_state(first, 1.0))
    # the second batch re-forgets id 0, which the resumed state already forgot
    stream = RequestStream((), (permuted(batch, [2, 3]), permuted(batch, [0, 4])))
    tracking, model = state.tracking, state.model
    with pytest.raises(ContractViolation, match="already forgotten"):
        run_stream(stream, state)
    assert state.ledger.learned_ids == set(range(8))
    assert state.ledger.forgotten_ids == {0, 1}
    assert state.tracking is tracking and state.model is model


def test_aborted_run_leaves_state_at_last_completed_request():
    learn = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    # same id, rescaled features: passes id validation, breaks the math
    poisoned = FeatureBatch([[np.sqrt(2.0), 0.0]], [[1.0, 0.0]], [0])
    empty = rand_batch(np.random.default_rng(0), 0, 2, 2)
    stream = RequestStream((learn,), (empty, poisoned))
    state = EngineState.fresh(2, 2, 1.0)
    with pytest.raises(RunAbortedError) as excinfo:
        run_stream(stream, state)
    assert excinfo.value.kind == "forget"
    assert excinfo.value.request_index == 2
    assert state.ledger.learned_ids == {0}
    assert state.ledger.forgotten_ids == set()
    # state is still the post-learn fit
    want_model, want_tracking = joint_fit(learn, 1.0)
    assert rel_fro(state.model.weights, want_model.weights) <= 1e-12
    assert rel_fro(state.tracking.matrix, want_tracking.matrix) <= 1e-12


@pytest.mark.parametrize(
    "tracking, message",
    [(TrackingMatrix.fresh(3, 0.5), "gamma"), (TrackingMatrix.fresh(4, 1.0), "dim")],
    ids=["gamma", "feature-dim"],
)
def test_engine_state_rejects_mismatched_pair(tracking, message):
    model = AnalyticModel(np.zeros((3, 2)), 1.0)
    with pytest.raises(ContractViolation, match=message):
        EngineState(model, tracking, SampleLedger())


@pytest.mark.parametrize(
    "feature_dim, class_count, gamma, message",
    [(MAX_FEATURE_DIM + 1, 10, 1.0, "feature_dim must lie in"),
     (2_000_000, 10, 1.0, "feature_dim must lie in"),
     (2.5, 3, 1.0, "feature_dim must lie in"),
     (64, 0, 1.0, "class_count must lie in"),
     (64, MAX_CLASSES + 1, 1.0, "class_count must lie in"),
     (64, 10**12, 1.0, "class_count must lie in"),
     (64, 2.5, 1.0, "class_count must lie in"),
     (64, 3, float("inf"), "gamma must be finite")],
    ids=["feature-dim-over-bound", "feature-dim-huge", "feature-dim-float",
         "class-count-zero", "class-count-over-bound", "class-count-huge",
         "class-count-float", "gamma-infinite"],
)
def test_fresh_state_checks_before_allocating(feature_dim, class_count, gamma, message):
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match=message):
            EngineState.fresh(feature_dim, class_count, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # W alone would be 160 MiB at d = 2,000,000 and 32 MiB at c = MAX_CLASSES + 1
    assert peak < 1 << 20


def test_verification_needs_dataset_and_test_rows():
    with pytest.raises(InputError):
        run_stream(RequestStream((), ()), EngineState.fresh(2, 2, 1.0), verify_every=1)


@pytest.mark.parametrize(
    "forget_total, test_count, resumed, message",
    [(12, 5, False, "forget request 3 would leave no retained row"),
     (6, 0, False, "verification requires at least one test row"),
     (4, 5, True, "forget request 2 would leave no retained row")],
    ids=["all-rows-forgotten", "empty-test-rows", "resumed-ledger"],
)
def test_unverifiable_stream_rejected_before_any_request(
    forget_total, test_count, resumed, message
):
    rng = np.random.default_rng(41)
    dataset = make_dataset(rng, 12, 4, 3)
    test_rows = make_dataset(rng, test_count, 4, 3, id_start=100)
    state = EngineState.fresh(4, 3, 1.0)
    if resumed:  # 8 of the 12 rows already forgotten
        _, state = run_stream(build_stream(dataset, 2, 8, 2, seed=3), state)
        stream = build_forget_stream(
            dataset, state.ledger.retained_ids, forget_total, 2, seed=4
        )
    else:
        stream = build_stream(dataset, 2, forget_total, 3, seed=3)
    model, ledger = state.model, state.ledger.copy()
    with pytest.raises(InputError, match=message):
        run_stream(stream, state, verify_every=1, dataset=dataset, test_rows=test_rows)
    assert state.model is model
    assert state.ledger.learned_ids == ledger.learned_ids
    assert state.ledger.forgotten_ids == ledger.forgotten_ids


def test_unverifiable_request_is_named_by_its_index_among_forgets():
    dataset = make_dataset(np.random.default_rng(43), 12, 4, 3)
    stream = build_stream(dataset, 2, 12, 4, seed=3)
    # requests 2 and 4 are verified; request 4 empties the ledger
    with pytest.raises(InputError, match="forget request 4 would leave no retained row"):
        run_stream(stream, EngineState.fresh(4, 3, 1.0), verify_every=2,
                   dataset=dataset, test_rows=dataset)


def test_unverified_request_may_forget_every_row():
    dataset = make_dataset(np.random.default_rng(43), 12, 4, 3)
    stream = build_stream(dataset, 2, 12, 3, seed=3)
    # requests 1 and 2 are verified; request 3, which empties the ledger, is not
    record, state = run_stream(
        stream, EngineState.fresh(4, 3, 1.0), verify_every=2,
        dataset=dataset, test_rows=dataset,
    )
    assert [r.report is not None for r in record.per_request[2:]] == [
        False, True, False
    ]
    assert state.ledger.retained_ids == frozenset()


@pytest.mark.parametrize(
    "forget_total, requests, verify_every",
    [(0, 1, 1), (6, 3, 4)],
    ids=["no-forget-requests", "verify-every-beyond-the-requests"],
)
def test_no_verified_request_needs_no_test_rows(forget_total, requests, verify_every):
    rng = np.random.default_rng(47)
    dataset = make_dataset(rng, 12, 4, 3)
    stream = build_stream(dataset, 2, forget_total, requests, seed=3)
    record, state = run_stream(
        stream, EngineState.fresh(4, 3, 1.0), verify_every=verify_every,
        dataset=dataset, test_rows=make_dataset(rng, 0, 4, 3, id_start=100),
    )
    assert len(record.per_request) == 2 + len(stream.forget_requests)
    assert all(r.report is None for r in record.per_request)
    assert len(state.ledger.retained_ids) == 12 - forget_total


def test_build_forget_stream_draws_from_eligible_ids_only():
    dataset = make_dataset(np.random.default_rng(31), 30, 4, 2)
    eligible = set(dataset.sample_ids[:12].tolist())
    stream = build_forget_stream(dataset, eligible, 8, 2, seed=4)
    drawn = {i for b in stream.forget_requests for i in b.sample_ids.tolist()}
    assert drawn <= eligible
    assert len(drawn) == 8


# ------------------------------------------------- verified runs' row layout

def _state_arrays(state):
    return (state.model.weights.copy(), state.tracking.matrix.copy(),
            set(state.ledger.learned_ids), set(state.ledger.forgotten_ids))


def _assert_state_is(state, arrays):
    weights, tracking, learned, forgotten = arrays
    assert np.array_equal(state.model.weights, weights)
    assert np.array_equal(state.tracking.matrix, tracking)
    assert state.ledger.learned_ids == learned
    assert state.ledger.forgotten_ids == forgotten


@pytest.mark.parametrize("resumed", [False, True], ids=["stream-id", "ledger-id"])
def test_verified_run_without_a_row_fails_before_any_request(resumed):
    rng = np.random.default_rng(59)
    dataset = make_dataset(rng, 40, 4, 3)
    test_rows = make_dataset(rng, 10, 4, 3, id_start=100)
    state = EngineState.fresh(4, 3, 1.0)
    if resumed:
        _, state = run_stream(build_stream(dataset, 2, 5, 1, seed=3), state)
        # id 0 was learned but this stream does not touch it
        stream = build_forget_stream(
            dataset, state.ledger.retained_ids - {0}, 5, 1, seed=4
        )
    else:
        stream = build_stream(dataset, 2, 5, 1, seed=3)
    lacking = dataset.subset_by_ids(set(dataset.sample_ids.tolist()) - {0})
    before = _state_arrays(state)
    with pytest.raises(
        ContractViolation, match=r"^ledger references ids missing from dataset: \[0\]$"
    ):
        run_stream(stream, state, verify_every=1, dataset=lacking, test_rows=test_rows)
    _assert_state_is(state, before)


def _dataset_arrays(dataset):
    return [getattr(dataset, name).copy() for name in
            ("sample_ids", "features", "label_indices", "one_hots")]


def test_verified_oracle_matches_a_dense_solve_across_blocks(monkeypatch):
    """A run and a resumed run over enough rows for several prefix-sum
    blocks (b = 256 at d = 16), where some rows are never learned: at every
    verified request the oracle equals a dense solve on the ledger's
    retained rows, and every delta but the parameter gap equals that of a
    one-off gap report of the same state on the caller's dataset."""
    rng = np.random.default_rng(61)
    dataset = make_dataset(rng, 1500, 16, 4)
    test_rows = make_dataset(rng, 200, 16, 4, id_start=10_000)
    never = set(rng.choice(dataset.sample_ids, size=150, replace=False).tolist())
    learned = dataset.subset_by_ids(set(dataset.sample_ids.tolist()) - never)
    calls = {"prefix_rows": [], "reports": 0}

    prefix_sums = EncodedDataset._prefix_sums

    def recorded_prefix_sums(self, rows):
        cached, sums = prefix_sums(self, rows)
        calls["prefix_rows"].append(cached)
        return cached, sums

    def checked_oracle(layout, retained, gamma):
        model = oracle(layout, retained, gamma)
        want = solve_weights_oracle(retained.features, retained.one_hots, gamma)
        assert rel_fro(model.weights, want) <= 1e-10
        return model

    def checked_report(model, layout, ledger, test, index):
        report = gap_report(model, layout, ledger, test, index)
        retained = set(ledger.learned_ids - ledger.forgotten_ids)
        assert set(layout.sample_ids[: len(retained)].tolist()) == retained
        one_off = gap_report(model, dataset, ledger.copy(), test, index)
        assert report.deltas[1:] == one_off.deltas[1:]
        assert abs(report.delta_params - one_off.delta_params) <= 1e-10
        assert report.max_delta() <= 1e-8
        calls["reports"] += 1
        return report

    oracle, gap_report = verify._oracle, harness.gap_report
    monkeypatch.setattr(EncodedDataset, "_prefix_sums", recorded_prefix_sums)
    monkeypatch.setattr(verify, "_oracle", checked_oracle)
    monkeypatch.setattr(harness, "gap_report", checked_report)
    original = _dataset_arrays(dataset)
    _, state = run_stream(
        build_stream(learned, 3, 300, 6, seed=5), EngineState.fresh(16, 4, 1e-3),
        verify_every=1, dataset=dataset, test_rows=test_rows,
    )
    stream = build_forget_stream(dataset, state.ledger.retained_ids, 200, 4, seed=6)
    run_stream(stream, state, verify_every=1, dataset=dataset, test_rows=test_rows)
    assert calls["reports"] == 10
    # each run's reports used whole cached blocks; the one-off reports on the
    # caller's dataset, in id order with scattered forgets, used none
    assert sorted(set(calls["prefix_rows"]))[-1] >= 3 * 256
    assert all(n % 256 == 0 for n in calls["prefix_rows"])
    for got, want in zip(_dataset_arrays(dataset), original):
        assert np.array_equal(got, want)
    assert "_prefix_cache" not in vars(dataset)
