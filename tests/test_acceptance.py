"""Acceptance suite: one test per release criterion.

Each test prints a `[ACCEPTANCE] <name>: PASS/FAIL` line (run with
`pytest -s` to see them stream).  Desk-scale configuration: 4,000 learned
samples, 64 feature dims, 10 classes, 8 learn chunks, a 1,000-sample forget
pool, and 25 forget requests, verified against the retrained oracle at
every request.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from _helpers import (
    fresh_state, objective_oracle, permuted, rand_batch, rel_fro,
    solve_weights_oracle, stream_dims,
)

from ridgeforget import (
    FeatureBatch,
    FeatureExtractor,
    RequestStream,
    SyntheticSpec,
    build_stream,
    encode,
    generate_synthetic,
    joint_fit,
    learn_update,
    load_state,
    run_stream,
    save_state,
    unlearn_model,
    unlearn_tracking,
)
from ridgeforget.core import AnalyticModel, TrackingMatrix

DESK_GAMMA = 1e-3
DESK_CLASSES = 10
DESK_PER_CLASS = 400  # 4,000 learned samples
DESK_INPUT_DIM = 16
DESK_FEATURE_DIM = 64
DESK_SPREAD = 0.1
DESK_LEARN_CHUNKS = 8
DESK_FORGET_TOTAL = 1000
DESK_REQUESTS = 25
DESK_SEEDS = 20


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def desk_extractor(seed):
    derived = int(
        np.random.SeedSequence(entropy=seed, spawn_key=(9,)).generate_state(
            1, np.uint64
        )[0]
    )
    return FeatureExtractor(derived, DESK_INPUT_DIM, DESK_FEATURE_DIM)


def desk_data(seed):
    train_spec = SyntheticSpec(
        DESK_CLASSES, DESK_PER_CLASS, DESK_INPUT_DIM, DESK_SPREAD, seed
    )
    test_spec = SyntheticSpec(DESK_CLASSES, 100, DESK_INPUT_DIM, DESK_SPREAD, seed)
    extractor = desk_extractor(seed)
    train = encode(extractor, generate_synthetic(train_spec, draw=0))
    test = encode(extractor, generate_synthetic(test_spec, draw=1))
    return train, test


def desk_stream(dataset, seed, requests=DESK_REQUESTS):
    return build_stream(
        dataset, DESK_LEARN_CHUNKS, DESK_FORGET_TOTAL, requests, seed
    )


def replay_collecting_identity(stream, gamma):
    """Re-run a stream with the raw core operations, returning the largest
    max-entry residual of T (Gram_retained + gamma I) - I over every update.

    The Gram is rebuilt from scratch from the retained feature rows at each
    request, so the check does not reuse the recursion's own arithmetic.
    """
    d_f, d_c = stream_dims(stream)
    tracking = TrackingMatrix.fresh(d_f, gamma)
    model = AnalyticModel(np.zeros((d_f, d_c)), gamma)
    rows = {}
    worst = 0.0

    def residual():
        if rows:
            features = np.stack(list(rows.values()))
        else:
            features = np.zeros((0, d_f))
        gram = features.T @ features + gamma * np.eye(d_f)
        return float(np.abs(tracking.matrix @ gram - np.eye(d_f)).max())

    for batch in stream.learn_requests:
        tracking, model = learn_update(tracking, model, batch)
        rows.update(zip(batch.sample_ids.tolist(), batch.features))
        worst = max(worst, residual())
    for batch in stream.forget_requests:
        tracking = unlearn_tracking(tracking, batch)
        model = unlearn_model(model, tracking, batch)
        for sample_id in batch.sample_ids.tolist():
            del rows[sample_id]
        worst = max(worst, residual())
    return worst


@pytest.fixture(scope="module")
def desk_results():
    """20 seeded desk-scale runs with a gap report at every forget request."""
    reports = []
    start = time.perf_counter()
    for seed in range(DESK_SEEDS):
        train, test = desk_data(seed)
        stream = desk_stream(train, seed)
        record, _ = run_stream(
            stream,
            fresh_state(stream, DESK_GAMMA),
            verify_every=1,
            dataset=train,
            test_rows=test,
        )
        reports.append(record.reports())
    elapsed = time.perf_counter() - start
    return {"reports": reports, "elapsed": elapsed}


@pytest.fixture(scope="module")
def micro_results():
    """100 random micro-instances: joint fit, then 1..5 forget requests,
    each checked against an independent dense-solve oracle."""
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_identity = 0.0
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(20, 201))
        d_f = int(rng.integers(4, 17))
        d_c = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        gamma = float(10.0 ** rng.uniform(-3, 0))
        base = rand_batch(rng, n, d_f, d_c)
        model, tracking = joint_fit(base, gamma)
        forget_count = max(k, int(0.4 * n))
        picked = rng.permutation(n)[:forget_count]
        removed_mask = np.zeros(n, dtype=bool)
        for part in np.array_split(picked, k):
            batch = permuted(base, part)
            tracking = unlearn_tracking(tracking, batch)
            model = unlearn_model(model, tracking, batch)
            removed_mask[part] = True
            keep = ~removed_mask
            reference = solve_weights_oracle(
                base.features[keep], base.labels[keep], gamma
            )
            gap = float(np.linalg.norm(model.weights - reference)) / max(
                float(np.linalg.norm(reference)), 1e-30
            )
            worst_gap = max(worst_gap, gap)
            gram = (
                base.features[keep].T @ base.features[keep] + gamma * np.eye(d_f)
            )
            identity = float(np.abs(tracking.matrix @ gram - np.eye(d_f)).max())
            worst_identity = max(worst_identity, identity)
    elapsed = time.perf_counter() - start
    return {
        "worst_gap": worst_gap,
        "worst_identity": worst_identity,
        "elapsed": elapsed,
    }


def test_criterion_exactness_table_analogue(desk_results):
    with criterion("exactness: every gap delta <= 1e-6, 20 seeds, < 60 s"):
        for seed_reports in desk_results["reports"]:
            assert len(seed_reports) == DESK_REQUESTS
            for report in seed_reports:
                assert report.max_delta() <= 1e-6
        assert desk_results["elapsed"] < 60.0


def test_criterion_recursive_weights_match_oracle(micro_results):
    with criterion("weight recursion vs retraining <= 1e-8, 100 instances, < 5 s"):
        assert micro_results["worst_gap"] <= 1e-8
        assert micro_results["elapsed"] < 5.0


def test_criterion_tracking_inverse_identity(micro_results):
    with criterion("tracking-matrix inverse identity <= 1e-8 after every update"):
        assert micro_results["worst_identity"] <= 1e-8
        worst_desk = 0.0
        for seed in range(3):
            train, _ = desk_data(seed)
            stream = desk_stream(train, seed)
            worst_desk = max(
                worst_desk, replay_collecting_identity(stream, DESK_GAMMA)
            )
        assert worst_desk <= 1e-8


def test_criterion_fit_is_stationary_point():
    with criterion("finite-difference optimality <= 1e-5, 20x20, < 5 s"):
        rng = np.random.default_rng(77)
        step = 1e-5
        start = time.perf_counter()
        for _ in range(20):
            batch = rand_batch(rng, int(rng.integers(10, 60)), 8, 4)
            gamma = float(10.0 ** rng.uniform(-3, 0))
            model, _ = joint_fit(batch, gamma)
            features, labels = batch.features, batch.labels
            base = objective_oracle(model.weights, gamma, features, labels)
            for _ in range(20):
                direction = rng.standard_normal(model.weights.shape)
                direction /= np.linalg.norm(direction)
                up = objective_oracle(
                    model.weights + step * direction, gamma, features, labels
                )
                down = objective_oracle(
                    model.weights - step * direction, gamma, features, labels
                )
                derivative = (up - down) / (2 * step)
                assert abs(derivative) <= 1e-5 * (1.0 + abs(base))
        assert time.perf_counter() - start < 5.0


def test_criterion_inverse_update_identity():
    with criterion("rank-m inverse update vs dense inverse <= 1e-10, 50 cases, < 2 s"):
        rng = np.random.default_rng(55)
        start = time.perf_counter()
        dual_cases = 0
        for _ in range(50):
            d = int(rng.integers(2, 33))
            m = int(rng.integers(1, 9))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            a = q @ np.diag(rng.uniform(1.0, 2.0, d)) @ q.T
            qc, _ = np.linalg.qr(rng.standard_normal((m, m)))
            c = qc @ np.diag(rng.uniform(1.0, 2.0, m)) @ qc.T
            b = rng.standard_normal((d, m))
            # learning rows F = (B L_C)^T, C = L_C L_C^T, adds B C B^T to A
            rows = (b @ np.linalg.cholesky(c)).T
            batch = FeatureBatch(rows, np.tile([1.0, 0.0], (m, 1)), np.arange(m))
            tracking = TrackingMatrix(np.linalg.inv(a), 1.0)
            model = AnalyticModel(np.zeros((d, 2)), 1.0)
            got, _ = learn_update(tracking, model, batch)
            want = np.linalg.inv(a + b @ c @ b.T)
            assert rel_fro(got.matrix, want) <= 1e-10
            dual_cases += m >= d
        assert dual_cases >= 1  # the d x d dual form ran as well
        assert time.perf_counter() - start < 2.0


def test_criterion_round_trip_and_order_invariance():
    with criterion("learn/unlearn round trip <= 1e-9; order invariance <= 1e-8"):
        start = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            gamma = float(10.0 ** rng.uniform(-3, 0))
            base = rand_batch(rng, 40, 6, 3)
            model, tracking = joint_fit(base, gamma)

            extra = rand_batch(rng, 8, 6, 3, id_start=700)
            grown_t, grown_w = learn_update(tracking, model, extra)
            back_t = unlearn_tracking(grown_t, extra)
            back_w = unlearn_model(grown_w, back_t, extra)
            assert rel_fro(back_t.matrix, tracking.matrix) <= 1e-9
            assert rel_fro(back_w.weights, model.weights) <= 1e-9

            parts = np.array_split(rng.permutation(40)[:24], 4)
            batches = [permuted(base, part) for part in parts]
            finals = []
            for order in (range(4), rng.permutation(4)):
                t, w = tracking, model
                for k in order:
                    t = unlearn_tracking(t, batches[k])
                    w = unlearn_model(w, t, batches[k])
                finals.append(w.weights)
            assert rel_fro(finals[0], finals[1]) <= 1e-8
        assert time.perf_counter() - start < 10.0


def _mean_forget_seconds(size):
    """Mean wall time of a 100-row forget request at retained size `size`,
    d = 64, over 20 requests after one untimed request that pays cold
    caches.  Every request removes a fresh sample from the same fitted
    state, so the retained size is exactly `size` each time; labels come
    from two classes.  Only the two update calls are timed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=13, spawn_key=(size,)))
    features = rng.standard_normal((size, 64))
    labels = np.zeros((size, 2))
    labels[np.arange(size), rng.integers(0, 2, size)] = 1.0
    batch = FeatureBatch(features, labels, np.arange(size, dtype=np.int64))
    model, tracking = joint_fit(batch, DESK_GAMMA)
    times = []
    for _ in range(1 + 20):
        picked = rng.choice(size, size=100, replace=False)
        forget = FeatureBatch(features[picked], labels[picked], picked)
        start = time.perf_counter()
        unlearn_model(model, unlearn_tracking(tracking, forget), forget)
        times.append(time.perf_counter() - start)
    return float(np.mean(times[1:]))


def test_criterion_cost_is_independent_of_retained_size():
    with criterion("per-request time ratio N=1k vs N=10k within [0.5, 2.0]"):
        small, large = (_mean_forget_seconds(size) for size in (1000, 10_000))
        ratio = large / small
        assert 0.5 <= ratio <= 2.0, f"ratio {ratio:.3f}"


def test_criterion_request_count_robustness():
    with criterion("50-request forget time <= 2.5x the 25-request time"):
        train, _ = desk_data(3)
        stream25 = desk_stream(train, 3, requests=25)
        stream50 = desk_stream(train, 3, requests=50)
        run_stream(stream25, fresh_state(stream25, DESK_GAMMA))  # warm-up
        times = {}
        for key, stream in (("k25", stream25), ("k50", stream50)):
            samples = []
            for _ in range(3):
                record, _ = run_stream(stream, fresh_state(stream, DESK_GAMMA))
                samples.append(sum(
                    r.wall_time_seconds for r in record.per_request
                    if r.kind == "forget"
                ))
            times[key] = float(np.mean(samples))
        assert times["k50"] <= 2.5 * times["k25"], times


def test_criterion_resumability_is_bit_exact(tmp_path):
    with criterion("split-run final weights bit-identical to straight run, 10 seeds"):
        from test_harness import make_dataset

        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            dataset = make_dataset(rng, 80, 6, 3)
            stream = build_stream(dataset, 4, 30, 6, seed=seed)
            _, straight = run_stream(stream, fresh_state(stream, DESK_GAMMA))

            first = RequestStream(stream.learn_requests, stream.forget_requests[:3])
            second = RequestStream((), stream.forget_requests[3:])
            _, half = run_stream(first, fresh_state(first, DESK_GAMMA))
            path = tmp_path / f"resume-{seed}.state"
            save_state(half, path)
            _, final = run_stream(second, load_state(path))
            assert np.array_equal(final.model.weights, straight.model.weights)
            assert np.array_equal(
                final.tracking.matrix, straight.tracking.matrix
            )
