"""Shared test builders and independent oracles.

Everything here deliberately avoids the package's own linear-algebra paths:
oracles use plain np.linalg solves/inversions or straight Python loops so a
bug cannot hide on both sides of a comparison.
"""

import numpy as np

from ridgeforget import EngineState, FeatureBatch


def rand_batch(rng, n, d_f, d_c, id_start=0):
    features = rng.standard_normal((n, d_f))
    labels = np.zeros((n, d_c))
    if n > 0:
        labels[np.arange(n), rng.integers(0, d_c, n)] = 1.0
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    return FeatureBatch(features, labels, ids)


def permuted(batch, order):
    """The rows of `batch` at `order`, as a new validated batch."""
    order = np.asarray(order)
    return FeatureBatch(
        batch.features[order], batch.labels[order], batch.sample_ids[order]
    )


def stream_dims(stream):
    """(feature_dim, class_count) of the stream's first batch."""
    first = (stream.learn_requests + stream.forget_requests)[0]
    return first.feature_dim, first.class_count


def fresh_state(stream, gamma):
    """An empty EngineState with the dimensions of the stream's first batch."""
    return EngineState.fresh(*stream_dims(stream), gamma)


def batch_union(*batches):
    return FeatureBatch(
        np.concatenate([b.features for b in batches]),
        np.concatenate([b.labels for b in batches]),
        np.concatenate([b.sample_ids for b in batches]),
    )


def gram_inverse_oracle(features, gamma):
    """Dense inverse of the regularized Gram, via np.linalg.inv."""
    d = features.shape[1]
    return np.linalg.inv(features.T @ features + gamma * np.eye(d))


def solve_weights_oracle(features, labels, gamma):
    """Dense solve of (F^T F + gamma I) W = F^T Y, via np.linalg.solve."""
    d = features.shape[1]
    return np.linalg.solve(
        features.T @ features + gamma * np.eye(d), features.T @ labels
    )


def objective_oracle(weights, gamma, features, labels):
    """Straight-loop evaluation of the regularized squared error."""
    total = 0.0
    for j in range(features.shape[0]):
        row_pred = features[j] @ weights
        for c in range(labels.shape[1]):
            total += (labels[j, c] - row_pred[c]) ** 2
    penalty = 0.0
    for r in range(weights.shape[0]):
        for c in range(weights.shape[1]):
            penalty += weights[r, c] ** 2
    return total + gamma * penalty


def accuracy_oracle(model, rows):
    """Percentage of `rows` (an EncodedDataset) whose argmax score, ties to
    the lowest class index, equals the label; scored without `verify`."""
    classes = np.argmax(rows.features @ model.weights, axis=1)
    return 100.0 * float(np.mean(classes == rows.label_indices))


def residual_scores(model, rows):
    """Per-row squared residual ||y - f W||^2 of `model` on `rows` (an
    EncodedDataset), the membership score; scored without `verify`."""
    residual = rows.one_hots - rows.features @ model.weights
    return np.sum(residual * residual, axis=1)


def member_threshold_oracle(member, nonmember):
    """The smallest threshold t, among -inf and every pooled score, that
    minimizes the errors of the rule `member iff score <= t`; straight loops
    over Python lists."""
    best_threshold, best_errors = None, None
    for threshold in [-np.inf] + list(member) + list(nonmember):
        errors = sum(1 for s in member if s > threshold)
        errors += sum(1 for s in nonmember if s <= threshold)
        if (
            best_errors is None
            or errors < best_errors
            or (errors == best_errors and threshold < best_threshold)
        ):
            best_threshold, best_errors = threshold, errors
    return best_threshold


def rel_fro(actual, reference, floor=1e-30):
    return float(
        np.linalg.norm(np.asarray(actual) - np.asarray(reference))
        / max(np.linalg.norm(np.asarray(reference)), floor)
    )
