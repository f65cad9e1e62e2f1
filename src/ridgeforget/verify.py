"""Ground-truth oracle and gap metrics against the retrained reference.

The oracle refits the classifier from scratch on exactly the retained rows;
every metric here measures how far an incrementally updated model is from
that reference: normalized weight distance, accuracy gaps on the retained /
forgotten / test rows, and a membership-inference gap built from a
residual-threshold classifier.  Exact removal drives all of them to zero.

gap_report gathers the retained rows and the forgotten rows with one
subset_by_ids each, so every learned id is located once.  It refits the
oracle from the retained feature rows, never from T, W or an update's
factors, taking whole blocks of leading rows from the dataset's prefix sums
(see _oracle).  It scores each row set (retained, test, forgotten) for both
models with one product rows.features @ [W_u | W_r]: each model's argmax
accuracy and squared residuals come from its own half of the score rows.
oracle_retrain, params_gap and mia_gap share its private helpers, so each
metric has one definition; the accuracy gaps have no public function of
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AnalyticModel, _normal_sums, _ridge_solve, joint_fit
from .core import predict  # noqa: F401  kept: perfbench/tracing.py patches verify.predict
from .errors import ContractViolation, InputError
from .features import EncodedDataset

PARAMS_GAP_EPSILON = 1e-30

GAP_CSV_HEADER = "request,delta_params,delta_retain,delta_forget,delta_test,delta_mia"


def _id_set(sample_ids) -> set:
    """Python-int id set of any iterable of ints, built without a per-id
    int(); a list, tuple or array goes through one int64 array."""
    if isinstance(sample_ids, (np.ndarray, list, tuple)):
        return set(np.asarray(sample_ids, dtype=np.int64).reshape(-1).tolist())
    return set(np.fromiter(sample_ids, dtype=np.int64).tolist())


@dataclass
class SampleLedger:
    """Which sample ids have been learned and which forgotten.

    Stores ids only, never features.  Forget requests must cover only
    learned, not-yet-forgotten ids; violations are rejected before any
    mutation.
    """

    learned_ids: set = field(default_factory=set)
    forgotten_ids: set = field(default_factory=set)

    def __post_init__(self):
        self.learned_ids = _id_set(self.learned_ids)
        self.forgotten_ids = _id_set(self.forgotten_ids)
        if not self.forgotten_ids <= self.learned_ids:
            raise ContractViolation("forgotten ids must be a subset of learned ids")

    @property
    def retained_ids(self) -> frozenset:
        return frozenset(self.learned_ids - self.forgotten_ids)

    def record_learn(self, sample_ids) -> None:
        ids = _id_set(sample_ids)
        overlap = ids & self.learned_ids
        if overlap:
            raise ContractViolation(
                f"ids already learned: {sorted(overlap)[:5]}"
            )
        self.learned_ids |= ids

    def record_forget(self, sample_ids) -> None:
        ids = _id_set(sample_ids)
        never_learned = ids - self.learned_ids
        if never_learned:
            raise ContractViolation(
                f"cannot forget ids that were never learned: "
                f"{sorted(never_learned)[:5]}"
            )
        overlap = ids & self.forgotten_ids
        if overlap:
            raise ContractViolation(
                f"forget ids overlap ids already forgotten: {sorted(overlap)[:5]}"
            )
        self.forgotten_ids |= ids

    def copy(self) -> "SampleLedger":
        return SampleLedger(set(self.learned_ids), set(self.forgotten_ids))


def _ledger_rows(dataset: EncodedDataset, ledger: SampleLedger):
    """(retained rows, forgotten rows) of `dataset` in dataset order, one
    subset_by_ids each, so every learned id is located once (a set that is
    one run of rows is a view, not a copy); the forgotten rows are None when
    nothing is forgotten.  A learned id no row holds is a contract
    violation."""
    try:
        # the set difference itself: retained_ids would copy it into a frozenset
        retained = dataset.subset_by_ids(ledger.learned_ids - ledger.forgotten_ids)
        forgotten = (
            dataset.subset_by_ids(ledger.forgotten_ids) if ledger.forgotten_ids else None
        )
    except ContractViolation:
        _, unknown = dataset._locate(np.fromiter(ledger.learned_ids, dtype=np.int64))
        raise ContractViolation(
            f"ledger references ids missing from dataset: {unknown[:5].tolist()}"
        ) from None
    return retained, forgotten


def oracle_retrain(
    dataset: EncodedDataset, ledger: SampleLedger, gamma: float
) -> AnalyticModel:
    """Refit from scratch on the retained rows (learned minus forgotten).

    This is the reference the gap metrics compare against; unlike the
    recursive updates it is allowed to touch retained data.
    """
    retained, _ = _ledger_rows(dataset, ledger)
    model, _ = joint_fit(retained.to_batch(), gamma)
    return model


def _oracle(
    dataset: EncodedDataset, retained: EncodedDataset, gamma: float
) -> AnalyticModel:
    """The ridge fit on `retained`, rows of `dataset` in dataset order.  The
    longest run of leading dataset rows that are all retained takes its Gram
    and F^T Y from the dataset's prefix sums, in whole blocks; the other
    retained rows add their own SYRK and GEMM.  Every term is a retained
    row's own product and nothing is subtracted, so the oracle shares no
    cancellation with the updates it checks.  Without a whole block this is
    joint_fit's kernel sequence, bit for bit, without the inverse."""
    ids = retained.sample_ids
    differ = np.flatnonzero(ids != dataset.sample_ids[: ids.size])
    cached, prior = dataset._prefix_sums(int(differ[0]) if differ.size else ids.size)
    sums = _normal_sums(retained.features[cached:], retained.one_hots[cached:], prior)
    weights, _ = _ridge_solve(*sums, gamma)
    return AnalyticModel(weights, gamma)


def _scored(rows: EncodedDataset, unlearned: AnalyticModel, retrained: AnalyticModel):
    """[(accuracy, residual scores) of `unlearned`, the same of `retrained`]
    on `rows`, from one product rows.features @ [W_u | W_r]: each model's
    argmax (ties to the lowest class) and squared residuals ||y - f W||^2
    read its own half of every score row."""
    if len(rows) == 0:
        raise InputError("accuracy over an empty row set is undefined")
    n, d, c = len(rows), rows.feature_dim, rows.class_count
    for model in (unlearned, retrained):
        if model.weights.shape != (d, c):
            raise ContractViolation(
                f"weights must be {d} x {c} for these rows, got {model.weights.shape}"
            )
    weights = np.hstack([unlearned.weights, retrained.weights])
    scores = (rows.features @ weights).reshape(n, 2, c)
    hits = np.argmax(scores, axis=2) == rows.label_indices[:, None]
    # in place: the residual's sign does not change its square
    scores -= rows.one_hots[:, None, :]
    residuals = np.einsum("ikj,ikj->ki", scores, scores)
    # one count per model column: count_nonzero(axis=0) took 7x longer
    return [(100.0 * (int(np.count_nonzero(hits[:, k])) / n), residuals[k]) for k in (0, 1)]


def params_gap(a: AnalyticModel, b: AnalyticModel) -> float:
    """||W_a - W_b||_F / max(||W_b||_F, eps); b is the retrained reference."""
    if a.weights.shape != b.weights.shape:
        raise ContractViolation(
            f"weight shapes differ: {a.weights.shape} vs {b.weights.shape}"
        )
    norm_b = float(np.linalg.norm(b.weights))
    return float(np.linalg.norm(a.weights - b.weights)) / max(
        norm_b, PARAMS_GAP_EPSILON
    )


def fit_member_threshold(member_scores, nonmember_scores) -> float:
    """Threshold t minimizing errors of the rule `member iff score <= t`.

    Among equal-error thresholds the smallest wins, which keeps the fit
    deterministic even when the two score distributions are identical.  The
    candidates are -inf and the member scores: raising t onto a score that no
    member holds only adds errors, so such a score is never the smallest
    minimizer.
    """
    member = np.sort(np.asarray(member_scores, dtype=np.float64))
    nonmember = np.sort(np.asarray(nonmember_scores, dtype=np.float64))
    candidates = np.concatenate([[-np.inf], member])
    member_inside = np.searchsorted(member, candidates, side="right")
    nonmember_inside = np.searchsorted(nonmember, candidates, side="right")
    errors = (member.size - member_inside) + nonmember_inside
    return float(candidates[int(np.argmin(errors))])


def mia_gap(
    unlearned: AnalyticModel,
    retrained: AnalyticModel,
    dataset: EncodedDataset,
    ledger: SampleLedger,
    test_rows: EncodedDataset,
) -> float:
    """Membership-rate difference on the forgotten rows, as a fraction.

    For each model independently: fit a residual threshold separating
    retained (member) from test (non-member) rows, classify the forgotten
    rows, and record the member-rate.  Returns the absolute rate
    difference between the two models.
    """
    retained, forgotten = _ledger_rows(dataset, ledger)
    if forgotten is None:
        raise InputError("mia_gap requires a non-empty forgotten set")
    if len(retained) == 0 or len(test_rows) == 0:
        raise InputError("mia_gap requires non-empty retained and test sets")
    updated, reference = zip(
        *(_scored(rows, unlearned, retrained) for rows in (retained, test_rows, forgotten))
    )
    return _membership_gap([r for _, r in updated], [r for _, r in reference])


def _membership_gap(unlearned_residuals, retrained_residuals) -> float:
    """mia_gap from each model's (retained, test, forgotten) residual scores."""

    def member_rate(retained, test, forgotten) -> float:
        return float(np.mean(forgotten <= fit_member_threshold(retained, test)))

    return abs(member_rate(*unlearned_residuals) - member_rate(*retrained_residuals))


@dataclass(frozen=True)
class GapReport:
    """All gaps between an updated model and the retrained reference at one
    request index.  Accuracy gaps are percentage points; delta_mia is the
    membership-rate gap scaled to percentage points."""

    request_index: int
    delta_params: float
    delta_retain: float
    delta_forget: float
    delta_test: float
    delta_mia: float
    no_forgotten: bool = False

    def __post_init__(self):
        if any(d < 0 for d in self.deltas):
            raise ContractViolation("gap deltas must be non-negative")
        if any(d > 100.0 for d in (self.delta_retain, self.delta_forget, self.delta_test)):
            raise ContractViolation("accuracy gaps cannot exceed 100")

    @property
    def deltas(self) -> tuple:
        """The five gaps in GAP_CSV_HEADER's column order."""
        return (
            self.delta_params,
            self.delta_retain,
            self.delta_forget,
            self.delta_test,
            self.delta_mia,
        )

    def max_delta(self) -> float:
        return max(self.deltas)

    def to_csv_row(self) -> str:
        return ",".join([str(self.request_index)] + [repr(v) for v in self.deltas])


def gap_report(
    unlearned: AnalyticModel,
    dataset: EncodedDataset,
    ledger: SampleLedger,
    test_rows: EncodedDataset,
    request_index: int,
) -> GapReport:
    """Retrain the oracle and compute every gap metric for `unlearned`.

    Equal to composing oracle_retrain, params_gap, mia_gap and a per-row-set
    accuracy, but each row set is gathered once and scored for both models
    in one product, and the oracle (_oracle) agrees with joint_fit to
    rounding, bit for bit when no whole prefix-sum block is retained.  A
    ledger that retains no row, or an empty test set, is an InputError
    naming the cause."""
    retained, forgotten = _ledger_rows(dataset, ledger)
    if len(retained) == 0:
        raise InputError(
            f"the ledger retains none of its {len(ledger.learned_ids)} learned "
            "ids, so there is no retained row to refit the oracle on"
        )
    if len(test_rows) == 0:
        raise InputError("a gap report needs at least one test row")
    retrained = _oracle(dataset, retained, unlearned.gamma)
    delta_params = params_gap(unlearned, retrained)
    row_sets = [retained, test_rows] + ([] if forgotten is None else [forgotten])
    # (accuracy, residual scores) per row set: retained, test[, forgotten]
    updated, reference = zip(
        *(_scored(rows, unlearned, retrained) for rows in row_sets)
    )
    delta_retain, delta_test, *delta_forget = [
        abs(a - b) for (a, _), (b, _) in zip(updated, reference)
    ]
    if not delta_forget:
        return GapReport(
            request_index, delta_params, delta_retain, 0.0, delta_test, 0.0,
            no_forgotten=True,
        )
    delta_mia = 100.0 * _membership_gap(
        [r for _, r in updated], [r for _, r in reference]
    )
    return GapReport(
        request_index, delta_params, delta_retain, delta_forget[0], delta_test,
        delta_mia,
    )
