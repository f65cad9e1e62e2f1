"""Ground-truth oracle and gap metrics against the retrained reference.

The oracle refits the classifier from scratch on exactly the retained rows;
every metric here measures how far an incrementally updated model is from
that reference: normalized weight distance, accuracy gaps on the retained /
forgotten / test rows, and a membership-inference gap built from a
residual-threshold classifier.  Exact removal drives all of them to zero.

gap_report gathers the retained rows and the forgotten rows once each, refits
the oracle from the gathered feature rows (never from T or the updated
model), and takes both the accuracy and the residual scores of each (model,
rows) pair from one score product.  oracle_retrain, params_gap and mia_gap
share its private helpers, so each metric has one definition; the accuracy
gaps have no public function of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import AnalyticModel, joint_fit, predict
from .errors import ContractViolation, InputError
from .features import EncodedDataset

PARAMS_GAP_EPSILON = 1e-30

GAP_CSV_HEADER = "request,delta_params,delta_retain,delta_forget,delta_test,delta_mia"


def _id_set(sample_ids) -> set:
    """Python-int id set of a list or array, built without a per-id int()."""
    return set(np.asarray(sample_ids, dtype=np.int64).reshape(-1).tolist())


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
        self.learned_ids = set(int(i) for i in self.learned_ids)
        self.forgotten_ids = set(int(i) for i in self.forgotten_ids)
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


def _retained_rows(dataset: EncodedDataset, ledger: SampleLedger) -> EncodedDataset:
    """The retained rows in dataset order, once every learned id is known."""
    _, unknown = dataset._locate(np.fromiter(ledger.learned_ids, dtype=np.int64))
    if unknown.size:
        raise ContractViolation(
            f"ledger references ids missing from dataset: {unknown[:5].tolist()}"
        )
    return dataset.subset_by_ids(ledger.retained_ids)


def oracle_retrain(
    dataset: EncodedDataset, ledger: SampleLedger, gamma: float
) -> AnalyticModel:
    """Refit from scratch on the retained rows (learned minus forgotten).

    This is the reference the gap metrics compare against; unlike the
    recursive updates it is allowed to touch retained data.
    """
    model, _ = joint_fit(_retained_rows(dataset, ledger).to_batch(), gamma)
    return model


def _residuals(rows: EncodedDataset, scores: np.ndarray) -> np.ndarray:
    residual = rows.one_hots - scores
    return np.sum(residual * residual, axis=1)


def _scored(model: AnalyticModel, rows: EncodedDataset):
    """(accuracy, residual scores) of `model` on `rows`, from one product."""
    if len(rows) == 0:
        raise InputError("accuracy over an empty row set is undefined")
    scores, classes = predict(model, rows.features)
    hit_rate = float(np.mean(classes == rows.label_indices))
    return 100.0 * hit_rate, _residuals(rows, scores)


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


def residual_scores(model: AnalyticModel, rows: EncodedDataset) -> np.ndarray:
    """Per-sample squared residual ||y - f W||^2, the membership score."""
    return _residuals(rows, rows.features @ model.weights)


def fit_member_threshold(member_scores, nonmember_scores) -> float:
    """Threshold t minimizing errors of the rule `member iff score <= t`.

    Candidates are -inf plus every observed score; among equal-error
    candidates the smallest wins, which keeps the fit deterministic even
    when the two score distributions are identical.
    """
    member = np.sort(np.asarray(member_scores, dtype=np.float64))
    nonmember = np.sort(np.asarray(nonmember_scores, dtype=np.float64))
    pooled = np.unique(np.concatenate([member, nonmember]))
    candidates = np.concatenate([[-np.inf], pooled])
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
    forgotten = dataset.subset_by_ids(ledger.forgotten_ids)
    retained = dataset.subset_by_ids(ledger.retained_ids)
    if len(forgotten) == 0:
        raise InputError("mia_gap requires a non-empty forgotten set")
    if len(retained) == 0 or len(test_rows) == 0:
        raise InputError("mia_gap requires non-empty retained and test sets")
    row_sets = (retained, test_rows, forgotten)
    return _membership_gap(
        [residual_scores(unlearned, rows) for rows in row_sets],
        [residual_scores(retrained, rows) for rows in row_sets],
    )


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
    accuracy, but each row set is gathered once and scored once per model."""
    retained = _retained_rows(dataset, ledger)
    retrained, _ = joint_fit(retained.to_batch(), unlearned.gamma)
    delta_params = params_gap(unlearned, retrained)
    row_sets = [retained, test_rows]
    if ledger.forgotten_ids:
        row_sets.append(dataset.subset_by_ids(ledger.forgotten_ids))
    # (accuracy, residual scores) per row set: retained, test[, forgotten]
    updated = [_scored(unlearned, rows) for rows in row_sets]
    reference = [_scored(retrained, rows) for rows in row_sets]
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
