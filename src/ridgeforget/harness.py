"""Request-stream driver: learn phases, forget phases, timing, verification.

The caller owns the EngineState: a new run starts from EngineState.fresh
(W = 0, T = (gamma I)^(-1)), a resumed one from load_state, and run_stream
advances that one state in place.  Every walk over a stream (validation,
id replay, execution) goes through RequestStream._requests, which yields
the learn batches in order, then the forget batches in order; run_stream
runs them in one loop, timing only the update calls (verification is
oracle overhead and is excluded).  A verified run first copies its dataset
in retention order (_retention_order): after every forget request the
retained rows are then a prefix, which the gap report gathers as views and
whose Gram it takes mostly from the copy's prefix sums.  The harness adds
no mathematics of its own: every request is exactly one tracking update
plus one weight update from the core module, looked up as this module's
globals at call time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_GAMMA,
    AnalyticModel,
    TrackingMatrix,
    _check_batch_dims,
    _check_class_count,
    _check_feature_dim,
    _check_pair,
    _check_seed,
    _set_fields,
    learn_update,
    unlearn_model,
    unlearn_tracking,
)
from .errors import (
    ContractViolation,
    InputError,
    RidgeForgetError,
    RunAbortedError,
)
from .features import EncodedDataset, FeatureExtractor
from .verify import GapReport, SampleLedger, gap_report


@dataclass(frozen=True)
class RequestStream:
    """Ordered learn batches followed by ordered forget batches.  validate
    checks each batch's dimensions against a state, through core's
    _check_batch_dims, before any request runs."""

    learn_requests: tuple
    forget_requests: tuple

    def __post_init__(self):
        _set_fields(self, learn_requests=tuple(self.learn_requests),
                    forget_requests=tuple(self.forget_requests))

    def _requests(self):
        """(kind, 1-based index within its kind, batch) in execution order."""
        for kind, batches in (("learn", self.learn_requests),
                              ("forget", self.forget_requests)):
            for index, batch in enumerate(batches, start=1):
                yield kind, index, batch

    def validate(self, state: EngineState) -> list:
        """Enforce stream invariants before any request executes: every
        batch has the state's dimensions, and the ids are replayed on a copy
        of the state's ledger, so a resumed state's learned and forgotten
        ids count too.  Returns the retained-row count after each forget
        request, in order, read off the replayed ledger."""
        for _, _, batch in self._requests():
            _check_batch_dims(batch, state.model.feature_dim, state.model.class_count)
        replay = state.ledger.copy()
        retained = []
        for kind, _, batch in self._requests():
            getattr(replay, f"record_{kind}")(batch.sample_ids)
            if kind == "forget":
                retained.append(len(replay.learned_ids) - len(replay.forgotten_ids))
        return retained


@dataclass(frozen=True)
class RequestRecord:
    kind: str  # "learn" | "forget"
    request_index: int  # 1-based within its kind
    batch_size: int
    wall_time_seconds: float
    report: GapReport | None = None


@dataclass
class RunRecord:
    per_request: list = field(default_factory=list)

    @property
    def cumulative_time_seconds(self) -> float:
        return sum(r.wall_time_seconds for r in self.per_request)

    def reports(self):
        return [r.report for r in self.per_request if r.report is not None]


@dataclass
class EngineState:
    """Everything a run needs to continue: model, tracking matrix, ledger,
    and the extractor recipe (if features come from raw inputs)."""

    model: AnalyticModel
    tracking: TrackingMatrix
    ledger: SampleLedger
    extractor: FeatureExtractor | None = None

    def __post_init__(self):
        _check_pair(self.tracking, self.model)
        _check_feature_dim(self.model.feature_dim)
        _check_class_count(self.model.class_count)
        if self.extractor is not None and self.extractor.feature_dim != self.model.feature_dim:
            raise ContractViolation(
                f"extractor feature dim {self.extractor.feature_dim} does not match "
                f"model dim {self.model.feature_dim}"
            )

    @property
    def gamma(self) -> float:
        return self.model.gamma

    @classmethod
    def fresh(
        cls,
        feature_dim: int,
        class_count: int,
        gamma: float = DEFAULT_GAMMA,
        extractor: FeatureExtractor | None = None,
    ) -> "EngineState":
        """W = 0 and T = (gamma I)^(-1).  class_count is checked here, and
        feature_dim and gamma by TrackingMatrix.fresh, before T or W is
        allocated."""
        class_count = _check_class_count(class_count)
        tracking = TrackingMatrix.fresh(feature_dim, gamma)
        model = AnalyticModel(np.zeros((tracking.feature_dim, class_count)), tracking.gamma)
        return cls(model, tracking, SampleLedger(), extractor)


def _forget_batches(
    dataset: EncodedDataset, forget_total: int, forget_requests: int, seed: int
) -> tuple:
    """Sample a forget pool of `forget_total` rows of `dataset` under `seed`
    and split it, in draw order, into `forget_requests` disjoint non-empty
    batches; a forget_total of 0 makes no batch.  Both stream builders check
    their seed here, before drawing anything."""
    seed = _check_seed(seed)
    if forget_requests < 1:
        raise InputError(f"forget_requests must be >= 1, got {forget_requests}")
    if forget_total < 0 or forget_total > len(dataset):
        raise InputError(
            f"forget_total must lie in [0, {len(dataset)}], got {forget_total}"
        )
    if forget_total == 0:
        return ()
    if forget_requests > forget_total:
        raise InputError(
            f"forget_requests {forget_requests} exceeds forget_total {forget_total}, "
            "which would make empty requests"
        )
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    pool = rng.choice(len(dataset), size=forget_total, replace=False)
    return tuple(
        dataset.subset(part).to_batch()
        for part in np.array_split(pool, forget_requests)
    )


def build_stream(
    dataset: EncodedDataset,
    learn_chunks: int,
    forget_total: int,
    forget_requests: int,
    seed: int,
) -> RequestStream:
    """Partition the dataset into learn chunks, then sample a forget pool
    and split it into disjoint forget batches.

    Both partitions are deterministic under `seed`.  Uneven splits give
    their remainder to the earliest batches; a learn chunk is never empty.
    """
    if not 1 <= learn_chunks <= len(dataset):
        raise InputError(
            f"learn_chunks must lie in [1, {len(dataset)}], the dataset's row "
            f"count, got {learn_chunks}"
        )
    forget_batches = _forget_batches(dataset, forget_total, forget_requests, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    learn_batches = tuple(
        dataset.subset(chunk).to_batch()
        for chunk in np.array_split(rng.permutation(len(dataset)), learn_chunks)
    )
    return RequestStream(learn_batches, forget_batches)


def build_forget_stream(
    dataset: EncodedDataset,
    eligible_ids,
    forget_total: int,
    forget_requests: int,
    seed: int,
) -> RequestStream:
    """Forget-only stream drawn from the rows of `eligible_ids` (resume
    path); the pool is drawn from those rows in id order."""
    eligible = dataset.subset_by_ids(eligible_ids)
    eligible = eligible.subset(np.argsort(eligible.sample_ids))
    return RequestStream(
        (), _forget_batches(eligible, forget_total, forget_requests, seed)
    )


def _retention_order(
    dataset: EncodedDataset, ledger: SampleLedger, stream: RequestStream
) -> EncodedDataset:
    """`dataset`'s rows as a new dataset, in the order they leave the
    retained set, last first.  Each row gets one leave rank: 0 if retained
    after the stream's last request, 1..K for the stream's K forget batches
    from the last to the first, K + 1 if `ledger` had forgotten it before
    the stream, K + 2 if never learned; rows of one rank keep dataset order.
    After every forget request the retained rows are then a prefix and the
    forgotten rows the block after it.  An id of the ledger or the stream
    that no row holds is a ContractViolation."""
    forgets = stream.forget_requests
    # group by group, each overwriting the ranks of the groups before it
    groups = [(np.fromiter(ledger.learned_ids, np.int64), 0)]
    groups += [(batch.sample_ids, 0) for batch in stream.learn_requests]
    groups += [(batch.sample_ids, len(forgets) - k) for k, batch in enumerate(forgets)]
    groups += [(np.fromiter(ledger.forgotten_ids, np.int64), len(forgets) + 1)]
    rank = np.full(len(dataset), len(forgets) + 2)
    for ids, leave in groups:
        rows, unknown = dataset._locate(ids)
        if unknown.size:
            raise ContractViolation(
                f"ledger references ids missing from dataset: {unknown[:5].tolist()}"
            )
        rank[rows] = leave
    return dataset._take(np.argsort(rank, kind="stable"))


def run_stream(
    stream: RequestStream,
    state: EngineState,
    *,
    verify_every: int = 0,
    dataset: EncodedDataset | None = None,
    test_rows: EncodedDataset | None = None,
):
    """Execute every learn request, then every forget request, in order,
    advancing `state` in place.

    Returns (RunRecord, state).  When verify_every = v > 0, a gap report
    against the retrained oracle is attached to every v-th forget request
    (requires `dataset` and `test_rows` of the state's dimensions, a test
    row, and a retained row after each verified request, all checked before
    the first request runs).  A run that verifies some request
    copies `dataset` in retention order, leaving `dataset` as it is; an id
    of the ledger or the stream that `dataset` lacks is a ContractViolation,
    raised there.  Wall time covers only the tracking/weight update calls.
    A failing request aborts the run with its kind and index; `state` stays
    at the last completed request.
    """
    if verify_every < 0:
        raise InputError(f"verify_every must be >= 0, got {verify_every}")
    if verify_every > 0:
        if dataset is None or test_rows is None:
            raise InputError("verification requires dataset and test_rows")
        for rows in (dataset, test_rows):
            _check_batch_dims(rows, state.model.feature_dim, state.model.class_count)
    retained = stream.validate(state)
    verified = retained[verify_every - 1 :: verify_every] if verify_every else []
    if verified and len(test_rows) == 0:
        raise InputError("verification requires at least one test row")
    if 0 in verified:
        raise InputError(
            f"forget request {(verified.index(0) + 1) * verify_every} would leave "
            "no retained row, so it cannot be verified against a model retrained "
            "on the rest"
        )

    if verified:
        dataset = _retention_order(dataset, state.ledger, stream)

    record = RunRecord()
    for kind, index, batch in stream._requests():
        try:
            start = time.perf_counter()
            if kind == "learn":
                new_tracking, new_model = learn_update(state.tracking, state.model, batch)
            else:
                new_tracking = unlearn_tracking(state.tracking, batch)
                new_model = unlearn_model(state.model, new_tracking, batch)
            elapsed = time.perf_counter() - start
            getattr(state.ledger, f"record_{kind}")(batch.sample_ids)
        except RidgeForgetError as exc:
            raise RunAbortedError(kind, index, exc) from exc
        state.tracking, state.model = new_tracking, new_model
        report = None
        if kind == "forget" and verify_every > 0 and index % verify_every == 0:
            report = gap_report(state.model, dataset, state.ledger, test_rows, index)
        record.per_request.append(RequestRecord(kind, index, len(batch), elapsed, report))

    return record, state
