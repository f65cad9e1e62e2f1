"""Closed-form ridge classifier with exact recursive learning and removal.

The model is the minimizer of   sum_j ||y_j - f_j W||^2 + gamma ||W||^2
over the retained rows, kept as W plus the tracking matrix T, the inverse
of the regularized Gram of the retained features.  Adding (s = -1) or
removing (s = +1) rows F with labels Y is one signed recursion (Golub &
Van Loan, Matrix Computations, sec. 6.5):

  I - s F T F^T = L L^T   (Cholesky)      G  = L^(-1) F T   (TRTRI, TRMM)
  T' = T + s G^T G        (SYRK)          W' = W + s T' F^T (F W - Y)

and T' F^T = G^T L^(-1) takes the weight step in O(m^2 c + d m c) without
reading T' (the gain form of the update; Hager, SIAM Review 1989).  G comes
from the m x m inverse L^(-1): at d = 1024, m = 100, TRTRI and TRMM take
0.32 ms where a right-side TRSM on the tall (F T)^T takes 0.53 (2-vCPU host).

With at least as many rows as columns the smaller d x d dual form runs:
T = K K^T, I - s K^T F^T F K = R R^T, T' = M M^T with M = K R^(-T) by TRSM
(26 us at d = 64, where TRTRI and TRMM on the square K take 46).  T is
kept as the lower triangle SYRK (POTRI in joint_fit) fills, which every
later kernel reads (DSYMM, DPOTRF), and the only one a primal update copies
from T into T'; the full, exactly symmetric matrix is built only when read.
A removal core that fails Cholesky, or whose condition estimate exceeds
COND_LIMIT, means the rows were not in the tracked Gram.  T' and W' equal
the joint fit on the survivors to float64 precision.  Validation runs once,
at trust boundaries: FeatureBatch, the row containers of `features` and the
public TrackingMatrix constructor (also used by state loading).  The row
invariants (labels in range among them) are written once, in _check_rows,
batch dimensions once, in _check_batch_dims, and the gamma, seed and
feature-dimension checks once each; update outputs keep shape and
finiteness, checked in O(d m) (see TrackingMatrix).
The ten kernels come from scipy's f2py modules _fblas and _flapack, loaded
from their files without importing scipy (or through scipy.linalg when
that fails).  Importing this module sets every bundled OpenBLAS copy to
one thread, and numpy's stays there.  scipy's, which serves the ten kernels,
follows one rule (_threads): a kernel call runs at the host's count when its
own product does at least _THREADED_WORK work, and on one thread otherwise.
The work is rows d^2 for the Gram SYRK, rows d c for F^T Y, d^3 for POTRF,
POTRS and POTRI, and min(m, d) d^2 for an update.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation, InputError, SingularityError, StateIntegrityError,
    UnlearnabilityError,
)

# Condition-estimate ceiling for the removal core I - F T F^T.  Above this
# the solve is meaningless in float64.
COND_LIMIT = 1e12

# Default ridge strength; any positive value works, this one keeps the
# normal equations comfortably conditioned at desk scale.
DEFAULT_GAMMA = 1e-3

# Allowed relative asymmetry of a tracking matrix.
SYMMETRY_RTOL = 1e-10

# Largest feature dimension d.  T is a dense d x d float64 matrix, and a
# request holds T and T' at once: 256 MiB at 2**12, four times the widest
# benchmark workload (d = 1024, T = 8 MB), where a request's O(d^2 m) update
# costs about 16 times as much.  Unbounded, one CSV header of 60,000 feature
# columns asks for 27 GiB per d x d matrix.
MAX_FEATURE_DIM = 2**12

# Largest class count c (labels 0..2**16 - 1).  The one-hot rows and the
# weight matrix are dense in c, so an unbounded label would size them: a
# label of 10**8 asks for ~48 GiB of weights at d = 64.  2**16 is three times
# ImageNet-21k's 21,841 classes.
MAX_CLASSES = 2**16


def _load_kernels():
    """(blas, lapack): scipy's modules scipy.linalg._fblas and _flapack, each
    loaded from its file under its own name and registered in sys.modules,
    so a later `import scipy.linalg` reuses them.  scipy is found, not
    imported: scipy.linalg costs ~0.3 s (mostly numpy.f2py), and scipy's
    __init__ imports subprocess.  Any failure falls back to scipy.linalg."""
    try:
        origin = importlib.util.find_spec("scipy").origin
        folder = os.path.join(os.path.dirname(origin), "linalg")
        modules = []
        for short, kernels in (
            ("_fblas", ("dgemm", "dsymm", "dsyrk", "dtrmm", "dtrsm")),
            ("_flapack", ("dpotrf", "dpocon", "dpotri", "dpotrs", "dtrtri")),
        ):
            name = "scipy.linalg." + short
            module = sys.modules.get(name)
            if module is None:
                paths = [os.path.join(folder, short + suffix)
                         for suffix in importlib.machinery.EXTENSION_SUFFIXES]
                path = next(filter(os.path.isfile, paths), None)
                if path is None:
                    raise ImportError(f"no extension file for {name} in {folder}")
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                spec = importlib.util.spec_from_file_location(name, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[name] = module
            if not all(hasattr(module, kernel) for kernel in kernels):
                raise ImportError(f"{name} lacks one of {kernels}")
            modules.append(module)
        return tuple(modules)
    except Exception:
        from scipy.linalg import blas, lapack

        return blas, lapack


# Loaded before _openblas_copies reads the process's mappings: scipy's
# OpenBLAS copy is mapped only once _fblas is.
blas, lapack = _load_kernels()


def _openblas_copies():
    """(get_num_threads, set_num_threads, suffix) of every loaded
    scipy_openblas copy: numpy's 64-bit-index copy (suffix "64_") serves `@`,
    scipy's LP64 one (suffix "") serves `blas` and `lapack`.  Empty under any
    other BLAS build."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({
                line.split()[-1] for line in handle
                if "libscipy_openblas" in line and line.rstrip().endswith(".so")
            })
    except OSError:
        return []
    copies = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, "scipy_openblas_get_num_threads" + suffix):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                get.argtypes, get.restype = [], ctypes.c_int
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
                put.argtypes, put.restype = [ctypes.c_int], None
                copies.append((get, put, suffix))
                break
    return copies


# (get, set, host thread count) of each OpenBLAS copy.  scipy's gets its
# import-time count inside a _threads block of enough work; numpy's keeps one
# thread for good: with both pools awake their idle threads spin against
# each other (a d=1024, m=100 request took 26-34 ms instead of 13-14 on a
# 2-vCPU host).
_OPENBLAS = [(get, put, 1 if suffix else get()) for get, put, suffix in _openblas_copies()]

# Smallest work (multiply-adds of one kernel call's product) at which scipy's
# kernels run threaded.  In process on a 2-vCPU host, threaded updates took
# 0.76-0.98 of the one-thread time at primal m d^2 >= 6.5e6 and dual d^3 >=
# 1.7e7, 1.00-1.03 at dual d = m = 192 (7.1e6), and 0.93-1.17 at m d^2 or d^3
# <= 2.6e6, where an m d^2 rule would thread 64 x 1024 duals; POTRI at d = 64
# took 0.072 ms median and 128 at worst in 50 calls threaded, 0.047 on one
# thread, and at d = 1024 14 ms against 29; F^T Y at N = 10,000, c = 10 took
# 7.5-7.9 ms against 11.7-12.0 at d = 1024 and 0.56 against 0.72-0.75 at
# d = 64 (CHANGES.md).
_THREADED_WORK = 2**22

# Width of the column panels in which a primal update copies T's lower
# triangle into T'.  At d = 1024 that took 0.61-0.70 ms for widths 32-256,
# and copying all of T 0.85-1.05 ms (2-vCPU host).
_PANEL = 64


@contextlib.contextmanager
def _threads(work):
    """Run the block's kernels at each OpenBLAS copy's host count when `work`
    >= _THREADED_WORK, and set every copy back to 1 on leaving it, also on a
    raise.  A smaller block makes no OpenBLAS call at all.  Writes fixed
    values and never restores a read one, so concurrent callers can at worst
    run a kernel on one thread, never leave a stale count."""
    if work < _THREADED_WORK:
        yield
        return
    for _, put, count in _OPENBLAS:
        put(count)
    try:
        yield
    finally:
        for _, put, _ in _OPENBLAS:
            put(1)


for _, _put, _ in _OPENBLAS:  # the import-time pin
    _put(1)


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64, order="C", copy=True)
    if arr.ndim != 2:
        raise ContractViolation(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


def _set_fields(instance, **fields):
    """Set `fields` on a frozen dataclass `instance` and return it; array
    values are made read-only in place, not copied."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(instance, name, value)
    return instance


def _check_seed(seed) -> int:
    """`seed` as an int, if it fits in 64 unsigned bits (the width a saved
    extractor recipe stores)."""
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ContractViolation(f"seed must fit in 64 unsigned bits: {seed!r}")
    return int(seed)


def _check_feature_dim(feature_dim) -> int:
    """`feature_dim` as an int, if it lies in [1, MAX_FEATURE_DIM]; checked
    before anything of size d^2 is allocated."""
    if not (
        isinstance(feature_dim, numbers.Integral) and 1 <= feature_dim <= MAX_FEATURE_DIM
    ):
        raise ContractViolation(
            f"feature_dim must lie in [1, {MAX_FEATURE_DIM}], got {feature_dim!r}"
        )
    return int(feature_dim)


def _check_class_count(class_count) -> int:
    """`class_count` as an int, if it lies in [1, MAX_CLASSES]; checked
    before anything of size d c is allocated."""
    if not (isinstance(class_count, numbers.Integral) and 1 <= class_count <= MAX_CLASSES):
        raise ContractViolation(
            f"class_count must lie in [1, {MAX_CLASSES}], got {class_count!r}"
        )
    return int(class_count)


def _check_gamma(gamma) -> float:
    """`gamma` as a Python float, if it is a finite real > 0."""
    if not (isinstance(gamma, numbers.Real) and math.isfinite(gamma) and gamma > 0):
        raise ContractViolation(f"gamma must be finite and > 0, got {gamma!r}")
    return float(gamma)


@dataclass(frozen=True)
class AnalyticModel:
    """Weight matrix of the closed-form classifier plus its ridge strength.

    weights has shape (feature_dim, class_count); scores are row_features @
    weights.  gamma > 0 keeps the normal-equations matrix positive definite
    and must match the paired tracking matrix.
    """

    weights: np.ndarray
    gamma: float

    def __post_init__(self):
        weights = _as_matrix(self.weights, "weights")
        if not np.isfinite(weights).all():
            raise ContractViolation("model weights must be finite")
        _set_fields(self, weights=weights, gamma=_check_gamma(self.gamma))

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def class_count(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class TrackingMatrix:
    """Inverse of (retained Gram + gamma I), the statistic driving updates.

    Square, symmetric (enforced to SYMMETRY_RTOL), and positive definite
    whenever it tracks a valid retained set.  gamma must equal the paired
    model's gamma.  Updates read only the lower triangle of the Fortran order
    array `_lower`; the other holds values nothing reads, which may be
    non-finite (an earlier T, SYRK's zeros, or a primal update's fresh
    memory).  The full, exactly symmetric `matrix` is built from the lower
    triangle on first read.

    The public constructor and joint_fit check every entry for finiteness;
    an update checks, in O(d m), the matrix its SYRK consumed (G^T, or M in
    the dual form) and the diagonal of T'.  That bounds every entry: T is
    finite by induction, and with g_i the i-th row of G^T a forget gives
    |T'_ij| <= sqrt(T_ii T_jj) + |g_i||g_j| <= sqrt(T'_ii T'_jj); a learn's
    G^T G <= T bounds |g_i|^2 by T_ii; the dual M M^T is bounded by its
    diagonal (Cauchy-Schwarz).  A finite consumed matrix leaves no NaN to
    spread, and a finite diagonal shows that no product overflowed.
    """

    matrix: np.ndarray
    gamma: float
    # (batch, G^T, L^(-1)) of the primal update that made this matrix
    _update = None

    def __post_init__(self):
        _set_fields(self, matrix=_as_matrix(self.matrix, "tracking matrix"))
        self._seal(self.matrix.T, _check_gamma(self.gamma))
        scale = max(float(np.linalg.norm(self.matrix)), 1e-300)
        asym = float(np.linalg.norm(self.matrix - self.matrix.T)) / scale
        if asym > SYMMETRY_RTOL:
            raise ContractViolation(
                f"tracking matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e}"
            )

    @classmethod
    def _trusted(cls, lower, gamma: float, update=None, consumed=None) -> "TrackingMatrix":
        """Wrap a kernel output whose lower triangle holds T, without the copy
        or the asymmetry norm; `lower` is frozen in place, not copied.  Given
        the matrix its SYRK `consumed`, finiteness is checked in O(d m)."""
        tracking = _set_fields(object.__new__(cls), _update=update)
        tracking._seal(lower, gamma, consumed)
        return tracking

    def _seal(self, lower: np.ndarray, gamma: float, consumed=None):
        if lower.shape[0] != lower.shape[1]:
            raise ContractViolation(
                f"tracking matrix must be square, got {lower.shape}"
            )
        if consumed is None:
            finite = np.isfinite(lower).all()
        else:  # the O(d m) check of the class docstring
            finite = np.isfinite(consumed).all() and np.isfinite(np.diagonal(lower)).all()
        if not finite:
            raise ContractViolation("tracking matrix must be finite")
        _set_fields(self, _lower=lower, gamma=gamma)

    def __getattr__(self, name):
        # reached only for attributes not yet set: `matrix` of a _trusted T
        if name != "matrix":
            raise AttributeError(name)
        (matrix,) = self._row_blocks(len(self._lower))
        return _set_fields(self, matrix=matrix).matrix

    def _row_blocks(self, rows: int):
        """The rows of `matrix`, `rows` at a time, each block mirrored from
        the lower triangle as `matrix` is, without building the full matrix."""
        lower = self._lower
        for start in range(0, len(lower), rows):
            upper = lower[:, start : start + rows].T
            below = np.tri(*upper.shape, start, dtype=bool)
            yield np.where(below, lower[start : start + rows], upper)

    @property
    def feature_dim(self) -> int:
        return self._lower.shape[0]

    @classmethod
    def fresh(cls, feature_dim: int, gamma: float) -> "TrackingMatrix":
        """Tracking matrix of the empty retained set: (gamma I)^(-1)."""
        feature_dim = _check_feature_dim(feature_dim)
        gamma = _check_gamma(gamma)
        return cls(np.eye(feature_dim) / gamma, gamma)


def _check_rows(
    ids: np.ndarray, *columns, features=None, one_hots=None, labels=None, class_count=0
):
    """The row invariants of every row container: one row per id in each of
    `columns`, `features`, `one_hots` and `labels`; distinct non-negative ids;
    finite features; one-hot label rows, a single 1 among 0s; and label
    indices in [0, class_count).  Raises InputError naming the sample id of
    a non-finite feature row or of an out-of-range label, and
    ContractViolation for the rest."""
    n = ids.shape[0]
    for column in (*columns, features, one_hots, labels):
        if column is not None and len(column) != n:
            raise ContractViolation(
                f"row counts disagree: {len(column)} rows for {n} ids"
            )
    # sorted: numpy 2.4's np.unique hashes int64 ids, 22x slower at 10,000
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        raise ContractViolation("sample ids must be distinct")
    if (ids < 0).any():
        raise ContractViolation("sample ids must be non-negative")
    if one_hots is not None:
        ones = one_hots == 1.0
        if not ((ones | (one_hots == 0.0)).all() and (ones.sum(axis=1) == 1).all()):
            raise ContractViolation("each label row must be one-hot")
    if labels is not None:
        if not (isinstance(class_count, numbers.Integral) and class_count >= 0):
            raise ContractViolation(f"class_count must be an integer >= 0: {class_count!r}")
        bad = (labels < 0) | (labels >= class_count)
        if bad.any():
            row = np.argmax(bad)
            raise InputError(
                f"label {labels[row]} of sample id {ids[row]} is out of range "
                f"[0, {class_count})"
            )
    # all() over the whole matrix first: it is the cost on every valid batch
    if features is not None and not np.isfinite(features).all():
        finite = np.isfinite(features).all(axis=1)
        raise InputError(
            f"features of sample id {ids[np.argmin(finite)]} contain non-finite values"
        )


@dataclass(frozen=True)
class FeatureBatch:
    """A stack of (feature row, one-hot label row, sample id) triples.

    Empty batches (n = 0) are legal and act as identity inputs to every
    update.  Features must be finite; ids must be distinct non-negative
    integers; each label row must contain exactly one 1 with all other
    entries 0.
    """

    features: np.ndarray
    labels: np.ndarray
    sample_ids: np.ndarray

    def __post_init__(self):
        features = _as_matrix(self.features, "features")
        labels = _as_matrix(self.labels, "labels")
        ids = np.array(self.sample_ids, dtype=np.int64, copy=True).reshape(-1)
        _check_rows(ids, features=features, one_hots=labels)
        _set_fields(self, features=features, labels=labels, sample_ids=ids)

    @classmethod
    def _trusted(cls, features, labels, sample_ids) -> "FeatureBatch":
        """Wrap the arrays of a validated EncodedDataset, frozen in place:
        rows of a valid dataset are valid, so nothing is copied or checked."""
        return _set_fields(
            object.__new__(cls), features=features, labels=labels, sample_ids=sample_ids
        )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return self.labels.shape[1]


def _check_batch_dims(batch: FeatureBatch, feature_dim: int, class_count=None):
    if batch.feature_dim != feature_dim:
        raise ContractViolation(
            f"batch feature dim {batch.feature_dim} does not match {feature_dim}"
        )
    if class_count is not None and batch.class_count != class_count:
        raise ContractViolation(
            f"batch class count {batch.class_count} does not match {class_count}"
        )


def _check_pair(tracking: TrackingMatrix, model: AnalyticModel):
    if tracking.feature_dim != model.feature_dim:
        raise ContractViolation(
            f"tracking dim {tracking.feature_dim} does not match model dim "
            f"{model.feature_dim}"
        )
    if tracking.gamma != model.gamma:
        raise ContractViolation(
            f"tracking gamma {tracking.gamma!r} does not match model gamma "
            f"{model.gamma!r}"
        )


def _core_factor(part: np.ndarray, s: float) -> np.ndarray:
    """L, L L^T = I - s * part factored over the PSD `part`, in its lower
    triangle; `part` is overwritten.  The removal guard anchors the
    condition estimate at the core's natural scale 1: a core that cancelled
    down to ~eps is singular even though its own relative conditioning can
    look perfect."""
    part *= -s
    part.flat[:: part.shape[0] + 1] += 1.0
    anorm = np.linalg.norm(part, 1) if s > 0 else None
    factor, info = lapack.dpotrf(part.T, lower=1, clean=0, overwrite_a=1)
    if s < 0 and info != 0:
        # I plus a PSD matrix (and PD T) cannot fail for valid state.
        raise StateIntegrityError(f"learn core failed to factorize (info {info})")
    if s > 0:
        rcond = lapack.dpocon(factor, anorm, uplo="L")[0] if info == 0 else 0.0
        estimate = max(anorm, 1.0) / (rcond * anorm) if rcond > 0 else np.inf
        if estimate > COND_LIMIT:
            raise UnlearnabilityError(
                "removal core is singular or ill-conditioned "
                f"(condition estimate {estimate:.3e})"
            )
    return factor


def _rank_update(tracking: TrackingMatrix, batch: FeatureBatch, s: float) -> TrackingMatrix:
    """T' = (T^(-1) - s F^T F)^(-1), writing no input; a primal T' records
    its update for _weight_step.  The kernels read and write only the lower
    triangles of the Fortran order working arrays of T and T'."""
    t, f = tracking._lower, batch.features
    update = None
    with _threads(min(f.shape) * t.size):
        if f.shape[0] < f.shape[1]:
            ft_t = blas.dsymm(1.0, t, f.T, lower=1)  # (F T)^T = T F^T
            part = blas.dgemm(1.0, f.T, ft_t, trans_a=1).T  # F T F^T
            inverse, _ = lapack.dtrtri(_core_factor(part, s), lower=1, overwrite_c=1)
            consumed = blas.dtrmm(  # G^T = (F T)^T L^(-T), in place
                1.0, inverse, ft_t, side=1, lower=1, trans_a=1, overwrite_b=1
            )
            new_t = np.empty_like(t, order="F")
            for j in range(0, len(t), _PANEL):  # the lower triangle of T only
                new_t[j:, j : j + _PANEL] = t[j:, j : j + _PANEL]
            new_t = blas.dsyrk(s, consumed, beta=1.0, c=new_t, lower=1, overwrite_c=1)
            update = (batch, consumed, inverse)
        else:  # the d x d system is smaller, and T' = M M^T subtracts nothing
            chol, info = lapack.dpotrf(t, lower=1, clean=1)
            if info != 0:
                raise StateIntegrityError("tracking matrix is not positive definite")
            f_chol = f @ chol
            factor = _core_factor(f_chol.T @ f_chol, s)
            consumed = blas.dtrsm(  # M = K R^(-T), in place
                1.0, factor, chol, side=1, lower=1, trans_a=1, overwrite_b=1
            )
            new_t = blas.dsyrk(1.0, consumed, lower=1)
    return TrackingMatrix._trusted(new_t, tracking.gamma, update, consumed)


def _weight_step(model: AnalyticModel, tracking: TrackingMatrix, batch: FeatureBatch, s: float):
    """W' = W + s T' F^T r, r = F W - Y, for the updated T' = tracking.  When
    T' records its update of this same batch, T' F^T r = G^T L^(-1) r comes
    from that update's G^T and L^(-1); otherwise from one pass over T'."""
    f = batch.features
    r_t = (f @ model.weights - batch.labels).T  # Fortran, so BLAS copies nothing
    update = tracking._update
    if update is not None and update[0] is batch:
        _, g_t, inverse = update
        lr_t = blas.dtrmm(1.0, inverse, r_t, side=1, lower=1, trans_a=1, overwrite_b=1)
        step = blas.dgemm(1.0, g_t, lr_t, trans_b=1)  # G^T (L^(-1) r)
    else:
        fr = blas.dgemm(1.0, f.T, r_t, trans_b=1)  # F^T r
        step = blas.dsymm(1.0, tracking._lower, fr, lower=1)  # T' F^T r
    return AnalyticModel(model.weights + s * step, model.gamma)


def _normal_sums(features: np.ndarray, labels: np.ndarray, prior=None):
    """(F^T F in its lower triangle, F^T Y) over the rows, each added to a
    copy of `prior`'s pair when one is given; `prior` is not written."""
    gram, rhs = (None, None) if prior is None else prior
    beta = 0.0 if prior is None else 1.0
    rows, d = features.shape
    # scipy's dgemm: numpy's took twice as long at N=10,000, d=1024
    with _threads(rows * d * labels.shape[1]):
        rhs = blas.dgemm(1.0, features.T, labels.T, beta=beta, c=rhs, trans_b=1)
    with _threads(rows * d * d):
        gram = blas.dsyrk(1.0, features.T, beta=beta, c=gram, lower=1)
    return gram, rhs


def _ridge_solve(gram: np.ndarray, rhs: np.ndarray, gamma: float):
    """(W, L) with L L^T = gram + gamma I and (gram + gamma I) W = rhs.
    Reads gram's lower triangle and factors it in gram's own buffer."""
    gram.flat[:: gram.shape[0] + 1] += gamma
    with _threads(len(gram) ** 3):
        factor, info = lapack.dpotrf(gram, lower=1, clean=1, overwrite_a=1)
        if info != 0:
            raise SingularityError(
                f"regularized Gram failed to factorize (info {info})"
            )
        weights, _ = lapack.dpotrs(factor, rhs, lower=1)
    return weights, factor


def joint_fit(batch: FeatureBatch, gamma: float):
    """Fit the classifier on `batch` from scratch.

    Returns (model, tracking) with
      weights  = (F^T F + gamma I)^(-1) F^T Y
      tracking = (F^T F + gamma I)^(-1)
    the unique global minimizer of the module's objective over the batch.
    The Gram is factored and inverted in its own buffer (POTRF, POTRI), so
    a fit holds its batch plus one d x d matrix.
    """
    gamma = _check_gamma(gamma)
    weights, factor = _ridge_solve(*_normal_sums(batch.features, batch.labels), gamma)
    with _threads(len(factor) ** 3):
        inverse, _ = lapack.dpotri(factor, lower=1, overwrite_c=1)  # in place
    tracking = TrackingMatrix._trusted(inverse, gamma)
    return AnalyticModel(weights, gamma), tracking


def learn_update(tracking: TrackingMatrix, model: AnalyticModel, batch: FeatureBatch):
    """Absorb a batch of new rows into (tracking, model), after which they
    equal the joint fit over everything learned so far.  An empty batch is
    the identity.  Callers must guarantee the batch ids were never learned
    before (the harness ledger enforces this)."""
    _check_pair(tracking, model)
    _check_batch_dims(batch, model.feature_dim, model.class_count)
    if len(batch) == 0:
        return tracking, model
    new_tracking = _rank_update(tracking, batch, -1.0)
    return new_tracking, _weight_step(model, new_tracking, batch, -1.0)


def unlearn_tracking(tracking: TrackingMatrix, forget: FeatureBatch) -> TrackingMatrix:
    """Remove previously learned rows: T' is the inverse of the regularized
    Gram over the survivors.  An empty batch is the identity.  A singular or
    ill-conditioned removal core raises UnlearnabilityError, mutating nothing."""
    _check_batch_dims(forget, tracking.feature_dim)
    if len(forget) == 0:
        return tracking
    return _rank_update(tracking, forget, 1.0)


def unlearn_model(
    model: AnalyticModel, tracking_after: TrackingMatrix, forget: FeatureBatch
) -> AnalyticModel:
    """Remove a batch's influence from the weights: W' = W + T' F^T (F W - Y)
    with T' the tracking matrix ALREADY updated for this forget batch.  W'
    equals the joint fit on the surviving rows.  Given unlearn_tracking's
    own output for this same batch object, the step costs O(m^2 c + d m c)
    and does not read T'.
    """
    _check_pair(tracking_after, model)
    _check_batch_dims(forget, model.feature_dim, model.class_count)
    if len(forget) == 0:
        return model
    return _weight_step(model, tracking_after, forget, 1.0)


def predict(model: AnalyticModel, features: np.ndarray):
    """Scores (features @ W) and argmax classes, ties to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.feature_dim:
        raise ContractViolation(
            f"features must be n x {model.feature_dim}, got {features.shape}"
        )
    scores = features @ model.weights
    classes = np.argmax(scores, axis=1)
    return scores, classes
