import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _helpers import (
    batch_union,
    gram_inverse_oracle,
    objective_oracle,
    permuted,
    rand_batch,
    rel_fro,
    solve_weights_oracle,
)

from ridgeforget import (
    AnalyticModel,
    ContractViolation,
    FeatureBatch,
    InputError,
    StateIntegrityError,
    TrackingMatrix,
    UnlearnabilityError,
    joint_fit,
    learn_update,
    predict,
    unlearn_model,
    unlearn_tracking,
)
from ridgeforget import core


# ---------------------------------------------------------------- types


def test_model_rejects_nonpositive_gamma():
    with pytest.raises(ContractViolation):
        AnalyticModel(np.zeros((2, 2)), 0.0)
    with pytest.raises(ContractViolation):
        AnalyticModel(np.zeros((2, 2)), -1.0)


def test_model_rejects_nonfinite_weights():
    weights = np.zeros((2, 2))
    weights[0, 1] = np.nan
    with pytest.raises(ContractViolation):
        AnalyticModel(weights, 1.0)


def test_tracking_rejects_asymmetry():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ContractViolation):
        TrackingMatrix(bad, 1.0)


def test_tracking_rejects_nan_below_the_diagonal():
    bad = np.eye(3)
    bad[2, 0] = np.nan
    with pytest.raises(ContractViolation, match="tracking matrix must be finite"):
        TrackingMatrix(bad, 1.0)


def test_matrices_must_be_two_dimensional_and_tracking_square():
    with pytest.raises(ContractViolation, match="weights must be a 2-D array, got ndim=1"):
        AnalyticModel(np.zeros(3), 1.0)
    with pytest.raises(ContractViolation, match=r"must be square, got \(3, 2\)"):
        TrackingMatrix(np.zeros((2, 3)), 1.0)


def test_tracking_fresh_is_scaled_identity():
    tracking = TrackingMatrix.fresh(3, 0.5)
    assert np.array_equal(tracking.matrix, np.eye(3) * 2.0)


GAMMA_SITES = {
    "AnalyticModel": lambda gamma: AnalyticModel(np.zeros((2, 2)), gamma),
    "TrackingMatrix": lambda gamma: TrackingMatrix(np.eye(2), gamma),
    "TrackingMatrix.fresh": lambda gamma: TrackingMatrix.fresh(2, gamma),
    "joint_fit": lambda gamma: joint_fit(
        rand_batch(np.random.default_rng(1), 3, 2, 2), gamma
    )[1],
}


@pytest.mark.parametrize("site", GAMMA_SITES)
@pytest.mark.parametrize(
    "gamma", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"]
)
def test_gamma_must_be_a_finite_positive_real(site, gamma):
    with pytest.raises(ContractViolation, match="gamma"):
        GAMMA_SITES[site](gamma)
    accepted = GAMMA_SITES[site](np.float32(0.5))
    assert type(accepted.gamma) is float and accepted.gamma == 0.5


def test_batch_rejects_bad_labels_and_ids():
    with pytest.raises(ContractViolation):
        FeatureBatch([[1.0]], [[0.5]], [0])  # not one-hot
    with pytest.raises(ContractViolation):
        FeatureBatch([[1.0], [2.0]], [[1.0], [1.0]], [3, 3])  # duplicate ids
    with pytest.raises(ContractViolation):
        FeatureBatch([[1.0]], [[1.0]], [-1])  # negative id


def test_batch_arrays_are_frozen():
    batch = rand_batch(np.random.default_rng(0), 4, 3, 2)
    with pytest.raises(ValueError):
        batch.features[0, 0] = 99.0


# --------------------------------------------------------------- joint_fit


def test_joint_fit_empty_batch():
    model, tracking = joint_fit(rand_batch(np.random.default_rng(0), 0, 2, 2), 1.0)
    assert np.array_equal(model.weights, np.zeros((2, 2)))
    assert np.allclose(tracking.matrix, np.eye(2), atol=1e-15)


def test_joint_fit_single_sample_hand_values():
    batch = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    model, tracking = joint_fit(batch, 1.0)
    assert np.allclose(model.weights, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)
    assert np.allclose(tracking.matrix, [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)


def test_joint_fit_matches_dense_solve():
    rng = np.random.default_rng(11)
    # d = 192 inverts the Gram threaded (d^3 >= _THREADED_WORK), d = 8 not
    for n, d in ((50, 8), (400, 192)):
        batch = rand_batch(rng, n, d, 3)
        model, tracking = joint_fit(batch, 0.3)
        want_w = solve_weights_oracle(batch.features, batch.labels, 0.3)
        want_t = gram_inverse_oracle(batch.features, 0.3)
        assert rel_fro(model.weights, want_w) <= 1e-10
        assert rel_fro(tracking.matrix, want_t) <= 1e-10


def test_joint_fit_holds_one_d_by_d_matrix():
    batch = rand_batch(np.random.default_rng(12), 600, 256, 10)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fitted = joint_fit(batch, 1e-3)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    # T, the weights and a d x d finiteness mask; a second d x d matrix,
    # such as a triangular inverse beside the factor, reads above 2
    assert peak <= 1.3 * 8 * 256**2
    assert rel_fro(fitted[1].matrix, gram_inverse_oracle(batch.features, 1e-3)) <= 1e-10


def test_joint_fit_rejects_a_batch_too_wide_before_its_gram():
    d = core.MAX_FEATURE_DIM + 1
    batch = FeatureBatch(np.ones((1, d)), [[1.0]], [0])
    tracemalloc.start()
    try:
        with pytest.raises(ContractViolation, match="feature_dim must lie in"):
            joint_fit(batch, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d * d // 1000  # one d x d Gram is 134 MB


def test_joint_fit_rejects_bad_gamma_and_nonfinite():
    batch = rand_batch(np.random.default_rng(1), 3, 2, 2)
    with pytest.raises(ContractViolation):
        joint_fit(batch, 0.0)
    feats = np.ones((1, 2))
    feats[0, 0] = np.inf
    with pytest.raises(InputError):
        FeatureBatch(feats, [[1.0, 0.0]], [0])
    feats[0, 0] = np.nan
    with pytest.raises(InputError):
        FeatureBatch(feats, [[1.0, 0.0]], [0])


def test_blas_runs_one_thread_outside_joint_fit(monkeypatch):
    copies = core._OPENBLAS
    if not copies:
        pytest.skip("no bundled OpenBLAS copy is loaded")
    assert [get() for get, _, _ in copies] == [1] * len(copies)
    host = [count for _, _, count in copies]
    seen = []
    dsyrk = core.blas.dsyrk

    def observed(*args, **kwargs):
        seen.append([get() for get, _, _ in copies])
        return dsyrk(*args, **kwargs)

    monkeypatch.setattr(core.blas, "dsyrk", observed)
    rng = np.random.default_rng(5)
    # the Gram's work rows d^2: 1024 x 64 is at the bound, 40 x 6 below it
    assert 1024 * 64**2 >= core._THREADED_WORK > 40 * 6**2
    joint_fit(rand_batch(rng, 1024, 64, 3), 0.5)
    joint_fit(rand_batch(rng, 40, 6, 3), 0.5)
    assert seen == [host, [1] * len(copies)]
    assert [get() for get, _, _ in copies] == [1] * len(copies)

    def failing(*args, **kwargs):
        raise MemoryError("Gram")

    monkeypatch.setattr(core.blas, "dsyrk", failing)
    with pytest.raises(MemoryError):
        joint_fit(rand_batch(rng, 1024, 64, 3), 0.5)
    assert [get() for get, _, _ in copies] == [1] * len(copies)


def test_joint_fit_inverts_threaded_from_the_update_work_bound(monkeypatch):
    # each kernel of the fit runs threaded by the work of its own product
    copies = core._OPENBLAS
    if not copies:
        pytest.skip("no bundled OpenBLAS copy is loaded")
    host = [count for _, _, count in copies]
    seen = []

    def observe(module, name):
        kernel = getattr(module, name)

        def observed(*args, **kwargs):
            seen.append((name, [get() for get, _, _ in copies]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(module, name, observed)

    for name in ("dgemm", "dsyrk"):
        observe(core.blas, name)
    for name in ("dpotrf", "dpotrs", "dpotri"):
        observe(core.lapack, name)
    rng = np.random.default_rng(13)
    covered = {}
    for n, d, c in ((12, 6, 3), (128, 64, 3), (384, 192, 3), (1023, 64, 64), (1024, 64, 64)):
        # F^T Y: n d c; the Gram: n d^2; its factor, solve and inverse: d^3
        work = {"dgemm": n * d * c, "dsyrk": n * d * d}
        work.update(dict.fromkeys(("dpotrf", "dpotrs", "dpotri"), d**3))
        seen.clear()
        joint_fit(rand_batch(rng, n, d, c), 0.5)
        assert [name for name, _ in seen] == ["dgemm", "dsyrk", "dpotrf", "dpotrs", "dpotri"]
        for name, counts in seen:
            threaded = work[name] >= core._THREADED_WORK
            covered.setdefault(name, set()).add(threaded)
            assert counts == (host if threaded else [1] * len(copies)), (name, n, d, c)
        assert [get() for get, _, _ in copies] == [1] * len(copies)
    assert all(sides == {False, True} for sides in covered.values())


def test_a_block_below_the_work_bound_makes_no_openblas_call(monkeypatch):
    calls = []

    def fake(index, count):
        return (lambda: 1), (lambda n: calls.append((index, n))), count

    monkeypatch.setattr(core, "_OPENBLAS", [fake(0, 1), fake(1, 3)])
    with core._threads(core._THREADED_WORK - 1):
        pass
    rng = np.random.default_rng(17)
    model, tracking = joint_fit(rand_batch(rng, 40, 6, 3), 0.5)
    batch = rand_batch(rng, 5, 6, 3, id_start=40)
    tracking, model = learn_update(tracking, model, batch)
    tracking = unlearn_tracking(tracking, batch)
    unlearn_model(model, tracking, batch)
    assert calls == []
    with core._threads(core._THREADED_WORK):
        assert calls == [(0, 1), (1, 3)]
    assert calls[2:] == [(0, 1), (1, 1)]
    calls.clear()
    with pytest.raises(MemoryError), core._threads(core._THREADED_WORK):
        raise MemoryError("kernel")
    assert calls == [(0, 1), (1, 3), (0, 1), (1, 1)]


def _threaded_size(d=512):
    """(d, m) of a primal request large enough to run threaded."""
    m = -(-core._THREADED_WORK // (d * d))
    assert m * d * d >= core._THREADED_WORK and m < d
    return d, m


def test_threaded_requests_leave_every_copy_at_one_thread(monkeypatch):
    copies = core._OPENBLAS
    if not copies:
        pytest.skip("no bundled OpenBLAS copy is loaded")
    host = [count for _, _, count in copies]
    numpy_copy = [bool(suffix) for _, _, suffix in core._openblas_copies()]
    d, m = _threaded_size()
    rng = np.random.default_rng(83)
    seen = []
    dsyrk = core.blas.dsyrk

    def observed(*args, **kwargs):
        seen.append([get() for get, _, _ in copies])
        return dsyrk(*args, **kwargs)

    monkeypatch.setattr(core.blas, "dsyrk", observed)
    model, tracking = joint_fit(rand_batch(rng, 2 * d, d, 3), 0.5)
    batch = rand_batch(rng, m, d, 3, id_start=2 * d)
    tracking, model = learn_update(tracking, model, batch)
    assert seen[-1] == host  # the request's SYRK
    assert [n for n, is_numpy in zip(seen[-1], numpy_copy) if is_numpy] == [1] * sum(numpy_copy)
    assert [get() for get, _, _ in copies] == [1] * len(copies)
    unlearn_tracking(tracking, batch)
    assert seen[-1] == host
    assert [get() for get, _, _ in copies] == [1] * len(copies)

    # rows never learned: the removal core I - F F^T fails Cholesky
    fresh = TrackingMatrix.fresh(d, 1.0)
    with pytest.raises(UnlearnabilityError):
        unlearn_tracking(fresh, rand_batch(rng, m, d, 3))
    assert [get() for get, _, _ in copies] == [1] * len(copies)

    # the dual form (m >= d) runs threaded by its d^3 kernels, not by m d^2
    for d, m, threaded in ((256, 256, True), (64, core._THREADED_WORK // 64**2, False)):
        assert (d**3 >= core._THREADED_WORK) == threaded and m * d * d >= core._THREADED_WORK
        model, tracking = joint_fit(rand_batch(rng, 2 * d, d, 3), 0.5)
        batch = rand_batch(rng, m, d, 3, id_start=2 * d)
        tracking, model = learn_update(tracking, model, batch)
        assert seen[-1] == (host if threaded else [1] * len(copies))
        unlearn_tracking(tracking, batch)
        assert seen[-1] == (host if threaded else [1] * len(copies))
        assert [get() for get, _, _ in copies] == [1] * len(copies)


def _run_python(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this
    checkout's ridgeforget; a failure shows the child's stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_the_kernels_without_scipy_linalg():
    _run_python(
        "import sys\n"
        "import ridgeforget.cli\n"
        "from ridgeforget import core\n"
        "assert 'scipy' not in sys.modules\n"
        "assert core.blas.__name__ == 'scipy.linalg._fblas'\n"
        "assert core.lapack.__name__ == 'scipy.linalg._flapack'\n"
        "import scipy.linalg\n"
        "assert sys.modules['scipy.linalg._fblas'] is core.blas\n"
        "for ours, theirs, names in (\n"
        "    (core.blas, scipy.linalg.blas, 'dgemm dsymm dsyrk dtrmm dtrsm'),\n"
        "    (core.lapack, scipy.linalg.lapack, 'dpotrf dpocon dpotri dpotrs dtrtri'),\n"
        "):\n"
        "    for name in names.split():\n"
        "        assert getattr(ours, name) is getattr(theirs, name), name\n"
    )


@pytest.mark.parametrize("damaged", [False, True], ids=["no-file", "unloadable-file"])
def test_kernel_loader_falls_back_to_scipy_linalg(tmp_path, damaged):
    # the loader looks for the files beside the origin of scipy's spec, which
    # find_spec takes from an imported scipy, so pointing that at an empty
    # folder, or at one of non-ELF files, makes it fail; the import system
    # finds scipy.linalg through scipy.__path__ as before
    linalg = tmp_path / "scipy" / "linalg"
    linalg.mkdir(parents=True)
    if damaged:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        for name in ("_fblas", "_flapack"):
            (linalg / (name + suffix)).write_bytes(b"not a shared object")
    _run_python(
        "import scipy\n"
        f"scipy.__spec__.origin = {str(tmp_path / 'scipy' / '__init__.py')!r}\n"
        "import numpy as np\n"
        "from ridgeforget import FeatureBatch, core, joint_fit, unlearn_model, "
        "unlearn_tracking\n"
        "import scipy.linalg\n"
        "assert core.blas is scipy.linalg.blas\n"
        "assert core.lapack is scipy.linalg.lapack\n"
        "rng = np.random.default_rng(4)\n"
        "f = rng.standard_normal((30, 5))\n"
        "y = np.eye(3)[rng.integers(0, 3, 30)]\n"
        "model, tracking = joint_fit(FeatureBatch(f, y, np.arange(30)), 0.5)\n"
        "forget = FeatureBatch(f[:10], y[:10], np.arange(10))\n"
        "tracking = unlearn_tracking(tracking, forget)\n"
        "model = unlearn_model(model, tracking, forget)\n"
        "inverse = np.linalg.inv(f[10:].T @ f[10:] + 0.5 * np.eye(5))\n"
        "assert np.allclose(tracking.matrix, inverse, rtol=1e-10, atol=0)\n"
        "assert np.allclose(model.weights, inverse @ f[10:].T @ y[10:], "
        "rtol=1e-10, atol=1e-12)\n"
    )


def test_thread_pin_covers_every_openblas_copy():
    # a copy mapped after core reads the mappings would keep its threads
    out = _run_python(
        "import ctypes\n"
        "import ridgeforget.cli\n"
        "from ridgeforget import core\n"
        "def mapped():\n"
        "    with open('/proc/self/maps', encoding='utf-8') as handle:\n"
        "        return sorted({line.split()[-1] for line in handle\n"
        "                       if 'libscipy_openblas' in line\n"
        "                       and line.rstrip().endswith('.so')})\n"
        "paths = mapped()\n"
        "print(len(paths))\n"
        "address = lambda f: ctypes.cast(f, ctypes.c_void_p).value\n"
        "pinned = {address(get) for get, _, _ in core._OPENBLAS}\n"
        "def check():\n"
        "    for path in paths:\n"
        "        lib = ctypes.CDLL(path)\n"
        "        name = next(n for n in ('scipy_openblas_get_num_threads64_',\n"
        "                                'scipy_openblas_get_num_threads')\n"
        "                    if hasattr(lib, n))\n"
        "        get = getattr(lib, name)\n"
        "        get.restype = ctypes.c_int\n"
        "        assert address(get) in pinned, path\n"
        "        assert get() == 1, path\n"
        "check()\n"
        "import scipy.linalg\n"
        "assert mapped() == paths\n"
        "check()\n"
    )
    if out.strip() == "0":
        pytest.skip("no bundled OpenBLAS copy is mapped")


def test_joint_fit_is_the_minimizer_by_finite_differences():
    # directional derivative at the fit is zero for a quadratic objective
    rng = np.random.default_rng(23)
    step = 1e-5
    for _ in range(20):
        batch = rand_batch(rng, 30, 6, 3)
        gamma = float(rng.uniform(0.1, 2.0))
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


# ------------------------------------------------------------- learn_update


def test_learn_empty_batch_is_identity():
    rng = np.random.default_rng(0)
    model, tracking = joint_fit(rand_batch(rng, 5, 3, 2), 1.0)
    new_tracking, new_model = learn_update(tracking, model, rand_batch(rng, 0, 3, 2))
    assert new_tracking is tracking
    assert new_model is model


def test_learn_then_unlearn_restores_tracking():
    rng = np.random.default_rng(13)
    base = rand_batch(rng, 12, 4, 3)
    model, tracking = joint_fit(base, 0.5)
    extra = rand_batch(rng, 5, 4, 3, id_start=100)
    grown_tracking, grown_model = learn_update(tracking, model, extra)
    back_tracking = unlearn_tracking(grown_tracking, extra)
    back_model = unlearn_model(grown_model, back_tracking, extra)
    assert rel_fro(back_tracking.matrix, tracking.matrix) <= 1e-10
    assert rel_fro(back_model.weights, model.weights) <= 1e-9


def test_sequential_learning_matches_joint_fit():
    rng = np.random.default_rng(17)
    gamma = 0.2
    b1 = rand_batch(rng, 20, 6, 4)
    b2 = rand_batch(rng, 15, 6, 4, id_start=1000)
    model = AnalyticModel(np.zeros((6, 4)), gamma)
    tracking = TrackingMatrix.fresh(6, gamma)
    tracking, model = learn_update(tracking, model, b1)
    tracking, model = learn_update(tracking, model, b2)
    want_model, want_tracking = joint_fit(batch_union(b1, b2), gamma)
    assert rel_fro(tracking.matrix, want_tracking.matrix) <= 1e-9
    assert rel_fro(model.weights, want_model.weights) <= 1e-9


@pytest.mark.parametrize("rows", [1, 3])  # below and at feature_dim 3
def test_learn_on_indefinite_tracking_raises_state_integrity(rows):
    # symmetric and finite, so the public constructor accepts it, but no
    # retained set has a negative definite tracking matrix
    tracking = TrackingMatrix(-np.eye(3), 1.0)
    model = AnalyticModel(np.zeros((3, 2)), 1.0)
    batch = rand_batch(np.random.default_rng(73), rows, 3, 2)
    with pytest.raises(StateIntegrityError):
        learn_update(tracking, model, batch)


def test_learn_rejects_gamma_mismatch():
    rng = np.random.default_rng(0)
    model, _ = joint_fit(rand_batch(rng, 5, 3, 2), 1.0)
    tracking = TrackingMatrix.fresh(3, 2.0)
    with pytest.raises(ContractViolation):
        learn_update(tracking, model, rand_batch(rng, 0, 3, 2))


@pytest.mark.parametrize("kind", ["learn", "unlearn_model"])
def test_requests_reject_a_batch_of_another_class_count(kind):
    rng = np.random.default_rng(2)
    model, tracking = joint_fit(rand_batch(rng, 5, 3, 2), 1.0)
    batch = rand_batch(rng, 2, 3, 3, id_start=5)
    with pytest.raises(ContractViolation, match="batch class count 3 does not match 2"):
        if kind == "learn":
            learn_update(tracking, model, batch)
        else:
            unlearn_model(model, tracking, batch)


# --------------------------------------------------------- unlearn_tracking


def test_unlearn_single_sample_returns_fresh_inverse():
    batch = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    _, tracking = joint_fit(batch, 1.0)
    emptied = unlearn_tracking(tracking, batch)
    assert np.allclose(emptied.matrix, np.eye(2), atol=1e-12)


def test_unlearn_empty_batch_is_identity():
    rng = np.random.default_rng(0)
    _, tracking = joint_fit(rand_batch(rng, 5, 3, 2), 1.0)
    assert unlearn_tracking(tracking, rand_batch(rng, 0, 3, 2)) is tracking


def test_unlearn_tracking_matches_dense_inverse_of_survivors():
    rng = np.random.default_rng(19)
    batch = rand_batch(rng, 40, 8, 3)
    _, tracking = joint_fit(batch, 0.4)
    picked = rng.choice(40, size=7, replace=False)
    forget = permuted(batch, picked)
    keep = np.setdiff1d(np.arange(40), picked)
    updated = unlearn_tracking(tracking, forget)
    want = gram_inverse_oracle(batch.features[keep], 0.4)
    assert rel_fro(updated.matrix, want) <= 1e-9


def test_unlearn_singular_core_raises_without_mutation():
    batch = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    _, tracking = joint_fit(batch, 1.0)
    before = tracking.matrix.copy()
    # scaled row yields removal core exactly zero: 1 - 2 * (1/2)
    poisoned = FeatureBatch([[np.sqrt(2.0), 0.0]], [[1.0, 0.0]], [0])
    with pytest.raises(UnlearnabilityError, match="removal core"):
        unlearn_tracking(tracking, poisoned)
    assert np.array_equal(tracking.matrix, before)


def test_unlearn_tall_batch_matches_dense_inverse_of_survivors():
    # m >= d takes the d x d dual form of the removal
    rng = np.random.default_rng(61)
    batch = rand_batch(rng, 60, 5, 3)
    model, tracking = joint_fit(batch, 0.4)
    picked = rng.choice(60, size=12, replace=False)
    forget = permuted(batch, picked)
    keep = np.setdiff1d(np.arange(60), picked)
    updated = unlearn_tracking(tracking, forget)
    after = unlearn_model(model, updated, forget)
    features, labels = batch.features[keep], batch.labels[keep]
    assert rel_fro(updated.matrix, gram_inverse_oracle(features, 0.4)) <= 1e-9
    assert rel_fro(after.weights, solve_weights_oracle(features, labels, 0.4)) <= 1e-9


def test_unlearn_tall_singular_core_raises_without_mutation():
    # T = I / 2 after learning e1 and e2 with gamma 1; removing sqrt(2) e1
    # also takes out gamma's share of that direction, so I - K^T F^T F K is
    # singular
    learned = FeatureBatch(np.eye(2), np.eye(2), [0, 1])
    model, tracking = joint_fit(learned, 1.0)
    before = tracking.matrix.copy()
    poisoned = FeatureBatch([[np.sqrt(2.0), 0.0], [0.0, 1.0]], np.eye(2), [0, 1])
    with pytest.raises(UnlearnabilityError, match="removal core"):
        unlearn_tracking(tracking, poisoned)
    assert np.array_equal(tracking.matrix, before)


def test_unlearn_ill_conditioned_core_raises_through_condition_estimate():
    batch = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    _, tracking = joint_fit(batch, 1.0)
    x = np.sqrt(2.0 * (1.0 - 1e-14))
    # the 1 x 1 core 1 - x T x^T is positive, so Cholesky succeeds
    core = 1.0 - x * x * tracking.matrix[0, 0]
    assert 0.0 < core < 1e-12
    before = tracking.matrix.copy()
    nearly = FeatureBatch([[x, 0.0]], [[1.0, 0.0]], [0])
    with pytest.raises(UnlearnabilityError, match="condition estimate"):
        unlearn_tracking(tracking, nearly)
    assert np.array_equal(tracking.matrix, before)


@pytest.mark.parametrize("spoiled", ["consumed", "diagonal"])
@pytest.mark.parametrize("rows", [3, 12], ids=["primal", "dual"])  # feature_dim 6
@pytest.mark.parametrize("kind", ["learn", "forget"])
def test_updates_seal_no_nonfinite_tracking_matrix(monkeypatch, kind, rows, spoiled):
    # after the real SYRK, one non-finite entry goes into the matrix it
    # consumed (G^T or M) or onto the diagonal of T', leaving the rest finite
    rng = np.random.default_rng(89)
    base = rand_batch(rng, 40, 6, 3)
    model, tracking = joint_fit(base, 0.5)
    batch = rand_batch(rng, rows, 6, 3, id_start=100)
    if kind == "forget":
        batch = permuted(base, rng.choice(40, size=rows, replace=False))
    dsyrk = core.blas.dsyrk

    def spoiling(alpha, a, **kwargs):
        out = dsyrk(alpha, a, **kwargs)
        if spoiled == "consumed":
            a[-1, 0] = np.inf
        else:
            out[2, 2] = np.nan
        return out

    monkeypatch.setattr(core.blas, "dsyrk", spoiling)
    with pytest.raises(ContractViolation, match="tracking matrix must be finite"):
        if kind == "learn":
            learn_update(tracking, model, batch)
        else:
            unlearn_tracking(tracking, batch)


@pytest.mark.parametrize(
    "gamma, scales, bound_t, bound_w",
    # bounds about 3x the largest errors measured before G^T came from the
    # core's triangular inverse (a right-side TRSM): 1.8e-6 and 4.9e-9 at
    # gamma 1e-4, 3.1e-6 and 8.4e-8 at gamma 1e-6
    [(1e-4, (10.0, 100.0, 300.0), 6e-6, 1.5e-8),
     (1e-6, (1.0, 10.0, 30.0), 1e-5, 2.5e-7)],
)
def test_near_guard_forgets_match_a_dense_inverse(gamma, scales, bound_t, bound_w):
    # the forgotten rows alone span the last k directions, where the
    # survivors' Gram has only gamma: the removal core nears singular
    d, c = 24, 4
    worst_t = worst_w = 0.0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        k = 1 + seed % 3
        kept = rng.standard_normal((60, d))
        kept[:, d - k :] = 0.0
        gone = rng.standard_normal((6, d))
        gone[:, d - k :] *= scales[seed % 3]
        base = FeatureBatch(
            np.concatenate([kept, gone]), np.eye(c)[rng.integers(0, c, 66)], np.arange(66)
        )
        removal_core = np.eye(6) - gone @ gram_inverse_oracle(base.features, gamma) @ gone.T
        assert 1e6 <= np.linalg.cond(removal_core) <= 1e10
        model, tracking = joint_fit(base, gamma)
        forget = permuted(base, np.arange(60, 66))
        after = unlearn_tracking(tracking, forget)
        weights = unlearn_model(model, after, forget).weights
        worst_t = max(worst_t, rel_fro(after.matrix, gram_inverse_oracle(kept, gamma)))
        want_w = solve_weights_oracle(kept, base.labels[:60], gamma)
        worst_w = max(worst_w, rel_fro(weights, want_w))
    assert worst_t <= bound_t
    assert worst_w <= bound_w


@pytest.mark.parametrize("rows", [3, 12])  # below and above feature_dim 6
def test_update_outputs_are_read_only_and_inputs_untouched(rows):
    rng = np.random.default_rng(67)
    base = rand_batch(rng, 40, 6, 3)
    model, tracking = joint_fit(base, 0.5)
    extra = rand_batch(rng, rows, 6, 3, id_start=100)
    snapshot = (tracking.matrix.copy(), model.weights.copy())
    grown_tracking, grown_model = learn_update(tracking, model, extra)
    assert np.array_equal(tracking.matrix, snapshot[0])
    assert np.array_equal(model.weights, snapshot[1])
    grown = (grown_tracking.matrix.copy(), grown_model.weights.copy())
    shrunk_tracking = unlearn_tracking(grown_tracking, extra)
    shrunk_model = unlearn_model(grown_model, shrunk_tracking, extra)
    assert np.array_equal(grown_tracking.matrix, grown[0])
    assert np.array_equal(grown_model.weights, grown[1])
    outputs = (
        tracking.matrix, model.weights,
        grown_tracking.matrix, grown_model.weights,
        shrunk_tracking.matrix, shrunk_model.weights,
    )
    for array in outputs:
        with pytest.raises(ValueError):
            array[0, 0] = 99.0
    assert np.array_equal(shrunk_tracking.matrix, shrunk_tracking.matrix.T)


# ------------------------------------------------------------ unlearn_model


def test_unlearn_model_empty_batch_is_identity():
    rng = np.random.default_rng(0)
    model, tracking = joint_fit(rand_batch(rng, 5, 3, 2), 1.0)
    assert unlearn_model(model, tracking, rand_batch(rng, 0, 3, 2)) is model


def test_forget_everything_zeroes_the_model():
    rng = np.random.default_rng(29)
    batch = rand_batch(rng, 10, 4, 2)
    model, tracking = joint_fit(batch, 0.8)
    scale = np.linalg.norm(model.weights)
    emptied_tracking = unlearn_tracking(tracking, batch)
    emptied_model = unlearn_model(model, emptied_tracking, batch)
    assert np.linalg.norm(emptied_model.weights) <= 1e-10 * max(scale, 1.0)
    assert np.allclose(emptied_tracking.matrix, np.eye(4) / 0.8, atol=1e-9)


def test_unlearn_one_of_two_reproduces_single_sample_fit():
    keep = FeatureBatch([[1.0, 0.0]], [[1.0, 0.0]], [0])
    drop = FeatureBatch([[0.0, 1.0]], [[0.0, 1.0]], [1])
    model, tracking = joint_fit(batch_union(keep, drop), 1.0)
    after_tracking = unlearn_tracking(tracking, drop)
    after_model = unlearn_model(model, after_tracking, drop)
    assert np.allclose(after_model.weights, [[0.5, 0.0], [0.0, 0.0]], atol=1e-12)


def test_unlearn_model_matches_joint_fit_oracle():
    rng = np.random.default_rng(31)
    batch = rand_batch(rng, 30, 5, 3)
    model, tracking = joint_fit(batch, 0.6)
    picked = rng.choice(30, size=9, replace=False)
    forget = permuted(batch, picked)
    keep = np.setdiff1d(np.arange(30), picked)
    after_tracking = unlearn_tracking(tracking, forget)
    after_model = unlearn_model(model, after_tracking, forget)
    want = solve_weights_oracle(batch.features[keep], batch.labels[keep], 0.6)
    assert rel_fro(after_model.weights, want) <= 1e-8


@pytest.mark.parametrize(
    "d, m", [(40, 10), _threaded_size(), (40, 39)],
    ids=["small", "threaded", "largest-primal-core"],
)
def test_weight_step_paths_agree_with_a_refit(d, m):
    # unlearn_model takes T' F^T r = G^T L^(-1) r from the update's G and L
    # only for the batch object unlearn_tracking removed; every other pair
    # reads T'
    rng = np.random.default_rng(89)
    gamma = 0.4
    base = rand_batch(rng, 3 * d, d, 4)
    model, tracking = joint_fit(base, gamma)
    picked = rng.choice(3 * d, size=m, replace=False)
    forget = permuted(base, picked)
    after = unlearn_tracking(tracking, forget)
    assert after._update[0] is forget
    equal = FeatureBatch(forget.features, forget.labels, forget.sample_ids)
    rebuilt = TrackingMatrix(after.matrix, gamma)
    assert rebuilt._update is None
    weights = [
        unlearn_model(model, after, forget).weights,
        unlearn_model(model, after, equal).weights,
        unlearn_model(model, rebuilt, forget).weights,
    ]
    keep = np.setdiff1d(np.arange(3 * d), picked)
    want = solve_weights_oracle(base.features[keep], base.labels[keep], gamma)
    for got in weights:
        assert rel_fro(got, want) <= 1e-10
        assert rel_fro(got, weights[0]) <= 1e-12
    # with other rows the step is still W + T' F^T (F W - Y), read from T'
    other = rand_batch(rng, m, d, 4, id_start=10 * d)
    f, y = other.features, other.labels
    step = after.matrix @ f.T @ (f @ model.weights - y)
    assert rel_fro(unlearn_model(model, after, other).weights, model.weights + step) <= 1e-12


def _garbled(tracking, rng):
    """`tracking` rewrapped from a copy of its working array whose unused
    upper triangle holds wrong values: NaN, +-inf and large finite ones.
    Sealed as the output of a rank-0 update, whose check reads the diagonal
    and never the upper triangle."""
    lower = tracking._lower.copy(order="F")
    upper = np.triu_indices(len(lower), 1)
    values = 1e3 * rng.standard_normal(len(upper[0]))
    values[rng.permutation(len(values))[:3]] = [np.nan, np.inf, -np.inf]
    lower[upper] = values
    return TrackingMatrix._trusted(lower, tracking.gamma, consumed=lower[:, :0])


@pytest.mark.parametrize("m", [5, 30], ids=["primal", "dual"])  # d = 12
def test_updates_read_only_the_lower_triangle_of_t(m):
    rng = np.random.default_rng(97)
    gamma, d = 0.4, 12
    base = rand_batch(rng, 60, d, 3)
    model, tracking = joint_fit(base, gamma)
    extra = rand_batch(rng, m, d, 3, id_start=100)
    grown_tracking, grown_model = learn_update(_garbled(tracking, rng), model, extra)
    both = batch_union(base, extra)
    want_t = gram_inverse_oracle(both.features, gamma)
    assert rel_fro(grown_tracking.matrix, want_t) <= 1e-9
    assert rel_fro(grown_model.weights, solve_weights_oracle(both.features, both.labels, gamma)) <= 1e-9

    picked = rng.choice(60, size=m, replace=False)
    forget = permuted(base, picked)
    keep = np.setdiff1d(np.arange(60), picked)
    want_t = gram_inverse_oracle(base.features[keep], gamma)
    want_w = solve_weights_oracle(base.features[keep], base.labels[keep], gamma)
    after = unlearn_tracking(_garbled(tracking, rng), forget)
    assert rel_fro(after.matrix, want_t) <= 1e-9
    assert rel_fro(unlearn_model(model, after, forget).weights, want_w) <= 1e-9
    # a T' that records no update takes the weight step from its triangle
    assert rel_fro(unlearn_model(model, _garbled(after, rng), forget).weights, want_w) <= 1e-9


def test_requests_never_build_the_full_matrix():
    rng = np.random.default_rng(101)
    model, tracking = joint_fit(rand_batch(rng, 40, 8, 3), 0.5)
    made = [tracking]
    for start, rows in ((100, 3), (200, 20)):  # primal, then dual
        tracking, model = learn_update(tracking, model, rand_batch(rng, rows, 8, 3, start))
        made.append(tracking)
    for t in made:
        assert "matrix" not in vars(t)
    for t in made:
        full = t.matrix
        assert full is t.matrix and not full.flags.writeable
        assert np.array_equal(full, full.T)
        assert np.array_equal(np.tril(full), np.tril(t._lower))


# ----------------------------------------------------------------- predict


def test_predict_zero_weights_ties_to_class_zero():
    model = AnalyticModel(np.zeros((3, 4)), 1.0)
    scores, classes = predict(model, np.random.default_rng(0).standard_normal((5, 3)))
    assert np.array_equal(scores, np.zeros((5, 4)))
    assert np.array_equal(classes, np.zeros(5, dtype=np.int64))


def test_predict_permutation_readout():
    weights = np.zeros((4, 4))
    np.fill_diagonal(weights, 1.0)
    model = AnalyticModel(weights, 1.0)
    rows = np.eye(4)
    _, classes = predict(model, rows)
    assert np.array_equal(classes, np.arange(4))


def test_predict_matches_naive_argmax():
    rng = np.random.default_rng(37)
    model = AnalyticModel(rng.standard_normal((6, 4)), 1.0)
    rows = rng.standard_normal((10, 6))
    _, classes = predict(model, rows)
    for r in range(10):
        scores = [float(rows[r] @ model.weights[:, c]) for c in range(4)]
        best, best_class = scores[0], 0
        for c in range(1, 4):
            if scores[c] > best:
                best, best_class = scores[c], c
        assert classes[r] == best_class


def test_predict_dimension_mismatch():
    model = AnalyticModel(np.zeros((3, 2)), 1.0)
    with pytest.raises(ContractViolation):
        predict(model, np.zeros((2, 4)))


# ------------------------------------------------------ invariant properties


def _forget_stream_state(rng, n, d_f, d_c, gamma, forget_sizes):
    """Fit a base batch, then return (batch, forget list, final T/W pairs)."""
    base = rand_batch(rng, n, d_f, d_c)
    model, tracking = joint_fit(base, gamma)
    all_indices = rng.permutation(n)
    batches, used = [], 0
    for size in forget_sizes:
        picked = all_indices[used : used + size]
        used += size
        batches.append(permuted(base, picked))
    return base, batches, model, tracking


def test_exactness_through_forget_requests():
    rng = np.random.default_rng(41)
    for _ in range(5):
        gamma = float(rng.uniform(0.05, 1.0))
        base, batches, model, tracking = _forget_stream_state(
            rng, 60, 6, 3, gamma, [8, 8, 8]
        )
        removed = np.zeros(0, dtype=np.int64)
        for forget in batches:
            tracking = unlearn_tracking(tracking, forget)
            model = unlearn_model(model, tracking, forget)
            removed = np.concatenate([removed, forget.sample_ids])
            keep = ~np.isin(base.sample_ids, removed)
            want = solve_weights_oracle(
                base.features[keep], base.labels[keep], gamma
            )
            norm = max(float(np.linalg.norm(want)), 1e-30)
            assert float(np.linalg.norm(model.weights - want)) / norm <= 1e-8


def test_tracking_identity_through_interleaved_updates():
    rng = np.random.default_rng(43)
    gamma = 0.3
    d_f = 5
    model = AnalyticModel(np.zeros((d_f, 2)), gamma)
    tracking = TrackingMatrix.fresh(d_f, gamma)
    learned = []
    next_id = 0
    for step in range(12):
        if step % 3 == 2 and learned:
            forget = learned.pop(rng.integers(0, len(learned)))
            tracking = unlearn_tracking(tracking, forget)
            model = unlearn_model(model, tracking, forget)
        else:
            batch = rand_batch(rng, int(rng.integers(1, 6)), d_f, 2, next_id)
            next_id += len(batch)
            tracking, model = learn_update(tracking, model, batch)
            learned.append(batch)
        if learned:
            features = np.concatenate([b.features for b in learned])
        else:
            features = np.zeros((0, d_f))
        gram = features.T @ features + gamma * np.eye(d_f)
        residual = np.abs(tracking.matrix @ gram - np.eye(d_f)).max()
        assert residual <= 1e-8


def test_forget_request_order_does_not_matter():
    rng = np.random.default_rng(47)
    base, batches, model, tracking = _forget_stream_state(
        rng, 50, 6, 3, 0.5, [7, 7, 7, 7]
    )
    finals = []
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        t, w = tracking, model
        for k in order:
            t = unlearn_tracking(t, batches[k])
            w = unlearn_model(w, t, batches[k])
        finals.append((t.matrix, w.weights))
    assert rel_fro(finals[0][0], finals[1][0]) <= 1e-8
    assert rel_fro(finals[0][1], finals[1][1]) <= 1e-8


def test_row_order_inside_batch_does_not_matter():
    rng = np.random.default_rng(53)
    base = rand_batch(rng, 25, 5, 3)
    shuffled = permuted(base, rng.permutation(25))
    gamma = 0.7
    model_a, tracking_a = joint_fit(base, gamma)
    model_b, tracking_b = joint_fit(shuffled, gamma)
    assert rel_fro(model_a.weights, model_b.weights) <= 1e-10
    assert rel_fro(tracking_a.matrix, tracking_b.matrix) <= 1e-10
    extra = rand_batch(rng, 10, 5, 3, id_start=500)
    extra_shuffled = permuted(extra, rng.permutation(10))
    grown_a = learn_update(tracking_a, model_a, extra)
    grown_b = learn_update(tracking_a, model_a, extra_shuffled)
    assert rel_fro(grown_a[0].matrix, grown_b[0].matrix) <= 1e-10
    assert rel_fro(grown_a[1].weights, grown_b[1].weights) <= 1e-10
    forget_a = unlearn_tracking(grown_a[0], extra)
    forget_b = unlearn_tracking(grown_a[0], extra_shuffled)
    assert rel_fro(forget_a.matrix, forget_b.matrix) <= 1e-10


def test_tracking_stays_symmetric_and_pd_through_100_requests():
    rng = np.random.default_rng(59)
    gamma = 0.2
    d_f = 6
    model = AnalyticModel(np.zeros((d_f, 3)), gamma)
    tracking = TrackingMatrix.fresh(d_f, gamma)
    learned = []
    next_id = 0
    for step in range(100):
        if step % 2 == 0 or not learned:
            batch = rand_batch(rng, int(rng.integers(1, 5)), d_f, 3, next_id)
            next_id += len(batch)
            tracking, model = learn_update(tracking, model, batch)
            learned.append(batch)
        else:
            forget = learned.pop(rng.integers(0, len(learned)))
            tracking = unlearn_tracking(tracking, forget)
            model = unlearn_model(model, tracking, forget)
        asymmetry = np.abs(tracking.matrix - tracking.matrix.T).max()
        assert asymmetry <= 1e-10 * max(np.abs(tracking.matrix).max(), 1.0)
        assert np.linalg.eigvalsh(tracking.matrix).min() > 0


def test_long_interleaved_stream_drift_stays_bounded():
    # 2,000 alternating learn / forget requests of 1-12 rows at d = 6, so
    # both the m x m and the d x d form run.  Measured over five seeds:
    # T (Gram + gamma I) within 5e-14 of I, W within 4e-14 of a refit.
    rng = np.random.default_rng(71)
    d_f, d_c, gamma, steps = 6, 3, 0.1, 2000
    pool = rand_batch(rng, 200 + 6 * steps, d_f, d_c)
    retained = list(range(200))
    model, tracking = joint_fit(permuted(pool, retained), gamma)
    next_row = 200
    for step in range(steps):
        size = int(rng.integers(1, 2 * d_f + 1))
        if step % 2 == 0:
            rows = list(range(next_row, next_row + size))
            next_row += size
            tracking, model = learn_update(tracking, model, permuted(pool, rows))
            retained += rows
        else:
            size = min(size, len(retained))
            picked = set(rng.choice(retained, size=size, replace=False).tolist())
            forget = permuted(pool, sorted(picked))
            tracking = unlearn_tracking(tracking, forget)
            model = unlearn_model(model, tracking, forget)
            retained = [r for r in retained if r not in picked]
    features = pool.features[retained]
    gram = features.T @ features + gamma * np.eye(d_f)
    assert np.abs(tracking.matrix @ gram - np.eye(d_f)).max() <= 1e-11
    want = solve_weights_oracle(features, pool.labels[retained], gamma)
    assert rel_fro(model.weights, want) <= 1e-11
    assert np.array_equal(tracking.matrix, tracking.matrix.T)


def test_threaded_interleaved_stream_drift_stays_bounded():
    # 200 alternating learn / forget requests of m rows on the threaded
    # primal branch, each weight step taken from G and L
    rng = np.random.default_rng(97)
    d_f, m = _threaded_size()
    d_c, gamma, steps = 4, 0.1, 200
    pool = rand_batch(rng, 4 * d_f + m * steps // 2, d_f, d_c)
    retained = list(range(4 * d_f))
    model, tracking = joint_fit(permuted(pool, retained), gamma)
    next_row = len(retained)
    for step in range(steps):
        if step % 2 == 0:
            rows = list(range(next_row, next_row + m))
            next_row += m
            tracking, model = learn_update(tracking, model, permuted(pool, rows))
            retained += rows
        else:
            picked = set(rng.choice(retained, size=m, replace=False).tolist())
            forget = permuted(pool, sorted(picked))
            tracking = unlearn_tracking(tracking, forget)
            model = unlearn_model(model, tracking, forget)
            retained = [r for r in retained if r not in picked]
    features = pool.features[retained]
    gram = features.T @ features + gamma * np.eye(d_f)
    assert np.abs(tracking.matrix @ gram - np.eye(d_f)).max() <= 1e-11
    want = solve_weights_oracle(features, pool.labels[retained], gamma)
    assert rel_fro(model.weights, want) <= 1e-11
    assert np.array_equal(tracking.matrix, tracking.matrix.T)
