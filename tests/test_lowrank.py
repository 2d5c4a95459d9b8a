import functools
import itertools
import sys
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import bathkit.lowrank as lowrank
from bathkit.discretize import FdrGrid, FdrOperator, assemble_fdr, fdr_factor, reference_bcf
from bathkit.errors import ValidationError
from bathkit.lowrank import column_id, nnls
from bathkit.specdens import NoiseKernel, Temperature
from bathkit.surrogate import SURROGATE_OMEGA_MAX, surrogate_sd


def random_orthogonal(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def matrix_with_spectrum(m, n, sigmas, rng):
    """Dense matrix with prescribed singular values (padded with zeros)."""
    k = min(m, n)
    s = np.zeros(k)
    s[: len(sigmas)] = sigmas
    u = random_orthogonal(m, rng)[:, :k]
    v = random_orthogonal(n, rng)[:, :k]
    return (u * s) @ v.T


def id_bound(n, r, tol):
    return 5.0 * (1.0 + np.sqrt(n * r)) * tol


def brute_force_nnls(a, b):
    """Best feasible least-squares solution over every support set."""
    m, n = a.shape
    best_z, best_res = np.zeros(n), np.linalg.norm(b)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            cols = list(support)
            sol, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
            if np.min(sol) < 0.0:
                continue
            z = np.zeros(n)
            z[cols] = sol
            res = np.linalg.norm(a @ z - b)
            if res < best_res - 1e-14:
                best_z, best_res = z, res
    return best_z, best_res


# --- column_id -------------------------------------------------------------


def test_id_identity_matrix_full_rank():
    res = column_id(np.eye(3), tol=1e-12)
    assert res.rank == 3
    np.testing.assert_allclose(res.interp[:, res.selected], np.eye(3), atol=0)


def test_id_rank_one_outer_product():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(100), rng.standard_normal(50)
    f = np.outer(u, v)
    res = column_id(f, tol=1e-8)
    assert res.rank == 1
    b = f[:, res.selected]
    rel = np.linalg.norm(f - b @ res.interp) / np.linalg.norm(f)
    assert rel <= 1e-8


def test_id_prescribed_spectrum_vs_svd_oracle():
    # singular values 2^-k; the SVD count of sigma_k > tol*sigma_1 is the
    # independent rank oracle, allowed to differ by at most 2.
    rng = np.random.default_rng(17)
    tol = 1e-4
    sigmas = 2.0 ** -np.arange(30.0)
    f = matrix_with_spectrum(100, 400, sigmas, rng)
    svd_count = int(np.sum(np.linalg.svd(f, compute_uv=False) > tol * sigmas[0]))
    res = column_id(f, tol=tol)
    assert abs(res.rank - svd_count) <= 2
    b = f[:, res.selected]
    rel = np.linalg.norm(f - b @ res.interp) / np.linalg.norm(f)
    assert rel <= 1e-3


@pytest.mark.parametrize("seed", range(20))
def test_id_reconstruction_bound_and_identity_substructure(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(20, 80), rng.integers(20, 120)
    decay = rng.uniform(0.3, 0.9)
    sigmas = decay ** np.arange(min(m, n), dtype=float)
    f = matrix_with_spectrum(m, n, sigmas, rng)
    tol = 10.0 ** rng.uniform(-8, -1)
    res = column_id(f, tol=tol)
    if res.rank == 0:
        assert np.linalg.norm(f) <= 5 * tol * np.linalg.norm(f)
        return
    # exact identity on the selected columns
    sub = res.interp[:, res.selected]
    assert np.max(np.abs(sub - np.eye(res.rank))) <= 1e-12
    # distinct, in-range selection
    assert len(set(res.selected.tolist())) == res.rank
    assert res.selected.min() >= 0 and res.selected.max() < n
    # reconstruction bound
    b = f[:, res.selected]
    err = np.linalg.norm(f - b @ res.interp)
    assert err <= id_bound(n, res.rank, tol) * np.linalg.norm(f)


def test_id_pivot_prefix_property():
    # a looser tol stops the same pivot sequence earlier: a tol between two
    # successive pivot norms of the full run gives exactly that prefix
    rng = np.random.default_rng(5)
    f = matrix_with_spectrum(60, 90, 0.7 ** np.arange(60.0), rng)
    full = column_id(f, tol=1e-10)
    assert full.rank > 5
    norms = full.pivot_norms
    for r_prime in (1, 3, full.rank - 2):
        part = column_id(f, tol=np.sqrt(norms[r_prime - 1] * norms[r_prime]) / norms[0])
        assert part.rank == r_prime
        np.testing.assert_array_equal(part.selected, full.selected[:r_prime])
        np.testing.assert_array_equal(part.pivot_norms, norms[: r_prime + 1])


def test_id_zero_matrix_yields_empty_selection():
    res = column_id(np.zeros((4, 6)), tol=1e-3)
    assert res.rank == 0
    assert res.selected.size == 0
    assert res.interp.shape == (0, 6)


def test_id_input_validation():
    for tol in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValidationError, match="tol"):
            column_id(np.ones((2, 2)), tol=tol)
    with pytest.raises(ValidationError):
        column_id(np.array([[1.0, np.inf], [0.0, 1.0]]), tol=1e-3)
    with pytest.raises(ValidationError):
        column_id(np.ones(3), tol=1e-3)


def test_id_determinism():
    rng = np.random.default_rng(23)
    f = rng.standard_normal((40, 70))
    a = column_id(f, tol=1e-6)
    b = column_id(f, tol=1e-6)
    np.testing.assert_array_equal(a.selected, b.selected)
    np.testing.assert_array_equal(a.interp, b.interp)
    np.testing.assert_array_equal(a.pivot_norms, b.pivot_norms)


class CountingColumns:
    """A column operator, or a dense matrix as one, that counts the columns it builds."""

    def __init__(self, f):
        self.op = f if hasattr(f, "rmatvec") else lowrank._Dense(f)
        self.shape = self.op.shape
        self.norms2 = self.op.norms2
        self.built = 0
        self.seen = set()

    def columns(self, idx):
        self.built += len(idx)
        self.seen.update(int(j) for j in idx)
        return self.op.columns(idx)

    def rmatvec(self, q):
        return self.op.rmatvec(q)

    def gram_row(self, j):
        return self.op.gram_row(j)


@pytest.mark.parametrize("seed", range(8))
def test_id_pivots_match_geqp3_with_graded_column_norms(seed):
    # column norms graded over 1e-12 .. 1 on a fast-decaying spectrum: the
    # downdated norms lose their leading digits, so the exact recompute
    # must fire; LAPACK geqp3 is the independent pivot-order oracle.
    rng = np.random.default_rng(seed)
    m, n = 80, 120
    f = matrix_with_spectrum(m, n, 0.6 ** np.arange(min(m, n), dtype=float), rng)
    f *= np.logspace(0.0, -12.0, n)[rng.permutation(n)]
    op = CountingColumns(f)
    res = column_id(op, tol=1e-8)
    k = res.rank
    assert k >= 20
    assert op.built > k + 1  # columns beyond the k + 1 pivot candidates: recomputes
    piv = scipy.linalg.qr(f, pivoting=True, mode="r")[1]
    np.testing.assert_array_equal(res.selected, piv[:k])


@pytest.mark.parametrize("seed", range(3))
def test_id_stays_accurate_down_to_roundoff(seed):
    # about 45 pivots on singular values 2^-k reach residuals near 1e-14; the
    # second Gram-Schmidt pass keeps Q orthogonal there (one pass leaves
    # errors near 1e-8)
    rng = np.random.default_rng(seed)
    f = matrix_with_spectrum(60, 90, 0.5 ** np.arange(60.0), rng)
    res = column_id(f, tol=1e-13)
    assert res.rank >= 40
    err = np.linalg.norm(f - f[:, res.selected] @ res.interp)
    assert err <= 1e-11 * np.linalg.norm(f)


def test_id_interp_is_built_on_first_read():
    rng = np.random.default_rng(29)
    f = matrix_with_spectrum(30, 60, 0.7 ** np.arange(30.0), rng)
    res = column_id(f, tol=1e-8)
    assert "interp" not in vars(res)
    interp = res.interp
    assert res.interp is interp
    # the eager formula: P = T^-1 R on the ID's triangle, exact identity on selected
    eager = np.linalg.solve(res.triangle, res.r_rows)
    eager[:, res.selected] = np.eye(res.rank)
    np.testing.assert_array_equal(interp, eager)


def assert_qr_factor_of_selected(res, f_selected):
    """f[:, selected] = q.T @ triangle, T upper with the pivot norms on its diagonal, q orthonormal."""
    t, q = res.triangle, res.q
    assert t.shape == (res.rank, res.rank) and q.shape == (res.rank, f_selected.shape[0])
    np.testing.assert_array_equal(np.tril(t, -1), 0.0)
    np.testing.assert_array_equal(np.diag(t), res.pivot_norms[: res.rank])
    assert np.max(np.abs(q.T @ t - f_selected)) <= 1e-13 * res.pivot_norms[0]
    assert np.max(np.abs(q @ q.T - np.eye(res.rank))) <= 1e-13


@pytest.mark.parametrize("tol", [1e-2, 1e-8])
def test_id_keeps_the_qr_factor_of_its_columns_on_a_dense_matrix(tol):
    rng = np.random.default_rng(3)
    f = matrix_with_spectrum(60, 90, 0.7 ** np.arange(60.0), rng)
    res = column_id(f, tol=tol)
    assert res.rank > 10
    assert_qr_factor_of_selected(res, f[:, res.selected])


def test_id_returns_q_and_r_at_its_rank():
    # both worst-case (min(m, n)-row) buffers come back with the rank's rows, owning them
    rng = np.random.default_rng(12)
    f = rng.standard_normal((40, 12)) @ rng.standard_normal((12, 70))
    res = column_id(f, tol=1e-8)
    assert res.rank == 12
    assert res.q.shape == (12, 40) and res.r_rows.shape == (12, 70)
    assert res.q.flags.owndata and res.r_rows.flags.owndata


def under_a_locals_reading_tracer(call, *args, **kwargs):
    """``call(*args, **kwargs)`` under a line tracer that reads every frame's
    locals at every event, as a debugger showing variables does."""

    def tracer(frame, event, arg):
        frame.f_locals  # what a debugger's variables view reads
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        return call(*args, **kwargs)
    finally:
        sys.settrace(previous)


def assert_same_arrays(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        elif isinstance(x, lowrank.IdResult):
            assert_same_arrays(x, y)
        else:
            assert x == y, f.name


def test_id_under_a_tracer_that_reads_its_locals():
    # the tracer's snapshot of the locals refers to Q's and R's buffers, so the
    # in-place shrink is refused and the used rows are copied instead
    rng = np.random.default_rng(5)
    f = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 30))
    traced = under_a_locals_reading_tracer(column_id, f, tol=1e-10)
    assert_same_arrays(traced, column_id(f, tol=1e-10))
    assert traced.rank == 5
    assert traced.q.shape == (5, 20) and traced.r_rows.shape == (5, 30)
    assert traced.q.flags.owndata and traced.r_rows.flags.owndata


def test_factor_under_a_tracer_that_reads_locals():
    kernel = NoiseKernel(surrogate_sd(), Temperature.finite(300.0))
    grid = FdrGrid(t_max_fs=100.0, omega_max_cm1=600.0, n_time=64, n_freq=2000)
    traced = under_a_locals_reading_tracer(fdr_factor, kernel, grid, 1e-2)
    assert_same_arrays(traced, fdr_factor(kernel, grid, 1e-2))


def test_id_operator_and_dense_matrix_agree():
    rng = np.random.default_rng(11)
    f = matrix_with_spectrum(50, 90, 0.8 ** np.arange(50.0), rng)
    dense = column_id(f, tol=1e-6)
    wrapped = column_id(CountingColumns(f), tol=1e-6)
    np.testing.assert_array_equal(wrapped.selected, dense.selected)
    np.testing.assert_array_equal(wrapped.interp, dense.interp)
    np.testing.assert_array_equal(wrapped.pivot_norms, dense.pivot_norms)


@pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
def test_id_pivot_norms_decay(tol):
    rng = np.random.default_rng(29)
    f = matrix_with_spectrum(70, 100, 0.75 ** np.arange(70.0), rng)
    res = column_id(f, tol=tol)
    norms = res.pivot_norms
    assert norms.shape == (res.rank + 1,)
    assert np.all(np.diff(norms) <= 1e-12 * norms[0])
    assert norms[-1] <= tol * norms[0]
    assert np.all(norms[:-1] > tol * norms[0])
    # the first pivot is the largest column
    assert norms[0] == pytest.approx(np.max(np.linalg.norm(f, axis=0)), rel=1e-14)


def test_id_pivot_norms_at_full_rank():
    res = column_id(np.eye(3), tol=1e-12)
    np.testing.assert_array_equal(res.pivot_norms, [1.0, 1.0, 1.0, 0.0])


def test_id_skips_zero_columns():
    rng = np.random.default_rng(4)
    f = np.zeros((30, 40))
    f[:, ::2] = matrix_with_spectrum(30, 20, 0.5 ** np.arange(20.0), rng)
    op = CountingColumns(f)
    res = column_id(op, tol=1e-9)
    assert np.all(res.selected % 2 == 0)
    np.testing.assert_array_equal(res.interp[:, 1::2], 0.0)
    # zero columns are never pivot candidates and never recomputed
    assert op.seen and all(j % 2 == 0 for j in op.seen)


def test_id_rejects_overflowing_column_norms():
    with pytest.raises(ValidationError):
        column_id(np.full((2, 2), 1e200), tol=1e-3)


# --- nnls -------------------------------------------------------------------


def test_nnls_clips_negative_component():
    res = nnls(np.eye(2), np.array([1.0, -1.0]))
    np.testing.assert_array_equal(res.z, [1.0, 0.0])
    assert res.residual_norm == pytest.approx(1.0, rel=1e-14)
    assert res.converged


def test_nnls_feasible_unconstrained_optimum():
    res = nnls(np.eye(3), np.array([2.0, 0.0, 3.0]))
    np.testing.assert_allclose(res.z, [2.0, 0.0, 3.0], atol=1e-12)
    assert res.residual_norm <= 1e-12


def test_nnls_matches_brute_force_20x6():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((20, 6))
    b = rng.standard_normal(20)
    res = nnls(a, b)
    z_star, res_star = brute_force_nnls(a, b)
    assert res.converged
    assert res.residual_norm == pytest.approx(res_star, abs=1e-8)
    np.testing.assert_allclose(res.z, z_star, atol=1e-8)


@pytest.mark.parametrize(
    "seed, kind",
    [pytest.param(seed, "tall", id=str(seed)) for seed in range(30)]
    + [
        pytest.param(seed, kind, id=f"{kind}-{seed}")
        for kind in ("duplicate-column", "near-duplicate-column", "zero-column", "wide")
        for seed in range(5)
    ],
)
def test_nnls_brute_force_sweep_small(seed, kind):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(4, 16))
    n = int(rng.integers(1, 7))
    if kind == "wide":
        m, n = int(rng.integers(1, 4)), int(rng.integers(4, 8))
    a = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if kind == "duplicate-column":
        a = np.column_stack((a, a[:, int(rng.integers(n))]))
    elif kind == "near-duplicate-column":
        # a twin off by 1e-10: the passive-set solves must not break on it
        twin = a[:, int(rng.integers(n))] * (1.0 + 1e-10 * rng.standard_normal(m))
        a = np.column_stack((a, twin))
    elif kind == "zero-column":
        a = np.insert(a, int(rng.integers(n + 1)), 0.0, axis=1)
    res = nnls(a, b)
    _, res_star = brute_force_nnls(a, b)
    assert res.converged
    assert res.residual_norm == pytest.approx(res_star, abs=1e-8)


@pytest.mark.parametrize("seed", range(25))
def test_nnls_kkt_and_exact_zeros(seed):
    rng = np.random.default_rng(300 + seed)
    a = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    res = nnls(a, b)
    assert res.converged
    z = res.z
    assert np.min(z) >= 0.0
    assert np.all((z == 0.0) | (z > 0.0))  # zeros are exact, never -1e-17
    w = a.T @ (b - a @ z)
    assert np.max(w[z == 0.0], initial=-np.inf) <= res.dual_tolerance
    assert np.max(np.abs(w[z > 0.0]), initial=0.0) <= res.dual_tolerance


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nnls_rejects_a_non_finite_rhs(value):
    with pytest.raises(ValidationError, match="b contains non-finite"):
        nnls(np.eye(2), np.array([1.0, value]))


def test_nnls_zero_rhs():
    res = nnls(np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(res.z, np.zeros(3))
    assert res.converged


def test_nnls_iteration_cap_reports_nonconvergence(monkeypatch):
    # the cap is NNLS_ITERATIONS_PER_COLUMN * n, read at call time
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    monkeypatch.setattr(lowrank, "NNLS_ITERATIONS_PER_COLUMN", 0)
    res = nnls(a, b)
    assert not res.converged
    assert np.all(res.z == 0.0)


def test_nnls_stops_when_the_passive_set_empties(monkeypatch):
    # a passive solve with no positive entry drops every column: z falls back to 0,
    # and the loop re-adds the same column until the iteration cap
    monkeypatch.setattr(lowrank, "_passive_solve", lambda r, qtb, cols: -np.ones(cols.size))
    b = np.array([1.0, 2.0])
    res = nnls(np.eye(2), b)
    assert not res.converged
    assert res.iterations == lowrank.NNLS_ITERATIONS_PER_COLUMN * 2 == 6
    np.testing.assert_array_equal(res.z, np.zeros(2))
    assert res.residual_norm == np.linalg.norm(b)


def wide_draw(seed):
    """A random m x n problem with 1 <= m <= 5 and m < n <= 11."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m + 1, 12))
    return rng.standard_normal((m, n)), rng.standard_normal(m)


def test_nnls_converges_on_every_wide_draw(monkeypatch):
    # at seed 171 (4 x 5) a step back left its blocking entry a hair above 0, so
    # the same passive set was solved forever; at 72, 756, 989 and 1439 the
    # passive set grew past R's m rows and the square solve raised
    solve, sizes = lowrank._passive_solve, []

    def bounded(r, qtb, cols):
        sizes.append(cols.size)
        assert len(sizes) <= 100, "nnls keeps solving passive sets"  # fail, not hang
        return solve(r, qtb, cols)

    monkeypatch.setattr(lowrank, "_passive_solve", bounded)
    for seed in range(2000):
        a, b = wide_draw(seed)
        res = nnls(a, b)
        assert res.converged, seed
        assert max(sizes, default=0) <= a.shape[0], seed
        assert res.residual_norm <= scipy.optimize.nnls(a, b)[1] + 1e-12, seed
        sizes.clear()


def test_nnls_input_validation():
    with pytest.raises(ValidationError):
        nnls(np.eye(2), np.ones(3))
    with pytest.raises(ValidationError):
        nnls(np.array([[np.nan, 1.0]]), np.ones(1))


# --- nnls on the default-grid discretization bases ----------------------------


@functools.lru_cache(maxsize=None)
def default_grid_samples(kelvin):
    """The surrogate's kernel and sample operator on the default grid."""
    temperature = Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)
    kernel = NoiseKernel(surrogate_sd(), temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX)
    return kernel, grid, FdrOperator(kernel, grid)


@functools.lru_cache(maxsize=None)
def default_grid_id(kelvin, tol):
    return column_id(default_grid_samples(kelvin)[2], tol=tol)


@functools.lru_cache(maxsize=None)
def default_grid_fit_problem(kelvin, tol):
    """Selected sample columns and the reference target of ``discretize_bath``."""
    kernel, grid, samples = default_grid_samples(kelvin)
    c_ref = reference_bcf(kernel, grid.times, grid.omega_max_cm1)
    basis = samples.columns(default_grid_id(kelvin, tol).selected)
    return basis, np.concatenate((c_ref.real, c_ref.imag))


@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
def test_id_tolerances_select_pivot_prefixes_on_the_operator(kelvin):
    # the pivots of the matrix-free ID do not depend on tol: a looser tol
    # stops the same sequence earlier, pivot norms included
    tight = default_grid_id(kelvin, 1e-3)
    for tol in (1e-1, 1e-2):
        loose = default_grid_id(kelvin, tol)
        assert 0 < loose.rank < tight.rank
        np.testing.assert_array_equal(loose.selected, tight.selected[: loose.rank])
        np.testing.assert_array_equal(loose.pivot_norms, tight.pivot_norms[: loose.rank + 1])


@pytest.mark.parametrize("tol", [1e-2, 1e-8])
def test_id_keeps_the_qr_factor_of_its_columns_on_the_operator(tol):
    # both sides of the Gram-row floor: T and q come from the pivots' own
    # Gram-Schmidt passes, whichever rows of R the ID takes
    kernel, grid, _ = default_grid_samples(300.0)
    op = FdrOperator(kernel, grid, tol)
    res = column_id(op, tol=tol)
    assert res.rank > 40
    assert_qr_factor_of_selected(res, op.columns(res.selected))


@pytest.mark.parametrize("case", ["dense-rank-12", "operator-gram-rows", "operator-transform-rows"])
def test_id_keeps_its_triangle_in_the_pivot_columns_of_r(case):
    # R is the one store of the factor: T is R's pivot columns on and above the diagonal
    if case == "dense-rank-12":
        rng = np.random.default_rng(12)
        f, tol = rng.standard_normal((40, 12)) @ rng.standard_normal((12, 70)), 1e-8
    else:
        grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX, n_time=200, n_freq=2000)
        tol = 1e-2 if case == "operator-gram-rows" else 1e-8
        f = FdrOperator(NoiseKernel(surrogate_sd(), Temperature.finite(300.0)), grid, tol)
    res = column_id(f, tol=tol)
    assert res.rank >= 12
    assert np.array_equal(res.triangle, np.triu(res.r_rows[:, res.selected]))


def test_id_builds_only_its_pivot_candidates_on_the_default_grid():
    # no stale residual norm comes within its error bound of the next pivot,
    # so no column is built beyond the r + 1 candidates (rebuilding every
    # stale norm at once built 2,251)
    op = CountingColumns(default_grid_samples(300.0)[2])
    res = column_id(op, tol=1e-3)
    assert res.rank > 40
    assert op.built == res.rank + 1


@pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
def test_gram_rows_select_the_pivots_of_transform_rows(kelvin, tol, monkeypatch):
    # rows of R from the band's Toeplitz Gram move R by roundoff only; pivot
    # columns and their norms are computed from explicit columns, so the
    # selection and the accepted pivot norms are those of rows q^T F
    kernel, grid, _ = default_grid_samples(kelvin)
    op = FdrOperator(kernel, grid, tol)
    assert tol >= lowrank.GRAM_ROW_MIN_TOL
    by_gram = column_id(op, tol=tol)
    monkeypatch.setattr(lowrank, "GRAM_ROW_MIN_TOL", 1.0)
    by_transform = column_id(op, tol=tol)
    assert by_gram.rank == by_transform.rank > 0
    assert by_gram.selected.tobytes() == by_transform.selected.tobytes()
    assert by_gram.pivot_norms[:-1].tobytes() == by_transform.pivot_norms[:-1].tobytes()
    # a Gram row errs by about eps/tol of the first pivot norm
    err = np.max(np.abs(by_gram.r_rows - by_transform.r_rows)) / by_gram.pivot_norms[0]
    assert err <= 10 * np.finfo(float).eps / tol


@pytest.mark.parametrize("kelvin", [0.0, 300.0])
def test_below_the_floor_every_row_is_a_transform(kelvin, monkeypatch):
    # below GRAM_ROW_MIN_TOL a Gram row's error would reach the size of the
    # pivot decisions, so the ID never asks for one
    temperature = Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)
    kernel = NoiseKernel(surrogate_sd(), temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX, n_time=100, n_freq=2000)
    tol = lowrank.GRAM_ROW_MIN_TOL / 10
    op = CountingColumns(FdrOperator(kernel, grid, tol))

    def no_gram(j):
        raise AssertionError("gram_row called below the floor")

    monkeypatch.setattr(op, "gram_row", no_gram)
    below = column_id(op, tol=tol)
    monkeypatch.setattr(lowrank, "GRAM_ROW_MIN_TOL", 1.0)
    transform_only = column_id(op, tol=tol)
    assert below.rank > 40
    for name in ("selected", "r_rows", "pivot_norms"):
        assert getattr(below, name).tobytes() == getattr(transform_only, name).tobytes()


@functools.lru_cache(maxsize=None)
def small_grid_geqp3(kelvin):
    """The sample operator on a 100 x 2,000 grid and LAPACK's pivots on its 200 x 2,000 matrix."""
    temperature = Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)
    kernel = NoiseKernel(surrogate_sd(), temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX, n_time=100, n_freq=2000)
    piv = scipy.linalg.qr(assemble_fdr(kernel, grid), pivoting=True, mode="r")[1]
    return FdrOperator(kernel, grid), piv


@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
def test_id_pivots_match_geqp3_on_the_sample_matrix(kelvin, tol):
    # stale residual norms that are left stale must not change a pivot:
    # LAPACK geqp3 on the assembled matrix is the independent pivot oracle
    op, piv = small_grid_geqp3(kelvin)
    res = column_id(op, tol=tol)
    assert res.rank > 20
    np.testing.assert_array_equal(res.selected, piv[: res.rank])


@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_nnls_matches_scipy_on_default_grid_bases(kelvin, tol):
    a, b = default_grid_fit_problem(kelvin, tol)
    res = nnls(a, b)
    z_ref, res_ref = scipy.optimize.nnls(a, b, maxiter=10 * a.shape[1])
    assert res.converged
    np.testing.assert_array_equal(res.z > 0.0, z_ref > 0.0)
    np.testing.assert_allclose(res.z, z_ref, rtol=1e-9, atol=1e-9 * np.max(z_ref))
    assert res.residual_norm == pytest.approx(res_ref, rel=1e-9)


@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_nnls_matches_the_explicit_q_formula_on_default_grid_bases(kelvin, tol, monkeypatch):
    # nnls reads R and Q^T b off one triangle of [A | b]; feeding its loop the
    # explicit-Q formula instead, R from qr(A) and q.T @ b, must give the same
    # active set and iteration count and z to roundoff.  Only that one
    # mode="r" triangularization is replaced: the passive-set QRs pass through
    a, b = default_grid_fit_problem(kelvin, tol)
    res = nnls(a, b)
    qr = np.linalg.qr
    replaced = []

    def explicit_q(ab, mode="reduced"):
        if mode != "r":
            return qr(ab, mode)
        replaced.append(ab.shape)
        q, r = qr(ab[:, :-1])
        return np.column_stack((r, q.T @ ab[:, -1]))

    monkeypatch.setattr(np.linalg, "qr", explicit_q)
    ref = nnls(a, b)
    assert replaced == [(a.shape[0], a.shape[1] + 1)]
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations
    np.testing.assert_array_equal(res.z > 0.0, ref.z > 0.0)
    assert np.linalg.norm(res.z - ref.z) <= 1e-12 * np.linalg.norm(ref.z)


def test_nnls_subproblems_stay_in_the_small_factor(monkeypatch):
    # every passive-set solve is on the min(m, n) x n triangle, never on A:
    # the QR of the passive columns and the square solve see at most n rows
    a, b = default_grid_fit_problem(300.0, 1e-2)
    m, n = a.shape
    assert m > n
    factored, solved = [], []
    qr, solve = np.linalg.qr, np.linalg.solve

    def spy_qr(mat, mode="reduced"):
        if mode != "r":
            factored.append(np.shape(mat)[0])
        return qr(mat, mode)

    def spy_solve(mat, rhs):
        solved.append(np.shape(mat)[0])
        return solve(mat, rhs)

    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    res = nnls(a, b)
    assert res.converged
    assert len(solved) == len(factored) >= res.iterations > 0
    assert max(factored) <= n and max(solved) <= n


@pytest.mark.parametrize("kelvin", [0.0, 77.0, 300.0])
@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_nnls_on_the_id_factor_matches_the_cold_start_on_default_grid_bases(kelvin, tol):
    # the warm start on the ID's triangle reaches the cold start's active set;
    # at 1e-3 the nonnegativity clip binds, so the start must drop columns
    a, b = default_grid_fit_problem(kelvin, tol)
    res_id = default_grid_id(kelvin, tol)
    warm = nnls(a, b, (res_id.triangle, res_id.q))
    cold = nnls(a, b)
    assert warm.converged and cold.converged
    np.testing.assert_array_equal(warm.z > 0.0, cold.z > 0.0)
    dropped = a.shape[1] - np.count_nonzero(warm.z)
    assert (dropped == 0) if tol == 1e-2 else (1 <= dropped <= 2)
    assert np.linalg.norm(warm.z - cold.z) <= 1e-12 * np.linalg.norm(cold.z)
    assert warm.residual_norm <= cold.residual_norm * (1.0 + 1e-12)
    assert warm.dual_tolerance == cold.dual_tolerance


@pytest.mark.parametrize("seed", range(6))
def test_nnls_warm_start_never_leaves_a_larger_residual(seed):
    # right-hand sides with mixed signs against the columns, so the least-
    # squares start has many nonpositive entries to drop and re-add
    rng = np.random.default_rng(seed)
    f = matrix_with_spectrum(40, 60, 0.8 ** np.arange(40.0), rng)
    res = column_id(f, tol=1e-4)
    a = f[:, res.selected]
    b = a @ rng.standard_normal(res.rank) + 0.1 * rng.standard_normal(40)
    warm = nnls(a, b, (res.triangle, res.q))
    cold = nnls(a, b)
    assert warm.converged and cold.converged
    assert np.min(warm.z) == 0.0  # the clip binds
    assert warm.residual_norm <= cold.residual_norm * (1.0 + 1e-12)


def test_nnls_rejects_a_factor_of_the_wrong_shape():
    with pytest.raises(ValidationError):
        nnls(np.eye(3), np.ones(3), (np.eye(2), np.eye(2, 3)))
