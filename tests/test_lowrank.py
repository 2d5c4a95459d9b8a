import functools
import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from bathkit.discretize import FdrGrid, FdrOperator, reference_bcf
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
    assert res.frobenius_error_estimate == 0.0
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
    # error estimate tracks the true error
    assert res.frobenius_error_estimate == pytest.approx(err, rel=1e-6, abs=1e-10)


def test_id_pivot_prefix_property():
    rng = np.random.default_rng(5)
    f = matrix_with_spectrum(60, 90, 0.7 ** np.arange(60.0), rng)
    full = column_id(f, tol=1e-10)
    assert full.rank > 5
    for r_prime in (1, 3, full.rank - 2):
        part = column_id(f, tol=1e-10, max_rank=r_prime)
        assert part.rank == r_prime
        np.testing.assert_array_equal(part.selected, full.selected[:r_prime])


def test_id_zero_matrix_yields_empty_selection():
    res = column_id(np.zeros((4, 6)), tol=1e-3)
    assert res.rank == 0
    assert res.selected.size == 0
    assert res.interp.shape == (0, 6)
    assert res.frobenius_error_estimate == 0.0


def test_id_input_validation():
    with pytest.raises(ValidationError):
        column_id(np.ones((2, 2)))
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
    assert a.frobenius_error_estimate == b.frobenius_error_estimate


class CountingColumns:
    """A dense matrix as a column operator that counts the columns it builds."""

    def __init__(self, f):
        self.f = f
        self.shape = f.shape
        self.norms2 = np.einsum("ij,ij->j", f, f)
        self.built = 0
        self.seen = set()

    def columns(self, idx):
        self.built += len(idx)
        self.seen.update(int(j) for j in idx)
        return self.f[:, idx]

    def rmatvec(self, q):
        return q @ self.f


@pytest.mark.parametrize("seed", range(8))
def test_id_pivots_match_geqp3_with_graded_column_norms(seed):
    # column norms graded over 1e-12 .. 1 on a fast-decaying spectrum: the
    # downdated norms lose their leading digits, so the exact recompute
    # must fire; LAPACK geqp3 is the independent pivot-order oracle.
    rng = np.random.default_rng(seed)
    m, n, k = 80, 120, 30
    f = matrix_with_spectrum(m, n, 0.6 ** np.arange(min(m, n), dtype=float), rng)
    f *= np.logspace(0.0, -12.0, n)[rng.permutation(n)]
    op = CountingColumns(f)
    res = column_id(op, max_rank=k)
    assert op.built > k + 1  # columns beyond the k + 1 pivot candidates: recomputes
    piv = scipy.linalg.qr(f, pivoting=True, mode="r")[1]
    np.testing.assert_array_equal(res.selected, piv[:k])


@pytest.mark.parametrize("seed", range(3))
def test_id_stays_accurate_down_to_roundoff(seed):
    # 45 pivots on singular values 2^-k reach residuals near 1e-14; the
    # second Gram-Schmidt pass keeps Q orthogonal there (one pass leaves
    # errors near 1e-8)
    rng = np.random.default_rng(seed)
    f = matrix_with_spectrum(60, 90, 0.5 ** np.arange(60.0), rng)
    res = column_id(f, max_rank=45)
    err = np.linalg.norm(f - f[:, res.selected] @ res.interp)
    assert err <= 1e-11 * np.linalg.norm(f)
    assert res.frobenius_error_estimate <= 1e-11 * np.linalg.norm(f)


def test_id_interp_is_built_on_first_read():
    rng = np.random.default_rng(29)
    f = matrix_with_spectrum(30, 60, 0.7 ** np.arange(30.0), rng)
    res = column_id(f, tol=1e-8)
    assert "interp" not in vars(res)
    interp = res.interp
    assert res.interp is interp
    # the eager formula: P = triu(R[:, selected])^-1 R, exact identity on selected
    eager = np.linalg.solve(np.triu(res.r_rows[:, res.selected]), res.r_rows)
    eager[:, res.selected] = np.eye(res.rank)
    np.testing.assert_array_equal(interp, eager)


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


def test_id_pivot_norms_at_full_rank_and_max_rank():
    res = column_id(np.eye(3), tol=1e-12)
    np.testing.assert_array_equal(res.pivot_norms, [1.0, 1.0, 1.0, 0.0])
    rng = np.random.default_rng(2)
    f = rng.standard_normal((10, 20))
    res = column_id(f, max_rank=4)
    assert res.pivot_norms.shape == (5,)
    assert res.pivot_norms[-1] > 0.0  # the candidate that max_rank turned away


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
        for kind in ("duplicate-column", "zero-column", "wide")
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


def test_nnls_zero_rhs():
    res = nnls(np.eye(3), np.zeros(3))
    np.testing.assert_array_equal(res.z, np.zeros(3))
    assert res.converged


def test_nnls_iteration_cap_reports_nonconvergence():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    res = nnls(a, b, max_iter=0)
    assert not res.converged
    assert np.all(res.z == 0.0)


def test_nnls_input_validation():
    with pytest.raises(ValidationError):
        nnls(np.eye(2), np.ones(3))
    with pytest.raises(ValidationError):
        nnls(np.array([[np.nan, 1.0]]), np.ones(1))


# --- nnls on the default-grid discretization bases ----------------------------


@functools.lru_cache(maxsize=None)
def default_grid_fit_problem(kelvin, tol):
    """Selected sample columns and the reference target of ``discretize_bath``."""
    temperature = Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)
    kernel = NoiseKernel(surrogate_sd(), temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=SURROGATE_OMEGA_MAX)
    samples = FdrOperator(kernel, grid)
    c_ref = reference_bcf(kernel, grid.times, grid.omega_max_cm1)
    basis = samples.columns(column_id(samples, tol=tol).selected)
    return basis, np.concatenate((c_ref.real, c_ref.imag))


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


def test_nnls_subproblems_stay_in_the_small_factor(monkeypatch):
    # every passive-set solve is on the min(m, n) x n triangle, never on A
    a, b = default_grid_fit_problem(300.0, 1e-2)
    m, n = a.shape
    assert m > n
    rows = []
    lstsq = np.linalg.lstsq

    def spy(mat, rhs, *args, **kwargs):
        rows.append(np.shape(mat)[0])
        return lstsq(mat, rhs, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    res = nnls(a, b)
    assert res.converged
    assert len(rows) >= res.iterations > 0
    assert max(rows) <= n
