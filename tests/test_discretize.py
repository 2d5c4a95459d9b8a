import io
import itertools
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import bathkit.discretize as disc
import bathkit.quadrature as quadrature
from bathkit.discretize import (
    BathDiagnostics,
    FdrGrid,
    FdrOperator,
    assemble_fdr,
    bath_model_from_dict,
    bath_model_to_dict,
    bcf_error_stats,
    discretize_bath,
    load_bath_model,
    reconstruct_bcf,
    reference_bcf,
    save_bath_model,
)
from bathkit.errors import (
    ConvergenceError,
    ResourceLimitError,
    SchemaError,
    ValidationError,
)
from bathkit.lowrank import column_id, nnls
from bathkit.quadrature import fourier_midpoint_sum, midpoint_frequencies, refine_midpoint
from bathkit.specdens import Debye, LorentzianSum, NoiseKernel, Temperature, load_tabulated
from bathkit.units import RAD_PER_FS_PER_CM1

DEBYE_300K = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
DEBYE_0K = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.zero())

# small but representative grid for pipeline tests (full size is exercised
# in the acceptance suite)
SMALL_GRID = FdrGrid(t_max_fs=400.0, omega_max_cm1=1200.0, n_time=200, n_freq=2400)


# --- grid -------------------------------------------------------------------


def test_grid_time_axis():
    g = FdrGrid(t_max_fs=500.0, omega_max_cm1=100.0, n_time=11, n_freq=10)
    assert g.times[0] == 0.0
    assert g.times[-1] == 500.0
    np.testing.assert_allclose(np.diff(g.times), 50.0, rtol=1e-15)


def test_grid_frequency_axis_symmetric_never_zero():
    g = FdrGrid(t_max_fs=500.0, omega_max_cm1=100.0, n_time=11, n_freq=10)
    f = g.freqs
    assert f.size == 10
    assert np.all(f != 0.0)
    np.testing.assert_array_equal(f, -f[::-1])  # exact mirror
    expected = -100.0 + (np.arange(10) + 0.5) * 20.0
    np.testing.assert_allclose(f, expected, atol=1e-12)


def test_grid_validation():
    with pytest.raises(ValidationError):
        FdrGrid(t_max_fs=-1.0, omega_max_cm1=100.0)
    with pytest.raises(ValidationError):
        FdrGrid(t_max_fs=100.0, omega_max_cm1=100.0, n_freq=7)  # odd
    with pytest.raises(ValidationError):
        FdrGrid(t_max_fs=100.0, omega_max_cm1=-5.0)
    with pytest.raises(ValidationError):
        FdrGrid(t_max_fs=100.0, omega_max_cm1=100.0, n_time=0)
    # a window holds at least two times, over a positive t_max
    with pytest.raises(ValidationError, match="n_time >= 2"):
        FdrGrid(t_max_fs=10.0, omega_max_cm1=100.0, n_time=1, n_freq=4)
    with pytest.raises(ValidationError, match="n_time >= 2"):
        FdrGrid(t_max_fs=0.0, omega_max_cm1=100.0, n_time=1, n_freq=4)
    with pytest.raises(ValidationError, match="t_max_fs must be finite and > 0"):
        FdrGrid(0.0, 600.0, 5, 10)


@pytest.mark.parametrize(
    "counts",
    [{"n_freq": 10.0}, {"n_time": 2.5}, {"n_time": "11"}, {"n_time": True, "n_freq": 4}],
    ids=["float-n_freq", "fractional-n_time", "string-n_time", "bool-n_time"],
)
def test_grid_counts_must_be_integers(counts):
    with pytest.raises(ValidationError, match="integer"):
        FdrGrid(t_max_fs=100.0, omega_max_cm1=100.0, **counts)
    g = FdrGrid(t_max_fs=100.0, omega_max_cm1=100.0, n_time=np.int64(11), n_freq=np.int32(10))
    assert g.times.size == 11 and g.freqs.size == 10


def test_grid_checks_a_huge_frequency_count_without_allocating():
    # the grid rule allocates nothing, so discretize_bath's memory check is what
    # refuses a grid whose frequency axis alone would not fit
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0, n_freq=10**14)
    with pytest.raises(ResourceLimitError):
        discretize_bath(DEBYE_300K, grid, 1e-2)


def test_default_grid_shape_is_1000_by_10000():
    g = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0)
    assert (g.n_time, g.n_freq) == (1000, 10000)


# --- quadrature helpers -------------------------------------------------------


# past the first case: the two reference_bcf levels of the default grid and
# a non-dyadic band, at about the default grid's 1 fs time step
@pytest.mark.parametrize(
    "n, omega_max, t_max, n_times",
    [
        (2048, 800.0, 700.0, 173),
        (16384, 600.0, 200.0, 200),
        (32768, 600.0, 200.0, 200),
        (16384, 437.3, 200.0, 200),
    ],
)
def test_fourier_sum_czt_matches_direct(n, omega_max, t_max, n_times):
    rng = np.random.default_rng(2)
    weights = rng.standard_normal(n)
    uniform = np.linspace(0.0, t_max, n_times)
    jittered = uniform + rng.uniform(0, 1e-3, size=uniform.size)
    fast = fourier_midpoint_sum(weights, omega_max, uniform)
    freqs = midpoint_frequencies(omega_max, weights.size)
    h = 2 * omega_max / weights.size
    direct = h * np.exp(
        -1j * np.outer(uniform, freqs * RAD_PER_FS_PER_CM1)
    ) @ weights.astype(complex)
    np.testing.assert_allclose(fast, direct, rtol=0, atol=1e-12 * np.max(np.abs(direct)))
    # the non-uniform fallback is the same sum
    slow = fourier_midpoint_sum(weights, omega_max, jittered)
    direct_j = h * np.exp(
        -1j * np.outer(jittered, freqs * RAD_PER_FS_PER_CM1)
    ) @ weights.astype(complex)
    np.testing.assert_allclose(slow, direct_j, rtol=1e-12)
    # uniform times with a nonzero start take the direct sum
    shifted = uniform + 37.5
    fast_s = fourier_midpoint_sum(weights, omega_max, shifted)
    direct_s = h * np.exp(
        -1j * np.outer(shifted, freqs * RAD_PER_FS_PER_CM1)
    ) @ weights.astype(complex)
    np.testing.assert_allclose(fast_s, direct_s, rtol=0, atol=1e-12 * np.max(np.abs(direct_s)))


# --- reference_bcf ------------------------------------------------------------


def test_reference_bcf_t0_real_nonnegative():
    c0 = reference_bcf(DEBYE_300K, [0.0], omega_max_cm1=2000.0)[0]
    assert c0.imag == 0.0
    assert c0.real > 0.0


def test_reference_bcf_zero_t_debye_frozen_value():
    # band-limited C(0) at zero temperature equals the integral of J over
    # [0, 5000]; frozen from lam*gamma*log((W^2+gamma^2)/gamma^2), confirmed
    # by adaptive quadrature.
    c0 = reference_bcf(DEBYE_0K, [0.0], omega_max_cm1=5000.0)[0]
    assert c0.real == pytest.approx(28616.500149441526, rel=1e-6)


def test_reference_bcf_hermitian_in_time():
    times = np.array([-300.0, -20.0, 20.0, 300.0])
    c = reference_bcf(DEBYE_300K, times, omega_max_cm1=2000.0)
    np.testing.assert_array_equal(c[0], np.conj(c[3]))
    np.testing.assert_array_equal(c[1], np.conj(c[2]))


def test_reference_bcf_refinement_cap_errors(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_QUAD_POINTS", quadrature.DEFAULT_QUAD_POINTS)
    with pytest.raises(ConvergenceError, match="relative change"):
        reference_bcf(DEBYE_300K, np.linspace(0, 1000, 50), omega_max_cm1=2000.0)


def test_refine_midpoint_rejects_a_non_finite_level_without_warnings():
    def level(n_points):
        return np.array([1.0, 1e308]) * n_points  # overflows with a numpy warning

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not finite"):
            refine_midpoint(level, "test")


def test_grid_band_width_must_be_finite():
    with pytest.raises(ValidationError, match="band width"):
        FdrGrid(t_max_fs=100.0, omega_max_cm1=1e308, n_time=20, n_freq=200)
    with pytest.raises(ValidationError, match="band width"):
        midpoint_frequencies(1e308, 8)


def test_reference_bcf_doubling_is_converged():
    times = np.linspace(0.0, 400.0, 64)
    c1 = reference_bcf(DEBYE_300K, times, omega_max_cm1=2000.0)
    weights = DEBYE_300K.evaluate(midpoint_frequencies(2000.0, 1 << 17))
    c2 = fourier_midpoint_sum(weights, 2000.0, times)
    scale = np.max(np.abs(c1))
    assert np.max(np.abs(c1 - c2)) < 2e-6 * scale


# --- assemble_fdr --------------------------------------------------------------


def test_assemble_column_norms():
    g = FdrGrid(t_max_fs=300.0, omega_max_cm1=500.0, n_time=40, n_freq=64)
    fdr = assemble_fdr(DEBYE_300K, g)
    s = DEBYE_300K.evaluate(g.freqs)
    norms_sq = np.einsum("ij,ij->j", fdr, fdr)
    np.testing.assert_allclose(norms_sq, g.n_time * s * s, rtol=1e-12)


def test_assemble_memory_cap(monkeypatch):
    # the cap is the module constant, read at call time
    g = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0, n_time=1000, n_freq=10000)
    monkeypatch.setattr(disc, "DEFAULT_MEMORY_CAP_BYTES", 1 << 20)
    with pytest.raises(ResourceLimitError, match="coarser grid"):
        assemble_fdr(DEBYE_300K, g)


# --- FdrOperator: the matrix-free sample matrix --------------------------------

SURROGATE = load_tabulated(Path(__file__).resolve().parent.parent / "configs" / "surrogate_sd.csv")
OPERATOR_KERNELS = {
    f"{name}-{label}": NoiseKernel(sd, temperature)
    for (name, sd), (label, temperature) in itertools.product(
        {"surrogate": SURROGATE, "debye": Debye(lam=35.0, gamma=106.1)}.items(),
        {"0K": Temperature.zero(), "300K": Temperature.finite(300.0)}.items(),
    )
}
OPERATOR_GRIDS = {
    "101x2000": FdrGrid(t_max_fs=100.0, omega_max_cm1=600.0, n_time=101, n_freq=2000),
    "250x2500": FdrGrid(t_max_fs=300.0, omega_max_cm1=600.0, n_time=250, n_freq=2500),
    "40x64": FdrGrid(t_max_fs=300.0, omega_max_cm1=500.0, n_time=40, n_freq=64),
    "2x8": FdrGrid(t_max_fs=10.0, omega_max_cm1=100.0, n_time=2, n_freq=8),
}
OPERATOR_TOLS = (0.3, 1e-1, 1e-2, 1e-3)
OPERATOR_CASES = [
    pytest.param(k, g, tol, id=f"{k}-{g}-{tol:g}")
    for k, g, tol in itertools.product(OPERATOR_KERNELS, OPERATOR_GRIDS, OPERATOR_TOLS)
]


class DenseSamples:
    """The dense oracle matrix behind the column-operator interface, on every grid column."""

    def __init__(self, realified, freqs):
        self.f = realified
        self.freqs = freqs
        self.shape = realified.shape
        self.norms2 = np.einsum("ij,ij->j", realified, realified)

    def columns(self, idx):
        return self.f[:, idx]

    def rmatvec(self, q):
        return q @ self.f

    def gram_row(self, j):
        return self.f[:, j] @ self.f


@pytest.mark.parametrize("grid_name", OPERATOR_GRIDS)
@pytest.mark.parametrize("kernel_name", OPERATOR_KERNELS)
def test_operator_matches_dense_samples(kernel_name, grid_name):
    kernel, grid = OPERATOR_KERNELS[kernel_name], OPERATOR_GRIDS[grid_name]
    dense = assemble_fdr(kernel, grid)
    op = FdrOperator(kernel, grid)
    assert op.shape == dense.shape
    np.testing.assert_allclose(op.norms2, np.einsum("ij,ij->j", dense, dense), rtol=1e-12)
    # columns are built bit-equal, in any order and any subset
    idx = np.random.default_rng(0).permutation(grid.n_freq)[: max(1, grid.n_freq // 3)]
    np.testing.assert_array_equal(op.columns(idx), dense[:, idx])
    np.testing.assert_array_equal(op.columns(np.arange(grid.n_freq)), dense)
    # q^T F by chirp-z transform against the dense product
    q = np.random.default_rng(1).standard_normal(2 * grid.n_time)
    scale = np.linalg.norm(q) * np.sqrt(grid.n_time) * np.max(np.abs(op.s))
    np.testing.assert_allclose(op.rmatvec(q), q @ dense, rtol=0, atol=1e-11 * scale)
    # Gram rows f_j^T F from the Toeplitz table, on the full grid and on a band
    band = FdrOperator(kernel, grid, 0.3)
    first = int(np.searchsorted(grid.freqs, band.freqs[0]))
    for sub, cols in ((op, dense), (band, dense[:, first : first + band.shape[1]])):
        n = sub.shape[1]
        for j in sorted({0, n // 2, n - 1}):
            scale = grid.n_time * abs(sub.s[j]) * np.max(np.abs(sub.s))
            want = cols.T @ cols[:, j]
            np.testing.assert_allclose(sub.gram_row(j), want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize(("kernel_name", "grid_name", "tol"), OPERATOR_CASES)
def test_operator_id_and_bath_json_match_dense_oracle(kernel_name, grid_name, tol, monkeypatch):
    kernel, grid = OPERATOR_KERNELS[kernel_name], OPERATOR_GRIDS[grid_name]
    dense = assemble_fdr(kernel, grid)
    by_operator = column_id(FdrOperator(kernel, grid), tol=tol)
    by_matrix = column_id(dense, tol=tol)
    np.testing.assert_array_equal(by_operator.selected, by_matrix.selected)
    band = FdrOperator(kernel, grid, tol)
    by_band = column_id(band, tol=tol)
    np.testing.assert_array_equal(band.freqs[by_band.selected], grid.freqs[by_matrix.selected])

    matrix_free = bath_json(kernel, grid, tol)
    monkeypatch.setattr(
        disc, "FdrOperator", lambda kernel, grid, tol: DenseSamples(dense, grid.freqs)
    )
    assert bath_json(kernel, grid, tol) == matrix_free


def bath_json(kernel, grid, tol):
    buf = io.StringIO()
    save_bath_model(discretize_bath(kernel, grid, tol), buf)
    return buf.getvalue()


DEFAULT_GRID = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0)


@pytest.mark.parametrize("tol", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("kelvin", [0.0, 4.3, 77.0, 291.7, 300.0])
def test_band_id_and_bath_json_match_the_full_grid(kelvin, tol, monkeypatch):
    # discretize_bath builds the operator on the band tol can select; on the
    # default grid that is 31-72 % of the columns here.  The accepted pivots,
    # their norms and the bath JSON are those of the full-grid operator; the
    # terminal pivot_norms entry is the band's largest residual and may differ
    temperature = Temperature.zero() if kelvin == 0.0 else Temperature.finite(kelvin)
    kernel = NoiseKernel(SURROGATE, temperature)
    full, band = FdrOperator(kernel, DEFAULT_GRID), FdrOperator(kernel, DEFAULT_GRID, tol)
    assert band.shape[1] < full.shape[1]
    by_full, by_band = column_id(full, tol=tol), column_id(band, tol=tol)
    assert by_band.rank == by_full.rank > 0
    assert band.freqs[by_band.selected].tobytes() == full.freqs[by_full.selected].tobytes()
    assert by_band.pivot_norms[:-1].tobytes() == by_full.pivot_norms[:-1].tobytes()

    banded = bath_json(kernel, DEFAULT_GRID, tol)
    monkeypatch.setattr(disc, "FdrOperator", lambda kernel, grid, tol: full)
    assert bath_json(kernel, DEFAULT_GRID, tol) == banded


@pytest.mark.parametrize("n_time", [2, 5])
def test_a_band_of_one_column_gives_the_full_grid_bath(n_time, monkeypatch):
    # at zero temperature S is 0 at omega < 0, so on two frequencies the band
    # is the one column at +omega_max/2; its chirp-z sum has a single output
    grid = FdrGrid(t_max_fs=10.0 * (n_time - 1), omega_max_cm1=600.0, n_time=n_time, n_freq=2)
    band = FdrOperator(DEBYE_0K, grid, 1e-2)
    assert band.shape == (2 * n_time, 1)
    q = np.ones(2 * n_time)
    np.testing.assert_allclose(band.rmatvec(q), q @ band.columns([0]), rtol=1e-14)
    column = band.columns([0])[:, 0]
    np.testing.assert_allclose(band.gram_row(0), [column @ column], rtol=1e-14)
    banded = bath_json(DEBYE_0K, grid, 1e-2)
    monkeypatch.setattr(disc, "FdrOperator", lambda kernel, grid, tol: FdrOperator(kernel, grid))
    assert bath_json(DEBYE_0K, grid, 1e-2) == banded
    model = load_bath_model(io.StringIO(banded))
    assert model.omegas.tolist() == [300.0]


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1e-2, np.nan])
def test_operator_rejects_a_tol_outside_the_unit_interval(tol):
    with pytest.raises(ValidationError, match=r"tol must be in \(0, 1\)"):
        FdrOperator(DEBYE_300K, SMALL_GRID, tol)


def test_identically_zero_noise_keeps_every_column():
    zero = load_tabulated(io.StringIO("1.0,0.0\n600.0,0.0\n"))
    kernel = NoiseKernel(zero, Temperature.finite(300.0))
    assert FdrOperator(kernel, SMALL_GRID, 1e-2).shape[1] == SMALL_GRID.n_freq
    with pytest.raises(ValidationError, match="squared norm is zero on the grid"):
        discretize_bath(kernel, SMALL_GRID, 1e-2)


def test_operator_rejects_non_finite_noise_before_sampling(monkeypatch):
    class Broken(Debye):
        def _magnitude(self, x):
            return np.where(x > 50.0, np.nan, super()._magnitude(x))

    def no_trig(*args, **kwargs):
        raise AssertionError("trig evaluated")

    kernel = NoiseKernel(Broken(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    monkeypatch.setattr(disc.np, "cos", no_trig)
    monkeypatch.setattr(disc.np, "sin", no_trig)
    with pytest.raises(ValidationError, match="not finite"):
        FdrOperator(kernel, SMALL_GRID)
    with pytest.raises(ValidationError, match="not finite"):
        FdrOperator(kernel, SMALL_GRID, 1e-2)
    with pytest.raises(ValidationError, match="not finite"):
        discretize_bath(kernel, SMALL_GRID, 1e-2)


def test_grid_rejects_overflowing_phases():
    # the window rule, shared with BathModel, refuses the grid before any operator
    with pytest.raises(ValidationError, match="phases"):
        FdrGrid(t_max_fs=1e10, omega_max_cm1=1e306, n_time=3, n_freq=4)


def test_discretize_memory_cap_is_the_id_working_set(monkeypatch):
    # Q (r x 2m) and R (r x n) at r = min(2m, n), three 2m x 256 blocks capped
    # at n columns, and 192 bytes per column
    grid = FdrGrid(t_max_fs=100.0, omega_max_cm1=1000.0, n_time=20, n_freq=200)
    need = 8 * (min(40, 200) * (40 + 200) + 3 * 40 * min(200, 256)) + 192 * 200
    assert discretize_bath(DEBYE_300K, grid, 1e-2, memory_cap_bytes=need).mode_count > 0

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the memory check")

    monkeypatch.setattr(disc, "FdrOperator", no_work)
    monkeypatch.setattr(NoiseKernel, "evaluate", no_work)
    with pytest.raises(ResourceLimitError, match="cap"):
        discretize_bath(DEBYE_300K, grid, 1e-2, memory_cap_bytes=need - 1)
    # 206 MB on the default grid, well inside the default 4 GiB cap
    default = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0)
    need = 8 * (2000 * 12000 + 3 * 2000 * 256) + 192 * 10000
    assert need <= disc.DEFAULT_MEMORY_CAP_BYTES
    with pytest.raises(ResourceLimitError, match="column ID"):
        discretize_bath(DEBYE_300K, default, 1e-2, memory_cap_bytes=need - 1)


@pytest.mark.parametrize(
    "n_time, n_freq, kelvin, tol",
    [
        (2, 1 << 18, 300.0, 1e-2),
        (4, 1 << 17, 300.0, 1e-2),
        (64, 1 << 17, 300.0, 1e-2),
        (5, 1 << 18, 300.0, 1e-2),
        (1000, 10000, 300.0, 1e-2),
        (1000, 10000, 0.0, 1e-2),
        (1000, 10000, 300.0, 1e-6),
        (1000, 10000, 300.0, 1e-8),
    ],
)
def test_discretize_peak_allocation_stays_within_the_checked_bytes(n_time, n_freq, kelvin, tol):
    # a wide grid is dominated by the per-column arrays, among them the chirp-z
    # kernel's one row (about n_freq complex values when n_freq >> n_time), the
    # default grid at 0 K by the blocks of recomputed residual norms, and tight
    # tols by Q, R and those blocks, each freed before the next is built
    temperature = Temperature.finite(kelvin) if kelvin else Temperature.zero()
    kernel = NoiseKernel(SURROGATE, temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0, n_time=n_time, n_freq=n_freq)
    need = 8 * (min(2 * n_time, n_freq) * (2 * n_time + n_freq) + 3 * 2 * n_time * 256)
    need += 192 * n_freq
    tracemalloc.start()
    try:
        discretize_bath(kernel, grid, tol, memory_cap_bytes=need)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_discretize_never_builds_the_dense_matrix(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("assemble_fdr called")

    monkeypatch.setattr(disc, "assemble_fdr", no_dense)
    assert discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2).mode_count > 0


# --- discretize_bath ------------------------------------------------------------


def test_narrow_lorentzian_selects_the_peak():
    # at zero temperature the noise is a single narrow peak; its location
    # is the oracle for the dominant selected frequency.
    sd = LorentzianSum(terms=((20.0, 3.0, 400.0),))
    kernel = NoiseKernel(sd, Temperature.zero())
    grid = FdrGrid(t_max_fs=300.0, omega_max_cm1=800.0, n_time=150, n_freq=1600)
    model = discretize_bath(kernel, grid, 1e-2)
    assert model.mode_count <= 4
    dominant = model.omegas[np.argmax(model.g)]
    grid_step = 2 * 800.0 / 1600
    fine = np.linspace(0.0, 800.0, 400001)
    peak = fine[np.argmax(kernel.evaluate(fine))]
    assert abs(dominant - peak) <= grid_step


def test_modes_subset_of_grid_frequencies_bit_identical():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    grid_set = set(SMALL_GRID.freqs.tolist())
    assert all(w in grid_set for w in model.omegas.tolist())


def test_model_invariants_and_t0_identity():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    d = model.diagnostics
    assert d.mode_count <= d.id_rank
    assert np.all(model.z > 0.0)
    assert np.all(model.g >= 0.0)
    np.testing.assert_allclose(model.g**2, model.z * DEBYE_300K.evaluate(model.omegas), rtol=1e-12)
    assert np.all(np.diff(model.omegas) > 0.0)
    # reconstruction at t=0 equals sum of weights and matches the reference
    c_ref = reference_bcf(DEBYE_300K, [0.0], SMALL_GRID.omega_max_cm1)[0]
    total = float(np.sum(model.g**2))
    peak_scale = abs(c_ref)
    assert abs(total - c_ref.real) <= d.rel_error * peak_scale + 1e-9


def test_discretize_rel_error_within_tol():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    assert model.diagnostics.rel_error <= 1e-2
    times = SMALL_GRID.times
    c_model = reconstruct_bcf(model, times)
    c_ref = reference_bcf(DEBYE_300K, times, SMALL_GRID.omega_max_cm1)
    stats = bcf_error_stats(c_model, c_ref)
    assert stats.rel_error == pytest.approx(model.diagnostics.rel_error, rel=1e-9)


def test_discretize_takes_its_bcf_errors_from_the_fit(monkeypatch):
    # the fitted columns' A z is the modes' C(t) on the grid times: no second mode sum
    def no_mode_sum(*args, **kwargs):
        raise AssertionError("direct_sum called")

    monkeypatch.setattr(disc, "direct_sum", no_mode_sum)
    assert discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2).diagnostics.rel_error <= 1e-2


@pytest.mark.parametrize("tol", [1e-2, 1e-8])
@pytest.mark.parametrize("kelvin", [0.0, 300.0])
def test_fit_bcf_errors_match_the_mode_sum_of_the_model(kelvin, tol):
    # absolute bounds: at tol 1e-8 the error itself is ~4e-8 of the peak, so
    # roundoff of the peak's size is a large fraction of it
    temperature = Temperature.finite(kelvin) if kelvin else Temperature.zero()
    kernel = NoiseKernel(SURROGATE, temperature)
    grid = FdrGrid(t_max_fs=1000.0, omega_max_cm1=600.0)
    model = discretize_bath(kernel, grid, tol)
    c_ref = reference_bcf(kernel, grid.times, grid.omega_max_cm1)
    stats = bcf_error_stats(reconstruct_bcf(model, grid.times), c_ref)
    diag, peak = model.diagnostics, np.max(np.abs(c_ref))
    assert abs(diag.max_abs_error - stats.max_abs_error) <= 1e-12 * peak
    assert abs(diag.mean_abs_error - stats.mean_abs_error) <= 1e-12 * peak
    assert abs(diag.rel_error - stats.rel_error) <= 1e-12


def test_window_monotonicity_small():
    short = FdrGrid(t_max_fs=150.0, omega_max_cm1=1200.0, n_time=120, n_freq=2400)
    long = FdrGrid(t_max_fs=500.0, omega_max_cm1=1200.0, n_time=250, n_freq=2400)
    m_short = discretize_bath(DEBYE_300K, short, 1e-2).mode_count
    m_long = discretize_bath(DEBYE_300K, long, 1e-2).mode_count
    assert m_short <= m_long


def test_compression_monotonicity_statistical():
    # median mode count over a corpus of random peaked kernels is strictly
    # smaller for the shorter window
    rng = np.random.default_rng(99)
    m_short, m_long = [], []
    for _ in range(10):
        n_terms = int(rng.integers(1, 4))
        terms = tuple(
            (
                float(rng.uniform(5.0, 30.0)),
                float(rng.uniform(4.0, 20.0)),
                float(rng.uniform(40.0, 450.0)),
            )
            for _ in range(n_terms)
        )
        kernel = NoiseKernel(LorentzianSum(terms=terms), Temperature.finite(300.0))
        short = FdrGrid(t_max_fs=300.0, omega_max_cm1=900.0, n_time=150, n_freq=1800)
        long = FdrGrid(t_max_fs=1000.0, omega_max_cm1=900.0, n_time=300, n_freq=1800)
        m_short.append(discretize_bath(kernel, short, 1e-2).mode_count)
        m_long.append(discretize_bath(kernel, long, 1e-2).mode_count)
    assert np.median(m_short) < np.median(m_long)


def test_discretize_fits_on_the_id_factor(monkeypatch):
    # the fit reuses the column ID's QR of the selected columns and warm-starts
    # from it, instead of triangularizing the basis again
    seen = []

    def spy(a, b, factor=None):
        seen.append((a, factor))
        return nnls(a, b, factor)

    monkeypatch.setattr(disc, "nnls", spy)
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    ((a, (t, q)),) = seen
    assert t.shape == (a.shape[1], a.shape[1]) == (model.diagnostics.id_rank,) * 2
    assert np.max(np.abs(q.T @ t - a)) <= 1e-13 * np.max(np.abs(a))
    assert model.diagnostics.nnls_converged


def test_nnls_nonconvergence_carries_partial_diagnostics(monkeypatch):
    import bathkit.discretize as disc
    from bathkit.lowrank import NnlsResult

    def fake_nnls(a, b, factor=None):
        return NnlsResult(
            z=np.zeros(a.shape[1]),
            residual_norm=float(np.linalg.norm(b)),
            iterations=3 * a.shape[1],
            converged=False,
            dual_tolerance=1e-12,
        )

    monkeypatch.setattr(disc, "nnls", fake_nnls)
    with pytest.raises(ConvergenceError) as err:
        disc.discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    assert err.value.diagnostics["id_rank"] > 0
    assert err.value.diagnostics["nnls_iterations"] > 0
    # one fit record: the partial diagnostics are exactly these BathDiagnostics fields
    keys = {
        "id_rank", "nnls_iterations", "nnls_residual_norm",
        "nnls_dual_tolerance", "nnls_max_dual_inactive",
    }
    assert set(err.value.diagnostics) == keys
    assert keys <= {f.name for f in fields(BathDiagnostics)}


def test_pipeline_determinism_bitwise():
    a = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    b = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    np.testing.assert_array_equal(a.omegas, b.omegas)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.g, b.g)
    assert a.diagnostics == b.diagnostics


def test_discretize_tol_validation():
    with pytest.raises(ValidationError):
        discretize_bath(DEBYE_300K, SMALL_GRID, 0.0)
    with pytest.raises(ValidationError):
        discretize_bath(DEBYE_300K, SMALL_GRID, 1.5)


# --- reconstruct_bcf ------------------------------------------------------------


def test_reconstruct_t0_real_sum_of_weights():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    c = reconstruct_bcf(model, [0.0])[0]
    assert c.imag == 0.0
    assert c.real == pytest.approx(float(np.sum(model.g**2)), rel=1e-14)


def test_reconstruct_single_mode_constant_modulus():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    import dataclasses

    single = dataclasses.replace(
        model,
        omegas=model.omegas[:1],
        z=model.z[:1],
        g=model.g[:1],
    )
    times = np.linspace(0, 500, 101)
    c = reconstruct_bcf(single, times)
    np.testing.assert_allclose(np.abs(c), single.g[0] ** 2, rtol=1e-12)


def test_reconstruct_hermitian():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    c = reconstruct_bcf(model, [-120.0, 120.0])
    np.testing.assert_array_equal(c[0], np.conj(c[1]))


# --- bcf_error_stats ------------------------------------------------------------


def test_error_stats_self_comparison_is_zero():
    c = np.array([1 + 2j, 3 - 1j, 0.5j])
    stats = bcf_error_stats(c, c)
    assert stats.max_abs_error == 0.0
    assert stats.mean_abs_error == 0.0
    assert stats.rel_error == 0.0


def test_error_stats_mean_le_max():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    stats = bcf_error_stats(a, b)
    assert stats.mean_abs_error <= stats.max_abs_error


def test_error_report_monotone_in_tol():
    errs = []
    for tol in (1e-1, 1e-2, 1e-3):
        model = discretize_bath(DEBYE_300K, SMALL_GRID, tol)
        c_model = reconstruct_bcf(model, SMALL_GRID.times)
        c_ref = reference_bcf(DEBYE_300K, SMALL_GRID.times, SMALL_GRID.omega_max_cm1)
        errs.append(bcf_error_stats(c_model, c_ref).rel_error)
    assert errs[1] <= errs[0] * 1.1
    assert errs[2] <= errs[1] * 1.1


# --- serialization ---------------------------------------------------------------


def test_bath_model_json_roundtrip_exact():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    buf = io.StringIO()
    save_bath_model(model, buf)
    clone = load_bath_model(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(clone.omegas, model.omegas)
    np.testing.assert_array_equal(clone.z, model.z)
    np.testing.assert_array_equal(clone.g, model.g)
    assert clone.temperature == model.temperature
    assert clone.t_max_fs == model.t_max_fs
    assert clone.omega_max_cm1 == model.omega_max_cm1
    assert clone.tol == model.tol
    assert clone.diagnostics == model.diagnostics
    w = np.linspace(-500, 500, 101)
    np.testing.assert_array_equal(clone.sd.evaluate(w), model.sd.evaluate(w))


def test_bath_model_missing_modes_pointer():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    doc = bath_model_to_dict(model)
    del doc["modes"]
    with pytest.raises(SchemaError) as err:
        bath_model_from_dict(doc)
    assert err.value.pointer == "/modes"


@pytest.mark.parametrize("key", ["temperature_K", "spectral_density"])
def test_bath_model_missing_key_is_named_once(key):
    doc = bath_model_to_dict(discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2))
    del doc[key]
    with pytest.raises(SchemaError) as err:
        bath_model_from_dict(doc)
    assert err.value.pointer == f"/{key}"
    assert str(err.value) == f"/{key}: missing required key"


def test_bath_model_bad_mode_entry_pointer():
    model = discretize_bath(DEBYE_300K, SMALL_GRID, 1e-2)
    doc = bath_model_to_dict(model)
    del doc["modes"][1]["z"]
    with pytest.raises(SchemaError) as err:
        bath_model_from_dict(doc)
    assert err.value.pointer == "/modes/1/z"
