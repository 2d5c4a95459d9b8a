import io
import math
from pathlib import Path

import numpy as np
import pytest

from bathkit.errors import ValidationError
from bathkit.specdens import (
    Debye,
    LorentzianSum,
    NoiseKernel,
    OhmicExp,
    Tabulated,
    Temperature,
    load_tabulated,
    sd_from_config,
)
from bathkit.surrogate import surrogate_sd
from bathkit.units import KB_CM1_PER_K

ALL_KINDS = [
    Debye(lam=35.0, gamma=106.1),
    OhmicExp(alpha=1.2, omega_c=150.0),
    LorentzianSum(terms=((10.0, 5.0, 80.0), (4.0, 12.0, 210.0))),
    Tabulated(
        omega=np.array([10.0, 25.0, 60.0, 200.0]),
        values=np.array([1.0, 4.0, 2.5, 0.3]),
    ),
]


def test_debye_far_tail_where_the_square_overflows():
    # x*x overflows above ~1.3e154 cm^-1 while 2*lam*gamma/omega is a normal double
    sd = Debye(lam=35.0, gamma=106.1)
    omegas = np.array([2e154, 1e200, -1e200, 1e300, 1e305, 1.7e308, -1.7e308])
    expected = 2.0 * 35.0 * 106.1 / omegas
    np.testing.assert_allclose(sd.evaluate(omegas), expected, rtol=1e-15, atol=0.0)
    assert sd.evaluate(1e200) > 0.0


@pytest.mark.parametrize(
    "temp", [Temperature.zero(), Temperature.finite(300.0)], ids=["0K", "300K"]
)
def test_ohmic_far_tail_is_finite_without_warnings(temp):
    # 0.5*pi*alpha*omega overflows above ~9.5e307 (the suite turns numpy warnings
    # into errors); omega*exp(-omega/omega_c) is 0 there
    sd = OhmicExp(alpha=1.2, omega_c=150.0)
    omegas = np.array([1e308, -1e308, 1.7e308, -1.7e308])
    assert np.array_equal(sd.evaluate(omegas), np.zeros(4))
    assert np.array_equal(NoiseKernel(sd, temp).evaluate(omegas), np.zeros(4))


def test_debye_in_range_values_unchanged_bit_for_bit():
    sd = Debye(lam=35.0, gamma=106.1)
    x = np.concatenate(([0.0], np.logspace(-300, 154, 2000)))
    plain = 2.0 * 35.0 * 106.1 * x / (x * x + 106.1 * 106.1)
    assert np.array_equal(sd.evaluate(x), plain)
    assert np.array_equal(sd.evaluate(-x), -plain)


def test_debye_peak_value():
    sd = Debye(lam=35.0, gamma=106.1)
    assert sd.evaluate(106.1) == pytest.approx(35.0, rel=1e-14)
    assert sd.evaluate(-106.1) == pytest.approx(-35.0, rel=1e-14)


def test_tabulated_linear_interpolation():
    sd = Tabulated(omega=np.array([10.0, 20.0]), values=np.array([1.0, 2.0]))
    assert sd.evaluate(15.0) == pytest.approx(1.5, abs=1e-15)
    # anchored at (0, 0) below the first point
    assert sd.evaluate(5.0) == pytest.approx(0.5, abs=1e-15)
    # zero beyond the last point
    assert sd.evaluate(25.0) == 0.0


@pytest.mark.parametrize("sd", ALL_KINDS, ids=lambda s: type(s).__name__)
def test_odd_symmetry_is_exact(sd):
    rng = np.random.default_rng(7)
    w = rng.uniform(-400.0, 400.0, size=1000)
    assert np.all(sd.evaluate(w) + sd.evaluate(-w) == 0.0)
    assert sd.evaluate(0.0) == 0.0


@pytest.mark.parametrize("sd", ALL_KINDS, ids=lambda s: type(s).__name__)
def test_derivative_at_zero_matches_finite_difference(sd):
    eps = 1e-7
    fd = (sd.evaluate(eps) - sd.evaluate(-eps)) / (2 * eps)
    assert sd.derivative_at_zero() == pytest.approx(fd, rel=1e-5)


def test_tabulated_validation_errors():
    with pytest.raises(ValidationError):
        Tabulated(omega=np.array([20.0, 10.0]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        Tabulated(omega=np.array([0.0, 10.0]), values=np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        Tabulated(omega=np.array([10.0]), values=np.array([1.0]))
    with pytest.raises(ValidationError):
        Tabulated(omega=np.array([10.0, np.nan]), values=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError, match="equal-length"):
        Tabulated(omega=np.array([10.0, 20.0]), values=np.array([1.0]))


def test_load_tabulated_roundtrip_and_errors():
    sd = load_tabulated(io.StringIO("10,1.0\n20,2.0"))
    assert sd.omega.size == 2
    assert sd.evaluate(15.0) == pytest.approx(1.5)

    sd = load_tabulated(io.StringIO("omega_cm1,J_cm1\n10,1.0\n20,2.0\n"))
    assert sd.omega.size == 2

    sd = load_tabulated(io.StringIO("omega_cm1,J_cm1\n# comment\n10,1.0\n20,2.0\n"))
    assert sd.omega.tolist() == [10.0, 20.0]
    # the header is the first line that is neither blank nor a comment
    sd = load_tabulated(io.StringIO("# my table\nomega,J\n1,2\n3,4"))
    assert sd.omega.tolist() == [1.0, 3.0]
    sd = load_tabulated(io.StringIO("\n# my table\n\nomega,J\n1,2\n3,4"))
    assert sd.omega.tolist() == [1.0, 3.0]
    with pytest.raises(ValidationError, match="line 3"):
        load_tabulated(io.StringIO("# my table\nomega,J\nomega,J\n1,2\n3,4"))

    with pytest.raises(ValidationError, match="increasing"):
        load_tabulated(io.StringIO("20,2.0\n10,1.0"))
    with pytest.raises(ValidationError, match="2 points"):
        load_tabulated(io.StringIO(""))
    with pytest.raises(ValidationError, match="line 2"):
        load_tabulated(io.StringIO("10,1.0\nbogus,entry\n20,2.0"))
    with pytest.raises(ValidationError, match="2 columns"):
        load_tabulated(io.StringIO("10,1.0,3.0\n20,2.0"))


def test_shipped_surrogate_csv_is_the_library_surrogate():
    # the CLI examples read the CSV; the acceptance tests and the benchmark call the function
    shipped = load_tabulated(Path(__file__).parent.parent / "configs" / "surrogate_sd.csv")
    library = surrogate_sd()
    assert shipped.omega.tobytes() == library.omega.tobytes()
    assert shipped.values.tobytes() == library.values.tobytes()


def test_sd_from_config_all_kinds():
    for sd in ALL_KINDS:
        clone = sd_from_config(sd.to_config())
        w = np.linspace(-300, 300, 101)
        np.testing.assert_array_equal(clone.evaluate(w), sd.evaluate(w))
    with pytest.raises(ValidationError, match="kind"):
        sd_from_config({"kind": "unknown"})
    with pytest.raises(ValidationError, match="must be an object"):
        sd_from_config(["debye"])
    with pytest.raises(ValidationError):
        sd_from_config({"kind": "debye", "lambda": 35.0})  # missing gamma


def test_temperature_modes():
    assert Temperature.zero().is_zero
    assert Temperature.finite(300.0).beta == pytest.approx(
        1.0 / (KB_CM1_PER_K * 300.0), rel=1e-15
    )
    with pytest.raises(ValidationError):
        Temperature.finite(0.0)
    assert Temperature.zero().beta == math.inf


def test_zero_temperature_support():
    for sd in ALL_KINDS:
        nk = NoiseKernel(sd, Temperature.zero())
        w = np.linspace(-500.0, 0.0, 257)
        assert np.all(nk.evaluate(w) == 0.0)
        wp = np.linspace(1.0, 500.0, 257)
        np.testing.assert_array_equal(nk.evaluate(wp), sd.evaluate(wp))


def test_noise_limit_at_zero_frequency():
    # Debye(35, 106.1) at 300 K: S(0) = 2*lam/(gamma*beta); frozen value
    # cross-checked against the numerical limit at omega = 1e-8.
    nk = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    expected = 137.56579453345898
    assert nk.evaluate(0.0) == pytest.approx(expected, rel=1e-12)
    assert nk.evaluate(1e-8) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("temp_k", [77.0, 300.0])
@pytest.mark.parametrize("sd", ALL_KINDS, ids=lambda s: type(s).__name__)
def test_detailed_balance(sd, temp_k):
    rng = np.random.default_rng(11)
    nk = NoiseKernel(sd, Temperature.finite(temp_k))
    beta = nk.temperature.beta
    w = rng.uniform(-400.0, 400.0, size=1000)
    w = w[w != 0.0]
    lhs = nk.evaluate(-w)
    rhs = np.exp(-beta * w) * nk.evaluate(w)
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    mask = scale > 0
    assert np.max(np.abs(lhs - rhs)[mask] / scale[mask]) < 1e-12


def test_series_switchover_continuity():
    nk = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    beta = nk.temperature.beta
    w0 = 1e-6 / beta  # switchover point
    for side in (-1.0, 1.0):
        below = nk.evaluate(side * w0 * (1 - 1e-9))
        above = nk.evaluate(side * w0 * (1 + 1e-9))
        assert abs(below - above) / abs(above) < 1e-8


def test_noise_takes_its_zero_limit_where_beta_omega_underflows():
    # a subnormal beta*omega carries too few bits for J/expm1; S is continuous
    # there, so it reads S(0) = J'(0)/beta
    nk = NoiseKernel(Debye(lam=35.0, gamma=106.1), Temperature.finite(300.0))
    w = np.array([5e-324, -5e-324, 1e-320, -1e-320])
    np.testing.assert_allclose(nk.evaluate(w), nk.evaluate(0.0), rtol=1e-12)


def test_noise_is_finite_everywhere():
    for sd in ALL_KINDS:
        for temp in (Temperature.zero(), Temperature.finite(0.1), Temperature.finite(5000.0)):
            nk = NoiseKernel(sd, temp)
            w = np.concatenate(
                [np.linspace(-1e4, 1e4, 1001), [0.0, 1e-300, -1e-300, 1e-15, -1e-15]]
            )
            vals = nk.evaluate(w)
            assert np.all(np.isfinite(vals))


def test_construction_validation_analytic():
    with pytest.raises(ValidationError):
        Debye(lam=-1.0, gamma=106.1)
    with pytest.raises(ValidationError):
        OhmicExp(alpha=1.0, omega_c=0.0)
    with pytest.raises(ValidationError):
        LorentzianSum(terms=())
    with pytest.raises(ValidationError):
        LorentzianSum(terms=((1.0, -5.0, 80.0),))
