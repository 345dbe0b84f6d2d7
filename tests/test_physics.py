from fractions import Fraction

import numpy as np
import pytest

from nchns import (DoubleWell, Grid2D, HypothesisConstants, ScalarField,
                   Viscosity, chemical_potential, make_kernel)

from oracles import (GrowthConstants, scalar_from_function,
                     validate_potential_conditions, validate_viscosity_bounds)


def _fd(fn, s, h=1e-5):
    return (fn(s + h) - fn(s - h)) / (2 * h)


def test_potential_derivative_chain():
    pot = DoubleWell(scale=1.0)
    s = np.linspace(-3, 3, 301)
    for f, df in [(pot.f, pot.df), (pot.df, pot.d2f)]:
        num = _fd(f, s)
        scale = np.maximum(np.abs(df(s)), 1.0)
        assert np.max(np.abs(num - df(s)) / scale) <= 1e-6


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_potential_derivative_accurate_near_the_wells(scale):
    # F'(s) = scale (s^3 - s) cancels at s = +-1; against exact rational
    # arithmetic on the same double inputs it must stay within a few ulp
    pot = DoubleWell(scale=scale)
    s = np.array([1 + 1e-12, 1 - 1e-12, -1 + 2e-12, 1 + 2.0 ** -40, 0.3, -2.5, 7.0])
    got = pot.df(s)
    for si, gi in zip(s, got, strict=True):
        x = Fraction(float(si))
        exact = Fraction(scale) * (x ** 3 - x)
        ulps = abs(Fraction(float(gi)) - exact) / Fraction(np.spacing(abs(float(exact))))
        assert ulps <= 4, f"F'({si!r}) off by {float(ulps):.3g} ulp"


def test_viscosity_derivative_chain():
    visc = Viscosity(mean=1.0, modulation=0.5)
    s = np.linspace(-3, 3, 301)
    num = _fd(visc.nu, s)
    scale = np.maximum(np.abs(visc.dnu(s)), 1.0)
    assert np.max(np.abs(num - visc.dnu(s)) / scale) <= 1e-6


def test_viscosity_bound_validation():
    Viscosity(mean=1.0, modulation=0.5, nu_min=0.4, nu_max=1.6)  # ok
    with pytest.raises(ValueError):
        Viscosity(mean=1.0, modulation=1.1, nu_min=0.4, nu_max=2.2)
    constant = Viscosity(mean=1.0, modulation=0.0, nu_min=1.0, nu_max=1.0)
    assert validate_viscosity_bounds(constant).passed


def test_viscosity_profile_report_fails_when_bounds_lie():
    # bypass the constructor check to exercise the sampled report
    visc = Viscosity(mean=1.0, modulation=0.5, nu_min=0.4, nu_max=1.6)
    object.__setattr__(visc, "nu_min", 0.6)
    report = validate_viscosity_bounds(visc)
    assert not report.passed


def test_chemical_potential_zero_state():
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.2)
    mu = chemical_potential(ScalarField.zeros(grid), kern, DoubleWell())
    np.testing.assert_allclose(mu.values, 0.0, atol=1e-13)


def test_chemical_potential_delta_kernel(rng):
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "delta")
    pot = DoubleWell()
    phi = ScalarField(grid, rng.standard_normal((16, 16)))
    mu = chemical_potential(phi, kern, pot)
    np.testing.assert_allclose(mu.values, pot.df(phi.values), atol=1e-12)


def test_chemical_potential_matches_direct_assembly(rng):
    from oracles import direct_convolution
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.15)
    pot = DoubleWell()
    phi = scalar_from_function(grid, lambda x, y: np.tanh((x - 0.5) / 0.1))
    mu = chemical_potential(phi, kern, pot)
    direct = (kern.mass_field.values * phi.values
              - direct_convolution(kern, phi.values) + pot.df(phi.values))
    rel = np.max(np.abs(mu.values - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-12


def test_chemical_potential_translation_identity(rng):
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "delta")
    pot = DoubleWell()
    phi = ScalarField(grid, rng.standard_normal((16, 16)))
    c = 0.3
    shifted = ScalarField(grid, phi.values + c)
    dmu = chemical_potential(shifted, kern, pot).values \
        - chemical_potential(phi, kern, pot).values
    np.testing.assert_allclose(dmu, pot.df(phi.values + c) - pot.df(phi.values),
                               atol=1e-12)


def test_potential_conditions_pass_with_scaled_kernel():
    grid = Grid2D(32, 32)
    constants = HypothesisConstants()
    pot = DoubleWell(scale=1.0)
    kern = make_kernel(grid, "gaussian", width=0.2,
                       auto_scale_target=pot.scale + constants.c1)
    report = validate_potential_conditions(pot, kern, constants)
    assert report.passed, "\n".join(report.lines())


def test_coercivity_fails_for_weak_kernel():
    # min a = 0.5 cannot compensate F''(0) = -1
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=0.5)
    report = validate_potential_conditions(DoubleWell(), kern,
                                           HypothesisConstants())
    cond = report.conditions[0]
    assert not cond.passed
    assert abs(cond.worst_s) < 0.05  # worst case sits at the well center


def test_growth_condition_r43():
    grid = Grid2D(16, 16)
    kern = make_kernel(grid, "gaussian", width=0.2, auto_scale_target=1.1)
    report = validate_potential_conditions(DoubleWell(), kern,
                                           HypothesisConstants())
    assert report.conditions[2].passed  # |F'|^{4/3} <= c4 |F| + c5


def test_constants_validation():
    with pytest.raises(ValueError):
        GrowthConstants(p=2.0)
    with pytest.raises(ValueError):
        GrowthConstants(r=2.5)
    with pytest.raises(ValueError):
        HypothesisConstants(c1=0.0)
