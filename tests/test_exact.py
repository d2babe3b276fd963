import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sphereflow import exact
from sphereflow.exact import (
    VortexPairParams,
    azimuthal_velocity,
    gradient_modulus_function,
    hemisphere_vorticity_integral,
    streamfunction_profile,
    vorticity_profile,
)
from sphereflow.grid import DEFAULT_BAND, GridSpec, build_grid
from sphereflow.operators import laplace_beltrami_fd, vorticity_from_velocity

from conftest import band_max

P1 = VortexPairParams(k1=1.0, k2=0.0)
CATALAN = 0.915965594177219015


@pytest.mark.parametrize("k1,k2", [(1.0, 0.0), (-2.0, 0.5), (0.0, 3.0)])
def test_vorticity_at_equator_is_offset(k1, k2):
    assert vorticity_profile(math.pi / 2, VortexPairParams(k1, k2)) == pytest.approx(
        k2, abs=1e-14
    )


@given(st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_vorticity_mirror_sum(theta):
    p = VortexPairParams(k1=1.3, k2=-0.7)
    total = vorticity_profile(theta, p) + vorticity_profile(math.pi - theta, p)
    assert total == pytest.approx(2 * p.k2, abs=1e-12)


def test_vorticity_reference_value():
    # direct evaluation, cross-checked by integrating d(omega)/d(theta) = 1/sin
    got = vorticity_profile(math.pi / 3, P1)
    assert got == pytest.approx(math.log(math.tan(math.pi / 6)), abs=1e-15)
    ode, _ = quad(lambda t: 1.0 / math.sin(t), math.pi / 2, math.pi / 3)
    assert got == pytest.approx(ode, abs=1e-10)
    assert got == pytest.approx(-0.5493061443340548, abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, math.pi, -1.0])
def test_profile_pole_singularity(theta):
    with pytest.raises(ValueError):
        vorticity_profile(theta, P1)
    with pytest.raises(ValueError):
        azimuthal_velocity(theta, P1)


@pytest.mark.parametrize(
    "profile", [vorticity_profile, azimuthal_velocity, streamfunction_profile]
)
@pytest.mark.parametrize(
    "theta", [math.nan, math.inf, np.array([0.5, math.nan]), np.array([[1.0], [-math.inf]])]
)
def test_profiles_reject_non_finite_colatitude(profile, theta):
    with pytest.raises(ValueError, match="finite"):
        profile(theta, P1)


def test_velocity_at_equator():
    # closed form: I(pi/2) = -log 2
    assert azimuthal_velocity(math.pi / 2, P1) == pytest.approx(-math.log(2.0), abs=1e-12)
    oracle, _ = quad(lambda s: math.sin(s) * math.log(math.tan(s / 2)), 0.0, math.pi / 2)
    assert azimuthal_velocity(math.pi / 2, P1) == pytest.approx(oracle, abs=1e-8)


def test_velocity_quadrature_oracle_random_points():
    rng = np.random.default_rng(12)
    for theta in rng.uniform(0.05, math.pi - 0.05, size=8):
        oracle, _ = quad(lambda s: math.sin(s) * math.log(math.tan(s / 2)), 0.0, theta)
        got = azimuthal_velocity(theta, P1)
        assert got == pytest.approx(oracle / math.sin(theta), abs=1e-9)


def test_velocity_equatorial_symmetry():
    thetas = np.linspace(0.05, math.pi / 2, 40)
    north = azimuthal_velocity(thetas, P1)
    south = azimuthal_velocity(math.pi - thetas, P1)
    assert np.max(np.abs(north - south)) < 1e-12
    for theta in (math.pi - 0.9e-4, math.pi - 1.1e-4):
        assert azimuthal_velocity(theta, P1) == pytest.approx(
            azimuthal_velocity(math.pi - theta, P1), abs=1e-12
        )


def _gauss_colatitudes(nlat):
    return build_grid(GridSpec(nlat=nlat, nlon=4)).thetas


# log-spaced toward both poles; float64 resolves pi - theta only down to ~1e-15
_POLE_SWEEP = np.concatenate(
    [np.logspace(-150, -0.5, 150), [math.pi / 2], math.pi - np.logspace(-15, -0.5, 60)]
)
_ORACLE_THETAS = {
    "pole-sweep": _POLE_SWEEP,
    **{f"gauss{n}": _gauss_colatitudes(n) for n in (64, 256, 1024)},
}


def _mp_velocity(theta):
    """u_phi for k1 = 1 from the cancelling closed form of I, at 700 digits.

    log(sin) and cos*log(tan) agree in all but ~|log10(theta^2)| leading
    digits near a pole, so 40 digits lose everything below theta ~ 1e-20.
    """
    with mpmath.workdps(700):
        th = mpmath.mpf(float(theta))
        integral = (
            mpmath.log(mpmath.sin(th)) - mpmath.cos(th) * mpmath.log(mpmath.tan(th / 2)) - mpmath.log(2)
        )
        return float(integral / mpmath.sin(th))


@pytest.mark.parametrize("nodes", sorted(_ORACLE_THETAS))
def test_velocity_matches_high_precision_closed_form(nodes):
    thetas = _ORACLE_THETAS[nodes]
    got = azimuthal_velocity(thetas, P1)
    oracle = np.array([_mp_velocity(t) for t in thetas])
    assert np.max(np.abs(got - oracle) / np.abs(oracle)) <= 1e-15


def _mp_velocity_near_pole(theta):
    """u_phi for k1 = 1 as (s^2 log s^2 + (1 - s^2) log1p(-s^2)) / sin, s = sin(theta/2).

    Both terms are <= 0, so 50 digits hold at any theta; the c^2 log c^2
    form needs about 2 |log10 theta| digits.
    """
    with mpmath.workdps(50):
        th = mpmath.mpf(float(theta))
        s2 = mpmath.sin(th / 2) ** 2
        return float((s2 * mpmath.log(s2) + (1 - s2) * mpmath.log1p(-s2)) / mpmath.sin(th))


def test_velocity_holds_its_digits_or_refuses_near_the_north_pole():
    bound = exact._VELOCITY_THETA_MIN
    for theta in (bound, np.nextafter(bound, 1.0), 1e-153, 1e-150, 1e-100, 1e-20):
        oracle = _mp_velocity_near_pole(theta)
        assert azimuthal_velocity(theta, P1) == pytest.approx(oracle, rel=1e-14, abs=0.0)
    # sin^2(theta/2) is subnormal below the bound: 4.6e-14 relative off at
    # 1e-155, -0.0 at 1e-200 and NaN at the least double without it
    for theta in (np.nextafter(bound, 0.0), 1e-155, 1e-160, 1e-200, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="u_phi needs theta >= 2.98"):
            azimuthal_velocity(theta, P1)
    with pytest.raises(ValueError, match="u_phi needs theta"):
        azimuthal_velocity(np.array([1.0, 1e-200]), P1)


def _mp_neg_dilog(q):
    with mpmath.workdps(40):
        return float(mpmath.polylog(2, -mpmath.mpf(float(q))))


def test_neg_dilog_matches_mpmath_polylog():
    q = np.concatenate([[0.0, 1e-300, 1e-20, 1e-8, 1e-3, 0.125, 1.0], np.linspace(0.0, 1.0, 257)])
    got = exact._neg_dilog(q)
    oracle = np.array([_mp_neg_dilog(x) for x in q])
    assert np.all(np.abs(got - oracle) <= 1e-15 * np.abs(oracle))


def test_dilog_coefficients_are_bernoulli_over_factorial():
    expected = [
        sympy.bernoulli(2 * k) / sympy.factorial(2 * k + 1) for k in range(1, 9)
    ]
    assert list(exact._DILOG_BERNOULLI) == [float(c) for c in expected]


def test_velocity_pole_behavior():
    # asymptotically -(k1) [ (theta/2) log(theta/2) + theta/4 ] -> 0
    for theta in (1e-3, 1e-4, 1e-5):
        series = -(0.5 * theta * math.log(0.5 * theta) - 0.25 * theta)
        assert abs(azimuthal_velocity(theta, P1)) == pytest.approx(series, rel=1e-3)
    assert abs(azimuthal_velocity(1e-4, P1)) < 1e-3
    assert abs(azimuthal_velocity(1e-3, P1)) < 5e-3


def test_velocity_extremum_at_equator():
    thetas = np.linspace(0.01, math.pi - 0.01, 2001)
    u = np.abs(azimuthal_velocity(thetas, P1))
    assert np.argmax(u) == 1000  # midpoint of the symmetric sample
    assert u.max() == pytest.approx(math.log(2.0), abs=1e-10)


def test_streamfunction_gauge_and_monotonicity():
    thetas = np.linspace(1e-3, math.pi - 1e-3, 200)
    psi = streamfunction_profile(thetas, P1)
    assert abs(psi[0]) < 1e-5  # gauge psi -> 0 at the north pole
    assert np.all(np.diff(psi) > 0.0)  # u_phi <= 0 for k1 = 1


def test_streamfunction_derivative_is_minus_velocity():
    h = 1e-5
    for theta in (0.4, 1.1, 2.2, 2.9):
        slope = (
            streamfunction_profile(theta + h, P1) - streamfunction_profile(theta - h, P1)
        ) / (2 * h)
        assert slope == pytest.approx(-azimuthal_velocity(theta, P1), abs=1e-8)


def test_streamfunction_scalar_and_array_agree():
    thetas = np.array([0.3, 2.0, 1.1])
    arr = streamfunction_profile(thetas, P1)
    for t, v in zip(thetas, arr):
        assert streamfunction_profile(float(t), P1) == pytest.approx(v, abs=1e-13)


def _mp_streamfunction(theta, k1):
    """psi = -k1 int_0^theta I(s)/sin(s) ds at 40 digits, split at the equator."""
    with mpmath.workdps(40):
        th = mpmath.mpf(float(theta))
        velocity = lambda s: (
            mpmath.log(mpmath.sin(s)) - mpmath.cos(s) * mpmath.log(mpmath.tan(s / 2)) - mpmath.log(2)
        ) / mpmath.sin(s)
        nodes = [0, th] if th <= mpmath.pi / 2 else [0, mpmath.pi / 2, th]
        return -k1 * mpmath.quad(velocity, nodes)


def test_streamfunction_matches_high_precision_quadrature():
    eps = np.array([1e-10, 1e-7, 1e-4, 1e-2])
    thetas = np.concatenate([eps, [0.4, 1.0, math.pi / 2, 2.3], math.pi - eps])
    for k1 in (1.0, -2.5):
        got = streamfunction_profile(thetas, VortexPairParams(k1=k1))
        for theta, value in zip(thetas, got):
            oracle = _mp_streamfunction(theta, k1)
            assert abs(value - float(oracle)) <= 1e-13 * abs(float(oracle)), theta


def _mp_streamfunction_closed(theta):
    """psi for k1 = 1 from the inversion form h(a) with mpmath's polylog, at 40 digits."""
    with mpmath.workdps(40):
        tan_half = mpmath.tan(mpmath.mpf(float(theta)) / 2)
        r = min(tan_half, 1 / tan_half)
        h = -mpmath.log(r) * mpmath.log1p(r * r) - mpmath.polylog(2, -r * r)
        return float(h if tan_half <= 1 else mpmath.pi**2 / 6 - h)


@pytest.mark.parametrize("nodes", sorted(_ORACLE_THETAS))
def test_streamfunction_matches_mpmath_polylog(nodes):
    thetas = _ORACLE_THETAS[nodes]
    got = streamfunction_profile(thetas, P1)
    oracle = np.array([_mp_streamfunction_closed(t) for t in thetas])
    assert np.max(np.abs(got - oracle) / np.abs(oracle)) <= 1e-15


def test_streamfunction_matches_velocity_quadrature():
    # psi = -int_0^theta u_phi: adaptive quadrature of the velocity is the oracle
    thetas = np.random.default_rng(3).uniform(*DEFAULT_BAND, size=12)
    psi = streamfunction_profile(thetas, P1)
    for theta, value in zip(thetas, psi):
        oracle, _ = quad(
            lambda s: azimuthal_velocity(s, P1), 0.0, theta, limit=200, epsabs=1e-13, epsrel=1e-13
        )
        assert value == pytest.approx(-oracle, abs=1e-12)


@pytest.mark.parametrize("k1", [1.0, -2.0, 0.5, 3.0])
def test_streamfunction_equator_and_pole_to_pole_span(k1):
    p = VortexPairParams(k1=k1)
    span = k1 * math.pi**2 / 6
    assert streamfunction_profile(math.pi / 2, p) == pytest.approx(span / 2, rel=1e-15)
    south = streamfunction_profile(math.pi - np.array([1e-4, 1e-7, 1e-10]), p)
    assert np.all(np.diff(np.abs(south - span)) <= 0.0)
    assert south[-1] == pytest.approx(span, rel=1e-15)


def test_streamfunction_equatorial_reflection_and_sign_flip():
    thetas = np.concatenate([[1e-9, 1e-5], np.linspace(0.01, math.pi / 2, 157)])
    for k1 in (1.0, -2.0, 3.0):
        p = VortexPairParams(k1=k1)
        north = streamfunction_profile(thetas, p)
        south = streamfunction_profile(math.pi - thetas, p)
        assert np.max(np.abs(north + south - k1 * math.pi**2 / 6)) <= 4e-15 * abs(k1)
        flipped = streamfunction_profile(thetas, VortexPairParams(k1=-k1))
        assert np.array_equal(flipped, -north)


def test_discrete_poisson_relation():
    # -lap(psi) recovers omega at second order on the pole-excluding band
    p = VortexPairParams(k1=1.0, k2=0.0)
    errs = []
    for nlat in (64, 128):
        g = build_grid(GridSpec(nlat=nlat, nlon=8))
        psi = exact.streamfunction_field(p, g)
        omega = exact.vorticity_field(p, g)
        lap = laplace_beltrami_fd(psi)
        errs.append(
            band_max(type(psi)(g, -lap.values - omega.values))
        )
    assert errs[0] < 1e-2
    assert errs[1] < 0.35 * errs[0]


def test_velocity_field_consistency_chain():
    # curl of (0, u_phi) reproduces the vorticity profile
    p = VortexPairParams(k1=1.0, k2=0.0)
    g = build_grid(GridSpec(nlat=128, nlon=8))
    omega = vorticity_from_velocity(exact.velocity_field(p, g))
    expected = exact.vorticity_field(p, g)
    assert band_max(type(expected)(g, omega.values - expected.values)) < 3e-3


def test_hemisphere_integrals_vortex_pair():
    north = hemisphere_vorticity_integral(P1, "north")
    south = hemisphere_vorticity_integral(P1, "south")
    assert north == pytest.approx(-2 * math.pi * math.log(2.0), abs=1e-9)
    assert south == pytest.approx(2 * math.pi * math.log(2.0), abs=1e-9)
    assert north + south == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k2", [-1.0, 0.5, 2.0])
def test_hemisphere_integrals_offset_only(k2):
    p = VortexPairParams(k1=0.0, k2=k2)
    assert hemisphere_vorticity_integral(p, "north") == pytest.approx(
        2 * math.pi * k2, abs=1e-10
    )


@pytest.mark.parametrize("k1,k2", [(1.0, 0.5), (-2.0, -1.0)])
def test_hemispheres_sum_to_total(k1, k2):
    p = VortexPairParams(k1=k1, k2=k2)
    total = hemisphere_vorticity_integral(p, "north") + hemisphere_vorticity_integral(
        p, "south"
    )
    assert total == pytest.approx(4 * math.pi * k2, abs=1e-8)


def test_hemisphere_without_area_element():
    # the bare d(theta) d(phi) measure gives Catalan's constant instead
    got = hemisphere_vorticity_integral(P1, "north", area_element=False)
    assert got == pytest.approx(-4 * math.pi * CATALAN, abs=1e-8)
    offset = hemisphere_vorticity_integral(
        VortexPairParams(0.0, 2.0), "south", area_element=False
    )
    assert offset == pytest.approx(2.0 * math.pi**2, abs=1e-8)


@pytest.mark.parametrize("area_element", [True, False], ids=["area", "bare"])
@pytest.mark.parametrize("hemisphere", ["north", "south"])
@pytest.mark.parametrize("k1,k2", [(1.0, 0.0), (-2.0, 0.5), (0.3, -1.7)])
def test_hemisphere_closed_form_matches_quadrature(hemisphere, area_element, k1, k2):
    lo, hi = (0.0, 0.5 * math.pi) if hemisphere == "north" else (0.5 * math.pi, math.pi)
    weight = math.sin if area_element else (lambda t: 1.0)
    value, _ = quad(lambda t: (k1 * math.log(math.tan(0.5 * t)) + k2) * weight(t), lo, hi, limit=400)
    got = hemisphere_vorticity_integral(VortexPairParams(k1, k2), hemisphere, area_element)
    assert got == pytest.approx(2.0 * math.pi * value, abs=1e-12)


def test_hemisphere_rejects_unknown_name():
    with pytest.raises(ValueError):
        hemisphere_vorticity_integral(P1, "equator")


def test_gradient_modulus_function_values():
    assert gradient_modulus_function(0.0, P1) == pytest.approx(1.0, abs=1e-15)
    w = np.linspace(-2, 2, 11)
    phi = gradient_modulus_function(w, P1)
    assert np.max(np.abs(phi - gradient_modulus_function(-w, P1))) == 0.0
    p3 = VortexPairParams(k1=-3.0, k2=0.0)
    assert gradient_modulus_function(0.0, p3) == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("p", [VortexPairParams(0.0, 0.0), VortexPairParams(1.0, 0.1)])
def test_gradient_modulus_function_invalid_params(p):
    with pytest.raises(ValueError):
        gradient_modulus_function(0.0, p)


def test_vorticity_field_antisymmetric_rows():
    g = build_grid(GridSpec(nlat=32, nlon=8))
    values = exact.vorticity_field(P1, g).values
    assert np.max(np.abs(values + values[::-1, :])) < 1e-12
