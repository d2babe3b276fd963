import math

import numpy as np
import pytest
import sympy

from sphereflow import exact, operators, spharm
from sphereflow.grid import (
    GridSpec,
    ScalarField,
    build_grid,
    colatitude_of_mercator,
    grid_from_colatitudes,
)
from sphereflow.operators import (
    VelocityField,
    jacobian,
    laplace_beltrami_fd,
    longitude_derivative,
    mercator_laplacian,
    ns_residual,
    velocity_from_streamfunction,
    vorticity_from_velocity,
)

from conftest import band_max, fit_order, zonal_field


def _symbolic_velocity(psi_expr):
    """Independent oracle: u = (psi_phi / sin(theta), -psi_theta) via sympy."""
    th, ph = sympy.symbols("theta phi", positive=True)
    u_theta = sympy.diff(psi_expr(th, ph), ph) / sympy.sin(th)
    u_phi = -sympy.diff(psi_expr(th, ph), th)
    return sympy.lambdify((th, ph), u_theta, "numpy"), sympy.lambdify((th, ph), u_phi, "numpy")


def test_velocity_solid_rotation(uniform_grid):
    psi = zonal_field(uniform_grid, uniform_grid.cos_thetas)
    u = velocity_from_streamfunction(psi)
    assert np.max(np.abs(u.u_theta)) == 0.0
    assert np.max(np.abs(u.u_phi - uniform_grid.sin_thetas[:, None])) < 1e-3


def test_velocity_constant_streamfunction(gl_grid):
    psi = ScalarField(gl_grid, np.full((gl_grid.nlat, gl_grid.nlon), 3.7))
    u = velocity_from_streamfunction(psi)
    assert np.max(np.abs(u.u_theta)) == 0.0
    assert np.max(np.abs(u.u_phi)) == 0.0


def test_velocity_against_symbolic_oracle(uniform_grid):
    g = uniform_grid
    expr = lambda th, ph: sympy.sin(th) * sympy.sin(ph)
    u_theta_fn, u_phi_fn = _symbolic_velocity(expr)
    tt, pp = np.meshgrid(g.thetas, g.phis, indexing="ij")
    # the oracle reduces to the closed forms quoted alongside it
    assert np.max(np.abs(u_theta_fn(tt, pp) - np.cos(pp))) < 1e-12
    assert np.max(np.abs(u_phi_fn(tt, pp) + np.cos(tt) * np.sin(pp))) < 1e-12
    u = velocity_from_streamfunction(ScalarField(g, np.sin(tt) * np.sin(pp)))
    assert np.max(np.abs(u.u_theta - u_theta_fn(tt, pp))) < 2e-3
    assert np.max(np.abs(u.u_phi - u_phi_fn(tt, pp))) < 2e-3


def test_velocity_spectral_derivatives(gl_grid):
    # exact derivatives of the truncated expansion of psi = cos(theta)
    plan = spharm.build_plan(gl_grid, 5)
    c = spharm.real_single_mode(5, 1, 0, amplitude=math.sqrt(4 * math.pi / 3))
    dpsi_dtheta, dpsi_dphi = spharm.synthesize_gradient(c, plan)
    u_theta = dpsi_dphi / gl_grid.sin_thetas[:, None]
    assert np.max(np.abs(-dpsi_dtheta - gl_grid.sin_thetas[:, None])) < 1e-12
    assert np.max(np.abs(u_theta)) < 1e-12


def test_vorticity_solid_rotation(uniform_grid):
    g = uniform_grid
    u = VelocityField(
        grid=g,
        u_theta=np.zeros((g.nlat, g.nlon)),
        u_phi=np.repeat(g.sin_thetas[:, None], g.nlon, axis=1),
    )
    omega = vorticity_from_velocity(u)
    assert np.max(np.abs(omega.values - 2.0 * g.cos_thetas[:, None])) < 0.02


def test_vorticity_of_zero_velocity(gl_grid):
    z = np.zeros((gl_grid.nlat, gl_grid.nlon))
    omega = vorticity_from_velocity(VelocityField(grid=gl_grid, u_theta=z, u_phi=z))
    assert np.max(np.abs(omega.values)) == 0.0


def test_vorticity_from_eigenmode_streamfunction(uniform_grid):
    # psi = Y_2^0 gives omega = -lap(psi) = 6 psi
    plan = spharm.build_plan(uniform_grid, 5)
    psi = spharm.synthesize(spharm.real_single_mode(5, 2, 0), plan)
    omega = vorticity_from_velocity(velocity_from_streamfunction(psi))
    assert np.max(np.abs(omega.values - 6.0 * psi.values)) < 0.06


def test_convention_closure_second_order():
    # curl of the rotated gradient equals minus the Laplacian, to O(h^2)
    rng = np.random.default_rng(11)
    c = spharm.random_real_field(10, rng)
    errs = []
    for nlat in (48, 96, 192):
        g = build_grid(GridSpec(nlat=nlat, nlon=2 * nlat, kind="uniform-interior"))
        plan = spharm.build_plan(g, 10)
        psi = spharm.synthesize(c, plan)
        lhs = vorticity_from_velocity(velocity_from_streamfunction(psi))
        rhs = laplace_beltrami_fd(psi)
        mask = g.band_mask(np.pi / 8, 7 * np.pi / 8)
        scale = np.max(np.abs(rhs.values[mask]))
        errs.append(np.max(np.abs(lhs.values[mask] + rhs.values[mask])) / scale)
    assert errs[-1] < 1e-2
    assert fit_order(errs) == pytest.approx(2.0, abs=0.3)


def test_laplacian_of_constant_is_exactly_zero(gl_grid):
    f = ScalarField(gl_grid, np.full((gl_grid.nlat, gl_grid.nlon), -2.5))
    assert np.max(np.abs(laplace_beltrami_fd(f).values)) == 0.0


def test_laplacian_eigenfunction_convergence():
    errs = []
    for nlat in (32, 64, 128):
        g = build_grid(GridSpec(nlat=nlat, nlon=8, kind="uniform-interior"))
        f = zonal_field(g, g.cos_thetas)
        lap = laplace_beltrami_fd(f)
        errs.append(band_max(ScalarField(g, lap.values + 2.0 * f.values)))
    assert fit_order(errs) == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
def test_laplacian_annihilates_vortex_profile(kind):
    # the profile is linear in the conformal latitude, so the stencil is exact
    p = exact.VortexPairParams(k1=1.0, k2=0.0)
    for nlat in (64, 256):
        g = build_grid(GridSpec(nlat=nlat, nlon=8, kind=kind))
        lap = laplace_beltrami_fd(exact.vorticity_field(p, g))
        assert band_max(lap) < 1e-10


def test_jacobian_of_zonal_pair_is_exactly_zero(gl_grid):
    p = exact.VortexPairParams(k1=1.0, k2=0.0)
    psi = exact.streamfunction_field(p, gl_grid)
    omega = exact.vorticity_field(p, gl_grid)
    assert np.max(np.abs(jacobian(psi, omega).values)) == 0.0


def test_jacobian_self_and_antisymmetry(gl_grid):
    rng = np.random.default_rng(6)
    plan = spharm.build_plan(gl_grid, 8)
    a = spharm.synthesize(spharm.random_real_field(8, rng), plan)
    b = spharm.synthesize(spharm.random_real_field(8, rng), plan)
    scale = np.max(np.abs(jacobian(a, b).values))
    assert np.max(np.abs(jacobian(a, a).values)) <= 1e-13 * max(1.0, scale)
    anti = jacobian(a, b).values + jacobian(b, a).values
    assert np.max(np.abs(anti)) <= 1e-13 * max(1.0, scale)


def test_jacobian_against_symbolic_oracle(uniform_grid):
    g = uniform_grid
    th, ph = sympy.symbols("theta phi", positive=True)
    j_expr = sympy.simplify(
        sympy.diff(sympy.cos(th), ph) * sympy.diff(sympy.sin(th) * sympy.cos(ph), th)
        - sympy.diff(sympy.cos(th), th) * sympy.diff(sympy.sin(th) * sympy.cos(ph), ph)
    )
    j_fn = sympy.lambdify((th, ph), j_expr, "numpy")
    tt, pp = np.meshgrid(g.thetas, g.phis, indexing="ij")
    assert np.max(np.abs(j_fn(tt, pp) + np.sin(tt) ** 2 * np.sin(pp))) < 1e-12
    got = jacobian(
        zonal_field(g, g.cos_thetas), ScalarField(g, np.sin(tt) * np.cos(pp))
    )
    assert np.max(np.abs(got.values - j_fn(tt, pp))) < 5e-3


def test_jacobian_grid_mismatch():
    g1 = build_grid(GridSpec(nlat=8, nlon=8))
    g2 = build_grid(GridSpec(nlat=8, nlon=16))
    with pytest.raises(ValueError):
        jacobian(
            ScalarField(g1, np.zeros((8, 8))), ScalarField(g2, np.zeros((8, 16)))
        )


def test_ns_residual_zero_fields(gl_grid):
    z = ScalarField(gl_grid, np.zeros((gl_grid.nlat, gl_grid.nlon)))
    assert np.max(np.abs(ns_residual(z, z, 0.7).values)) == 0.0


@pytest.mark.parametrize("nu", [0.0, 0.01, 1.0])
def test_ns_residual_vortex_pair(nu):
    p = exact.VortexPairParams(k1=1.0, k2=0.0)
    g = build_grid(GridSpec(nlat=128, nlon=8))
    r = ns_residual(
        exact.streamfunction_field(p, g), exact.vorticity_field(p, g), nu
    )
    assert band_max(r) < 1e-10


def test_ns_residual_zonal_eigenpair(gl_grid):
    plan = spharm.build_plan(gl_grid, 5)
    psi = spharm.synthesize(spharm.real_single_mode(5, 2, 0), plan)
    omega = ScalarField(gl_grid, 6.0 * psi.values)
    r = ns_residual(psi, omega, 0.0)
    assert np.max(np.abs(r.values)) <= 1e-13


def test_ns_residual_rejects_negative_viscosity(gl_grid):
    z = ScalarField(gl_grid, np.zeros((gl_grid.nlat, gl_grid.nlon)))
    with pytest.raises(ValueError):
        ns_residual(z, z, -1.0)


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_ns_residual_rejects_non_finite_viscosity(gl_grid, nu):
    # NaN passed the old nu < 0 test and made `sphereflow residual` print nan
    z = ScalarField(gl_grid, np.zeros((gl_grid.nlat, gl_grid.nlon)))
    with pytest.raises(ValueError, match=f"viscosity must be finite and nonnegative, got {nu}"):
        ns_residual(z, z, nu)


def test_longitude_derivative_zonal_rows(gl_grid):
    f = zonal_field(gl_grid, gl_grid.cos_thetas)
    assert np.max(np.abs(longitude_derivative(f).values)) == 0.0


def test_velocity_field_rejects_nonfinite(gl_grid):
    bad = np.zeros((gl_grid.nlat, gl_grid.nlon))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        VelocityField(grid=gl_grid, u_theta=bad, u_phi=np.zeros_like(bad))


def test_mercator_laplacian_rejects_bad_shape():
    with pytest.raises(ValueError):
        mercator_laplacian(np.zeros(10), 0.1, 0.1)
    with pytest.raises(ValueError):
        mercator_laplacian(np.zeros((2, 4)), 0.1, 0.1)


def test_mercator_laplacian_linear_is_zero():
    chi = np.arange(-2.0, 2.0001, 0.01)
    field = np.repeat(chi[:, None], 6, axis=1)
    lap = mercator_laplacian(field, 0.01, 2 * np.pi / 6)
    assert np.max(np.abs(lap)) < 1e-10


def test_mercator_laplacian_log_sech():
    h = 1e-3
    chi = np.arange(-3.0, 3.0 + h / 2, h)
    field = np.repeat(np.log(1.0 / np.cosh(chi))[:, None], 4, axis=1)
    lap = mercator_laplacian(field, h, 2 * np.pi / 4)
    target = -1.0 / np.cosh(chi) ** 2
    assert np.max(np.abs(lap[1:-1, 0] - target[1:-1])) < 1e-6


def test_mercator_matches_beltrami_on_conformal_grid():
    # shared samples: a chi-uniform grid makes the two discretizations coincide;
    # the southern nodes mirror the northern ones bit for bit, as the transform plan needs
    h = 0.01
    north = colatitude_of_mercator(h * np.arange(-300, 0))
    g = grid_from_colatitudes(np.concatenate((north, [np.pi / 2], np.pi - north[::-1])), 16)
    plan = spharm.build_plan(g, 7)
    f = spharm.synthesize(spharm.random_real_field(7, np.random.default_rng(3)), plan)
    lb = laplace_beltrami_fd(f)
    ml = mercator_laplacian(f.values, h, 2 * np.pi / 16)
    diff = g.sin_thetas[:, None] ** 2 * lb.values - ml
    assert np.max(np.abs(diff[1:-1])) < 1e-8


def _roll_dphi(v, dphi):
    return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * dphi)


def _roll_d2phi(v, dphi):
    return (np.roll(v, -1, axis=1) - 2.0 * v + np.roll(v, 1, axis=1)) / dphi**2


@pytest.mark.parametrize("nlon", [4, 5, 128])
@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
def test_longitude_stencils_match_roll_bit_for_bit(kind, nlon):
    # oracle: the np.roll expressions the operators used to evaluate
    g = build_grid(GridSpec(nlat=17, nlon=nlon, kind=kind))
    rng = np.random.default_rng(nlon)
    psi, omega = (ScalarField(g, rng.standard_normal((g.nlat, nlon))) for _ in range(2))
    p, w = psi.values, omega.values
    assert np.array_equal(operators._dphi_values(p, g.dphi), _roll_dphi(p, g.dphi))
    d2chi = operators._apply_row_stencil(p, operators._three_point_weights(g.chis, 2))
    lap = (d2chi + _roll_d2phi(p, g.dphi)) / g.sin_thetas[:, None] ** 2
    assert np.array_equal(laplace_beltrami_fd(psi).values, lap)
    dtheta = lambda v, x: operators._apply_row_stencil(v, operators._three_point_weights(x, 1))
    bracket = _roll_dphi(p, g.dphi) * dtheta(w, g.thetas) - dtheta(p, g.thetas) * _roll_dphi(
        w, g.dphi
    )
    assert np.array_equal(jacobian(psi, omega).values, bracket)
    h = 0.01
    merc = np.empty_like(p)
    merc[1:-1] = p[:-2] - 2.0 * p[1:-1] + p[2:]
    merc[0] = p[0] - 2.0 * p[1] + p[2]
    merc[-1] = p[-3] - 2.0 * p[-2] + p[-1]
    merc /= h**2
    merc += _roll_d2phi(p, g.dphi)
    assert np.array_equal(mercator_laplacian(p, h, g.dphi), merc)


# Oracle: the colatitude weights as separate interior and end-row formulas,
# one function per derivative order, as the operators used to spell them out.


def _old_first_derivative_coeffs(x):
    n = x.size
    cm = np.zeros(n)
    cp = np.zeros(n)
    a = x[1:-1] - x[:-2]
    b = x[2:] - x[1:-1]
    cm[1:-1] = -b / (a * (a + b))
    cp[1:-1] = a / (b * (a + b))
    h1, h2 = x[1] - x[0], x[2] - x[1]
    cm[0] = -(2.0 * h1 + h2) / (h1 * (h1 + h2))
    cp[0] = -h1 / (h2 * (h1 + h2))
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    cm[-1] = g1 / (g2 * (g1 + g2))
    cp[-1] = (2.0 * g1 + g2) / (g1 * (g1 + g2))
    return cm, cp


def _old_second_derivative_coeffs(x):
    n = x.size
    cm = np.zeros(n)
    cp = np.zeros(n)
    a = x[1:-1] - x[:-2]
    b = x[2:] - x[1:-1]
    cm[1:-1] = 2.0 / (a * (a + b))
    cp[1:-1] = 2.0 / (b * (a + b))
    h1, h2 = x[1] - x[0], x[2] - x[1]
    cm[0] = 2.0 / (h1 * (h1 + h2))
    cp[0] = 2.0 / (h2 * (h1 + h2))
    g1, g2 = x[-1] - x[-2], x[-2] - x[-3]
    cm[-1] = 2.0 / (g2 * (g1 + g2))
    cp[-1] = 2.0 / (g1 * (g1 + g2))
    return cm, cp


def _old_rows(v, coeffs):
    cm, cp = (c[:, None] for c in coeffs)
    out = np.empty_like(v)
    out[1:-1] = cm[1:-1] * (v[:-2] - v[1:-1]) + cp[1:-1] * (v[2:] - v[1:-1])
    out[0] = cm[0, 0] * (v[0] - v[1]) + cp[0, 0] * (v[2] - v[1])
    out[-1] = cm[-1, 0] * (v[-3] - v[-2]) + cp[-1, 0] * (v[-1] - v[-2])
    return out


_ORACLE_NLAT = [4, 5, 6, 17, 64, 255, 1001]


@pytest.mark.parametrize("n", _ORACLE_NLAT)
def test_three_point_weights_equal_the_end_row_formulas_bit_for_bit(n):
    nodes = [np.sort(np.random.default_rng(n).uniform(-3.0, 5.0, n))]
    for kind in ("gauss-legendre", "uniform-interior"):
        g = build_grid(GridSpec(nlat=n, nlon=4, kind=kind))
        nodes += [g.thetas, g.chis]
    oracles = {1: _old_first_derivative_coeffs, 2: _old_second_derivative_coeffs}
    for x in nodes:
        for order, oracle in oracles.items():
            for got, want in zip(operators._three_point_weights(x, order), oracle(x)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", _ORACLE_NLAT)
@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
def test_colatitude_operators_equal_the_end_row_formulas_bit_for_bit(kind, n):
    # random non-zonal fields: on zonal ones the theta terms of the bracket
    # vanish exactly, so a wrong first-derivative weight would go unseen
    g = build_grid(GridSpec(nlat=n, nlon=8, kind=kind))
    rng = np.random.default_rng(n)
    p, w, ut, up = (rng.standard_normal((n, 8)) for _ in range(4))
    psi, omega = ScalarField(g, p), ScalarField(g, w)
    s = g.sin_thetas[:, None]
    d1 = _old_first_derivative_coeffs(g.thetas)
    bracket = _roll_dphi(p, g.dphi) * _old_rows(w, d1) - _old_rows(p, d1) * _roll_dphi(w, g.dphi)
    lap = (_old_rows(w, _old_second_derivative_coeffs(g.chis)) + _roll_d2phi(w, g.dphi)) / s**2
    assert np.array_equal(jacobian(psi, omega).values, bracket)
    assert np.array_equal(laplace_beltrami_fd(omega).values, lap)
    assert np.array_equal(ns_residual(psi, omega, 0.3).values, bracket / s - 0.3 * lap)
    u = velocity_from_streamfunction(psi)
    assert np.array_equal(u.u_theta, _roll_dphi(p, g.dphi) / s)
    assert np.array_equal(u.u_phi, -_old_rows(p, d1))
    curl = vorticity_from_velocity(VelocityField(g, ut, up)).values
    assert np.array_equal(curl, (_old_rows(s * up, d1) - _roll_dphi(ut, g.dphi)) / s)


@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
def test_second_derivative_end_rows_equal_their_neighbours(kind):
    g = build_grid(GridSpec(nlat=17, nlon=4, kind=kind))
    v = np.random.default_rng(2).standard_normal((17, 4))
    d2 = operators._apply_row_stencil(v, operators._three_point_weights(g.chis, 2))
    assert np.array_equal(d2[0], d2[1]) and np.array_equal(d2[-1], d2[-2])
