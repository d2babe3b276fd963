import math

import numpy as np
import pytest

from sphereflow import exact, spharm, verify
from sphereflow.grid import DEFAULT_BAND, GridSpec, ScalarField, build_grid
from sphereflow.operators import mercator_laplacian

from conftest import K1_SWEEP, zonal_field

P1 = exact.VortexPairParams(k1=1.0, k2=0.0)


def _band_profile(n=257):
    return exact.vorticity_profile(np.linspace(*DEFAULT_BAND, n), P1)


def test_vanishing_jacobian_vortex_pair(gl_grid):
    psi = exact.streamfunction_field(P1, gl_grid)
    omega = exact.vorticity_field(P1, gl_grid)
    report = verify.check_vanishing_jacobian(psi, omega)
    assert report.passed
    assert report.max_abs_residual == 0.0


def test_vanishing_jacobian_aligned_pair(gl_grid):
    plan = spharm.build_plan(gl_grid, 5)
    psi = spharm.synthesize(spharm.real_single_mode(5, 2, 1), plan)
    omega = ScalarField(gl_grid, 6.0 * psi.values)
    report = verify.check_vanishing_jacobian(psi, omega)
    assert report.passed


def test_vanishing_jacobian_misaligned_fails(gl_grid):
    g = gl_grid
    psi = zonal_field(g, g.cos_thetas)
    omega = ScalarField(g, g.sin_thetas[:, None] * np.cos(g.phis)[None, :])
    report = verify.check_vanishing_jacobian(psi, omega)
    oracle = np.max(np.abs(g.sin_thetas[:, None] ** 2 * np.sin(g.phis)[None, :]))
    assert not report.passed
    assert report.max_abs_residual == pytest.approx(oracle, rel=0.05)


def test_harmonic_vorticity_profile_passes():
    g = build_grid(GridSpec(nlat=128, nlon=8))
    report = verify.check_harmonic_vorticity(exact.vorticity_field(P1, g))
    assert report.passed
    assert report.max_abs_residual < 1e-10


def test_harmonic_vorticity_constant_exact():
    g = build_grid(GridSpec(nlat=16, nlon=8))
    report = verify.check_harmonic_vorticity(ScalarField(g, np.full((16, 8), 4.2)))
    assert report.max_abs_residual == 0.0


def test_harmonic_vorticity_eigenfunction_fails(gl_grid):
    report = verify.check_harmonic_vorticity(zonal_field(gl_grid, gl_grid.cos_thetas))
    assert not report.passed
    # residual is ~2|cos| at the band edge
    assert report.max_abs_residual == pytest.approx(2 * math.cos(math.pi / 8), rel=0.1)


@pytest.mark.parametrize("lmax", [1, 20, 64])
def test_nullspace_dimension(lmax):
    assert verify.global_harmonic_nullspace(lmax) == 1


def test_nullspace_rejects_degree_zero():
    with pytest.raises(ValueError):
        verify.global_harmonic_nullspace(0)


def test_gradient_modulus_ode_cosh_passes():
    report = verify.check_gradient_modulus_ode(
        lambda w: exact.gradient_modulus_function(w, P1), _band_profile()
    )
    assert report.passed
    assert report.max_abs_residual < 1e-8


def test_gradient_modulus_ode_scaled_family():
    p = exact.VortexPairParams(k1=-2.5, k2=0.0)
    samples = exact.vorticity_profile(np.linspace(*DEFAULT_BAND, 101), p)
    report = verify.check_gradient_modulus_ode(
        lambda w: exact.gradient_modulus_function(w, p), samples
    )
    assert report.passed


@pytest.mark.parametrize("A", [0.5, 2.0])
@pytest.mark.parametrize("B", [-1.0, 0.0, 3.0])
def test_gradient_modulus_ode_exponential_contrast(A, B):
    residuals = verify.gradient_modulus_ode_residual(
        lambda w: A * np.exp(B * w), _band_profile()
    )
    assert np.max(np.abs(residuals + 2.0)) < 1e-8
    report = verify.check_gradient_modulus_ode(lambda w: A * np.exp(B * w), _band_profile())
    assert not report.passed


def test_gradient_modulus_ode_rejects_nonpositive():
    with pytest.raises(ValueError):
        verify.check_gradient_modulus_ode(lambda w: w, np.array([-1.0, 1.0]))


def test_mercator_obstruction_report():
    report = verify.check_mercator_obstruction(np.linspace(-5, 5, 101))
    assert report.passed
    assert report.max_abs_residual < 1e-6


def test_mercator_obstruction_fails_where_the_obstruction_stays_small():
    # the identity holds on chi in [3, 4], but sech^2 stays below 0.5 there
    report = verify.check_mercator_obstruction(np.linspace(3, 4, 11))
    assert report.max_abs_residual <= report.tolerance
    assert not report.passed


def test_mercator_obstruction_pointwise_values():
    h = 1e-3
    chi = np.arange(-6.0, 6.0 + h / 2, h)
    field = np.repeat(np.log(1.0 / np.cosh(chi))[:, None], 4, axis=1)
    lap = mercator_laplacian(field, h, np.pi / 2)[:, 0]
    center = np.argmin(np.abs(chi))
    assert lap[center] == pytest.approx(-1.0, abs=1e-6)  # -sech^2(0)
    assert abs(lap[2] + 1.0 / np.cosh(chi[2]) ** 2) < 1e-6
    assert abs(lap[2]) < 2e-4  # obstruction decays toward the poles
    sym = lap[center - 1000] - lap[center + 1000]
    assert abs(sym) < 1e-9  # even in chi


def test_mercator_obstruction_second_order():
    # the check's computation on chi in [-4, 4] at its step 1e-3 and at twice it
    def residual(h):
        chi = np.arange(-4.0 - 2.0 * h, 4.0 + 2.5 * h, h)
        field = np.repeat(np.log(1.0 / np.cosh(chi))[:, None], 4, axis=1)
        lap = mercator_laplacian(field, h, np.pi / 2)[1:-1, 0]
        return np.max(np.abs(lap + 1.0 / np.cosh(chi[1:-1]) ** 2))

    rate = math.log2(residual(2e-3) / residual(1e-3))
    assert rate == pytest.approx(2.0, abs=0.4)


def test_mercator_obstruction_rejects_wide_samples():
    with pytest.raises(ValueError):
        verify.check_mercator_obstruction(np.array([0.0, 11.0]))


def test_mercator_obstruction_needs_a_sample():
    with pytest.raises(ValueError, match="chi_samples needs at least one sample"):
        verify.check_mercator_obstruction(np.array([]))
    assert verify.check_mercator_obstruction(np.array([0.0])).passed


def test_functional_relation_identities():
    report = verify.check_functional_relation_identities(P1, ntheta=1024)
    assert report.passed
    assert report.max_abs_residual < 1e-6


def test_functional_relation_builds_no_grid(monkeypatch):
    # the profile relation samples psi and omega on its own theta nodes only
    def refuse(spec):
        raise AssertionError(f"built a {spec.nlat} x {spec.nlon} grid")

    monkeypatch.setattr(verify, "build_grid", refuse)
    assert verify.check_functional_relation_identities(P1).passed


def test_functional_relation_sign_flip_invariance():
    plus = verify.check_functional_relation_identities(P1, ntheta=1024)
    minus = verify.check_functional_relation_identities(
        exact.VortexPairParams(k1=-1.0, k2=0.0), ntheta=1024
    )
    assert plus.passed and minus.passed
    assert minus.max_abs_residual == pytest.approx(plus.max_abs_residual, rel=0.5)


def test_functional_relation_rejects_zero_strength():
    with pytest.raises(ValueError):
        verify.check_functional_relation_identities(exact.VortexPairParams(0.0, 0.0))


@pytest.mark.parametrize(
    "entry",
    [lambda n: verify.check_functional_relation_identities(P1, ntheta=n),
     lambda n: verify.run_all_checks(ntheta=n)],
    ids=["check", "run_all_checks"],
)
def test_functional_relation_needs_nine_profile_nodes(entry):
    # the nested fourth-order stencils leave one residual node from nine samples, none from eight
    with pytest.raises(ValueError, match="ntheta = 8: .* at least 9"):
        entry(8)
    assert entry(9) is not None


@pytest.mark.parametrize(
    "kwargs,match",
    [(dict(ntheta=8), "ntheta = 8: .* at least 9"), (dict(phi_model="quartic"), "unknown phi model")],
    ids=["ntheta", "phi-model"],
)
def test_run_all_checks_refuses_bad_input_before_building_a_grid(monkeypatch, kwargs, match):
    def refuse(spec):
        raise AssertionError(f"built a {spec.nlat} x {spec.nlon} grid")

    monkeypatch.setattr(verify, "build_grid", refuse)
    with pytest.raises(ValueError, match=match):
        verify.run_all_checks(**kwargs)


def test_zonal_consistency():
    report = verify.check_zonal_consistency(P1)
    assert report.passed
    assert report.max_abs_residual == 0.0


@pytest.mark.parametrize("k1", [1e-100, -1e-10, 1e-10, 1e100])
def test_zonal_consistency_at_every_scale_of_k1(k1):
    # psi scales with k1, so its separation across the hemispheres must be
    # judged on that scale: at |k1| = 1e-10 the end rows differ by about
    # 1.6e-10, less than an absolute 1e-9
    report = verify.check_zonal_consistency(exact.VortexPairParams(k1=k1))
    assert report.passed
    assert report.max_abs_residual == 0.0


@pytest.mark.parametrize(
    "profile",
    [lambda t: np.cos(2.0 * t) + t, lambda t: 1e-12 * t],
    ids=["not-monotone", "not-separated"],
)
def test_zonal_consistency_fails_on_a_zonal_psi_without_its_hemisphere_maps(
    profile, monkeypatch
):
    # a zonal psi leaves the residual at 0, so only the extra condition can fail it
    monkeypatch.setattr(
        exact, "streamfunction_field", lambda p, g: zonal_field(g, profile(g.thetas))
    )
    report = verify.check_zonal_consistency(P1)
    assert report.max_abs_residual == 0.0
    assert not report.passed


def test_zonal_consistency_hemisphere_maps():
    # psi is strictly monotone, so sin^2 is single-valued per hemisphere and
    # mirrored rows carry distinct psi values
    g = build_grid(GridSpec(nlat=64, nlon=4))
    psi = exact.streamfunction_profile(g.thetas, P1)
    assert np.all(np.diff(psi) > 0.0)
    assert not np.isclose(psi[0], psi[-1], rtol=0.0, atol=1e-6)
    north = psi[g.thetas < np.pi / 2]
    assert np.unique(north).size == north.size


def test_run_all_checks_defaults_pass():
    reports = verify.run_all_checks(nlat=128, nlon=32, ntheta=1024)
    assert all(r.passed for r in reports)
    names = [r.name for r in reports]
    assert names == sorted(names, key=names.index)  # deterministic order


@pytest.mark.parametrize(
    "band,near",
    [((0.0, 2.0), (1e-6, 2.0)), ((1.0, 4.0), (1.0, np.pi - 1e-6)),
     ((-1.0, 4.0), (1e-6, np.pi - 1e-6))],
    ids=["north", "south", "both"],
)
def test_run_all_checks_band_through_a_pole_reports_as_near_it(band, near):
    # no Gauss row lies within 1e-6 of a pole and chi is clamped to +-10, so
    # every check but the band it names reports as for the band just inside
    def reports(b):
        return [
            (r.name, r.passed, r.max_abs_residual, r.nlat, r.nlon, r.tolerance)
            + ((r.band,) if r.name == "mercator-obstruction" else ())
            for r in verify.run_all_checks(nlat=128, nlon=32, ntheta=1024, band=b)
        ]

    got = reports(band)
    assert all(passed for _, passed, *_ in got)
    assert got == reports(near)


def test_run_all_checks_exponential_model_fails():
    reports = verify.run_all_checks(nlat=128, nlon=32, ntheta=1024, phi_model="exp")
    by_name = {r.name: r for r in reports}
    assert not by_name["gradient-modulus-ode"].passed
    assert by_name["harmonic-vorticity"].passed


def test_run_all_checks_fails_a_nullspace_other_than_the_constants(monkeypatch):
    monkeypatch.setattr(verify, "global_harmonic_nullspace", lambda lmax: 2)
    reports = verify.run_all_checks(nlat=128, nlon=32, ntheta=1024)
    assert reports[-1].name == "harmonic-nullspace"
    assert not reports[-1].passed
    assert all(r.passed for r in reports[:-1])


@pytest.mark.parametrize("k1", K1_SWEEP)
def test_gradient_modulus_ode_rejects_wrong_models_at_every_scale(k1, monkeypatch):
    # the stencil step scales with |k1|, and with it the check keeps its
    # sensitivity: a pure exponential leaves |residual| 2, and a relative
    # perturbation 1e-6 omega/k1 of the true Phi leaves about 3e-6, at every k1
    p = exact.VortexPairParams(k1=k1)

    def ode_report(model):
        reports = verify.run_all_checks(nlat=64, nlon=16, ntheta=1024, p=p, phi_model=model)
        return {r.name: r for r in reports}["gradient-modulus-ode"]

    assert ode_report("exp").max_abs_residual == pytest.approx(2.0, rel=1e-6)
    real = exact.gradient_modulus_function
    monkeypatch.setattr(
        exact, "gradient_modulus_function", lambda w, q: real(w, q) * (1.0 + 1e-6 * w / q.k1)
    )
    perturbed = ode_report("cosh2")
    assert not perturbed.passed
    assert perturbed.max_abs_residual > 1e-6


def test_report_csv_format(tmp_path):
    reports = [
        verify.CheckReport(
            name="demo",
            max_abs_residual=1.5e-9,
            nlat=8,
            nlon=4,
            band=(0.1, 3.0),
            tolerance=1e-6,
            passed=True,
        )
    ]
    path = tmp_path / "checks.csv"
    verify.write_reports(reports, path)
    text = path.read_text().splitlines()
    assert text[0] == "name,nlat,nlon,band_lo,band_hi,max_abs_residual,tolerance,pass"
    assert text[1].startswith("demo,8,4,") and text[1].endswith(",true")
