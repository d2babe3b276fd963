"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  One pole-limit bound is annotated xfail(strict): the stated
threshold cannot be met by the profile itself (see the velocity test for the
measured value); the assertion is kept as stated rather than loosened.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from sphereflow import exact, spharm, timestep, verify
from sphereflow.cli import main
from sphereflow.grid import DEFAULT_BAND, GridSpec, build_grid, surface_integral
from sphereflow.operators import laplace_beltrami_fd, mercator_laplacian, ns_residual

from conftest import band_max, coeff, fit_order, rossby_haurwitz, with_coeff, zeros

P1 = exact.VortexPairParams(k1=1.0, k2=0.0)
RESIDUAL_FLOOR = 1e-9  # below this the sequence sits at rounding level


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    return ok


def test_exact_solution_residual():
    start = time.time()
    results = {}
    for nu in (0.0, 0.01, 1.0):
        residuals = []
        for nlat in (64, 128, 256):
            g = build_grid(GridSpec(nlat=nlat, nlon=16))
            r = ns_residual(
                exact.streamfunction_field(P1, g), exact.vorticity_field(P1, g), nu
            )
            residuals.append(band_max(r))
        results[nu] = residuals
    elapsed = time.time() - start
    ok = elapsed < 10.0
    for nu, residuals in results.items():
        ok = ok and residuals[-1] < 1e-4
        if min(residuals) > RESIDUAL_FLOOR:
            # measurable truncation: must decrease at second order
            ok = ok and abs(fit_order(residuals) - 2.0) < 0.4
        else:
            # at rounding level at every resolution: stronger than any decay rate
            ok = ok and max(residuals) < 1e-4
    detail = ", ".join(f"nu={nu:g}: {r[-1]:.2e}" for nu, r in results.items())
    assert _report("exact-solution-residual", ok, f"{detail}, {elapsed:.1f}s")


def test_gauss_constraint():
    g = build_grid(GridSpec(nlat=64, nlon=8))
    zero_total = abs(surface_integral(exact.vorticity_field(P1, g)))
    ok = zero_total < 1e-8
    for k2 in (-1.0, 0.5):
        total = surface_integral(
            exact.vorticity_field(exact.VortexPairParams(1.0, k2), g)
        )
        ok = ok and abs(total - 4 * math.pi * k2) < 1e-8
    assert _report("gauss-constraint", ok, f"|total(k2=0)| = {zero_total:.2e}")


def test_hemispherical_integral():
    north = exact.hemisphere_vorticity_integral(P1, "north")
    target = -2 * math.pi * math.log(2.0)
    ok = abs(north - target) < 1e-6
    assert _report("hemispherical-integral", ok, f"north = {north:.9f}")


def test_velocity_profile_extremum():
    thetas = np.linspace(1e-6, math.pi - 1e-6, 200001)
    u = np.abs(exact.azimuthal_velocity(thetas, P1))
    peak = int(np.argmax(u))
    at_equator = abs(thetas[peak] - math.pi / 2) <= thetas[1] - thetas[0]
    closed = abs(exact.azimuthal_velocity(math.pi / 2, P1))
    oracle, _ = quad(lambda s: math.sin(s) * math.log(math.tan(s / 2)), 0, math.pi / 2)
    ok = (
        at_equator
        and abs(closed - math.log(2.0)) < 1e-10
        and abs(closed - abs(oracle)) < 1e-8
    )
    assert _report("velocity-profile-extremum", ok, f"max |u_phi| = {closed:.12f}")


@pytest.mark.xfail(
    strict=True,
    reason="the profile gives |u_phi(1e-3)| = 4.05e-3; the stated 1e-3 bound "
    "holds one decade closer to the pole (|u_phi(1e-4)| = 5.2e-4)",
)
def test_velocity_pole_limit_as_stated():
    value = abs(exact.azimuthal_velocity(1e-3, P1))
    _report("velocity-pole-limit", value < 1e-3, f"|u_phi(1e-3)| = {value:.3e}")
    assert value < 1e-3


def test_spectral_operator_eigenrelation():
    # spectral side: exact eigenvalues for every stored (l, m) with l <= 20
    ok = True
    for l in range(21):
        for m in range(l + 1):
            c = with_coeff(zeros(20), l, m, 1.0)
            image = spharm.laplace_beltrami_spectral(c)
            ok = ok and coeff(image, l, m) == -l * (l + 1)
    # finite-difference side: O(h^2) truncation envelope for every degree at
    # several orders, plus a measured second-order rate per degree
    plans = {}
    for nlat in (64, 128, 256):
        g = build_grid(GridSpec(nlat=nlat, nlon=2 * nlat, kind="uniform-interior"))
        plans[nlat] = spharm.build_plan(g, 20)

    def fd_error(l, m, plan):
        f = spharm.synthesize(spharm.real_single_mode(20, l, m), plan)
        lap = laplace_beltrami_fd(f)
        mask = plan.grid.band_mask(*DEFAULT_BAND)
        return float(np.max(np.abs(lap.values[mask] + l * (l + 1) * f.values[mask])))

    for l in range(1, 21):
        for m in {0, (l + 1) // 2, l}:
            ok = ok and fd_error(l, m, plans[128]) < 0.05 * l * (l + 1)
    rates = []
    for l in range(1, 21):
        errs = [fd_error(l, l // 2, plan) for plan in plans.values()]
        rates.append(fit_order(errs))
    ok = ok and all(abs(r - 2.0) < 0.2 for r in rates)
    assert _report(
        "spectral-operator-eigenrelation",
        ok,
        f"fd rates in [{min(rates):.2f}, {max(rates):.2f}]",
    )


def test_conformal_identity_and_modulus_ode():
    # five-point Laplacian of log(sech chi) against -sech^2 on |chi| <= 5
    h = 1e-3
    chi = np.arange(-5.0, 5.0 + h / 2, h)
    field = np.repeat(np.log(1.0 / np.cosh(chi))[:, None], 4, axis=1)
    lap = mercator_laplacian(field, h, np.pi / 2)[:, 0]
    identity_residual = float(
        np.max(np.abs(lap[1:-1] + 1.0 / np.cosh(chi[1:-1]) ** 2))
    )
    ok = identity_residual < 1e-6
    samples = exact.vorticity_profile(np.linspace(*DEFAULT_BAND, 257), P1)
    cosh_report = verify.check_gradient_modulus_ode(
        lambda w: exact.gradient_modulus_function(w, P1), samples
    )
    ok = ok and cosh_report.passed and cosh_report.max_abs_residual < 1e-8
    worst_dev = 0.0
    for A in (0.5, 2.0):
        for B in (-1.0, 0.0, 3.0):
            res = verify.gradient_modulus_ode_residual(
                lambda w, A=A, B=B: A * np.exp(B * w), samples
            )
            worst_dev = max(worst_dev, float(np.max(np.abs(res + 2.0))))
    ok = ok and worst_dev < 1e-8
    assert _report(
        "conformal-identity-and-modulus-ode",
        ok,
        f"identity {identity_residual:.2e}, cosh2 {cosh_report.max_abs_residual:.2e}, "
        f"exp dev {worst_dev:.2e}",
    )


def test_profile_relation_identities():
    report = verify.check_functional_relation_identities(P1, ntheta=4096, tolerance=1e-4)
    # biharmonic alone, at the stated resolution: psi obeys -lap(psi) = omega
    # by construction, so lap(lap(psi)) reduces to lap(omega)
    g = build_grid(GridSpec(nlat=256, nlon=8))
    biharmonic = band_max(laplace_beltrami_fd(exact.vorticity_field(P1, g)))
    ok = report.passed and biharmonic < 1e-4
    assert _report(
        "profile-relation-identities",
        ok,
        f"relative residual {report.max_abs_residual:.2e}, biharmonic {biharmonic:.2e}",
    )


def test_harmonic_nullspace_dimension():
    dims = {L: verify.global_harmonic_nullspace(L) for L in (1, 20, 64)}
    ok = all(d == 1 for d in dims.values())
    assert _report("harmonic-nullspace", ok, f"dims = {sorted(dims.values())}")


def test_evolution_suite(recorded_states):
    start = time.time()
    # single-mode decay at the stated step size
    cfg = timestep.EvolutionConfig(nu=0.01, dt=1e-3, steps=1000, lmax=4)
    series = timestep.evolve(spharm.real_single_mode(4, 2, 1), cfg)
    ratio = math.sqrt(series.enstrophy[-1] / series.enstrophy[0])
    decay_ok = abs(ratio / math.exp(-0.06) - 1.0) < 1e-4
    # temporal order over one decade of dt, in the phase of a Rossby-Haurwitz
    # wave: the viscous decay of a single mode is exact, so it shows no order
    dts = (0.1, 0.05, 0.025, 0.0125, 0.01)
    omega, c = rossby_haurwitz(15, 4, 1.0, seed=4)
    wave = np.exp(-1j * np.arange(16) * c) * omega.coeffs[4]
    errors = []
    for dt in dts:
        del recorded_states[:]
        cfg = timestep.EvolutionConfig(nu=0.0, dt=dt, steps=round(1.0 / dt), lmax=15)
        timestep.evolve(omega, cfg)
        errors.append(np.max(np.abs(recorded_states[-1].coeffs[4] - wave)))
    order = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    order_ok = abs(order - 4.0) < 0.3
    # zonal steadiness
    inviscid = timestep.steadiness_drift(P1, 31, nu=0.0, t_final=1.0)
    d31 = timestep.steadiness_drift(P1, 31, nu=0.01, t_final=1.0)
    d63 = timestep.steadiness_drift(P1, 63, nu=0.01, t_final=1.0)
    drift_ok = inviscid <= 1e-12 and d63 < d31
    elapsed = time.time() - start
    ok = decay_ok and order_ok and drift_ok and elapsed < 60.0
    assert _report(
        "evolution",
        ok,
        f"decay ratio {ratio:.6f}, rk4 order {order:.2f}, "
        f"drift {d63:.2e} < {d31:.2e}, {elapsed:.1f}s",
    )


def test_checks_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["checks", "--out", str(out1)])
    code2 = main(["checks", "--out", str(out2)])
    identical = (out1 / "checks.csv").read_bytes() == (out2 / "checks.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    assert _report("checks-determinism", ok, f"exit {code1}/{code2}, identical={identical}")
