import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from sphereflow import exact, spharm, timestep
from sphereflow.grid import DEFAULT_BAND, ScalarField
from sphereflow.timestep import (
    EvolutionConfig,
    InstabilityError,
    evolve,
    rhs,
    steadiness_drift,
    write_time_series,
)

from conftest import (
    coeff,
    fit_order,
    order_weights,
    random_zonal,
    rossby_haurwitz,
    with_coeff,
    zeros,
)

P1 = exact.VortexPairParams(k1=1.0, k2=0.0)
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(nu=-0.1, dt=1e-3, steps=10, lmax=8),
        dict(nu=0.1, dt=0.0, steps=10, lmax=8),
        dict(nu=0.1, dt=1e-3, steps=0, lmax=8),
        dict(nu=0.1, dt=1e-3, steps=10, lmax=1),
        dict(nu=0.1, dt=-1e-3, steps=10, lmax=8),
        dict(nu=0.0, dt=1e308, steps=2, lmax=8),  # dt*steps = inf: an inf time
        dict(nu=math.nan, dt=1e-3, steps=10, lmax=8),
        dict(nu=0.1, dt=math.nan, steps=10, lmax=8),
        dict(nu=0.0, dt=math.inf, steps=10, lmax=8),
        dict(nu=1e200, dt=1e200, steps=1, lmax=8),  # nu*dt = inf: E_0 = exp(inf * -0.0) = NaN
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        EvolutionConfig(**kwargs)


def test_config_accepts_inviscid_large_dt():
    EvolutionConfig(nu=0.0, dt=10.0, steps=1, lmax=63)


def test_rhs_eigenmode_is_pure_decay():
    cfg = EvolutionConfig(nu=0.3, dt=1e-3, steps=1, lmax=8)
    omega = spharm.real_single_mode(8, 2, 0, amplitude=1.7)
    tend = rhs(omega, cfg)
    assert coeff(tend, 2, 0) == pytest.approx(-6 * 0.3 * 1.7, abs=1e-14)
    rest = np.array(tend.coeffs)
    rest[2, 0] = 0.0
    assert np.max(np.abs(rest)) == 0.0


def test_rhs_zero_field():
    cfg = EvolutionConfig(nu=0.3, dt=1e-3, steps=1, lmax=4)
    tend = rhs(zeros(4), cfg)
    assert np.max(np.abs(tend.coeffs)) == 0.0


def test_rhs_conserves_mean_exactly():
    rng = np.random.default_rng(1)
    cfg = EvolutionConfig(nu=0.05, dt=1e-3, steps=1, lmax=10)
    omega = spharm.random_real_field(10, rng)
    tend = rhs(omega, cfg)
    assert complex(tend.coeffs[0, 0]) == 0.0


@pytest.mark.parametrize("entry", [rhs, evolve], ids=["rhs", "evolve"])
def test_rhs_rejects_mean_vorticity(entry):
    # the one Gauss check is spharm.check_gauss_constraint; both entry points reach it
    cfg = EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=4)
    omega = with_coeff(zeros(4), 0, 0, 1.0)
    with pytest.raises(spharm.GaussConstraintError, match="zero-total-vorticity"):
        entry(omega, cfg)


@pytest.mark.parametrize("m15,m2", [(3, 1), (0, 0)], ids=["stepped", "zonal"])
def test_evolve_checks_gauss_where_the_field_enters(m15, m2):
    # a mean just inside the bound on omega0 stays fixed while viscosity shrinks
    # the norm of every later stage, so a check on each stage would refuse at
    # step 1 the state the entry check accepts
    L = 15
    omega = with_coeff(with_coeff(zeros(L), 15, m15, 1.0), 2, m2, 1e-6)
    omega = with_coeff(omega, 0, 0, 0.9e-10 * spharm.l2_norm(omega))
    series = evolve(omega, EvolutionConfig(nu=0.05, dt=0.01, steps=200, lmax=L))
    assert series.times.size == 201
    assert 0.0 < series.enstrophy[-1] < series.enstrophy[0]


def _mix(lmax, *modes):
    coeffs = sum(a * spharm.real_single_mode(lmax, l, m).coeffs for l, m, a in modes)
    return spharm.SpectralField(lmax, coeffs)


def test_bracket_vanishes_for_a_pure_degree_field():
    # omega = Y_2^1 + 0.7 Y_2^2 has omega = 6 psi, so J(psi, omega) = 0 even
    # though each product term of the pseudo-spectral bracket is about 0.1;
    # a zonal field cannot test this, both of its terms vanish identically
    L = 8
    cfg = EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=L)
    plan = timestep.transform_plan_for(L, True)
    pure = _mix(L, (2, 1, 1.0), (2, 2, 0.7))
    om_t, _ = spharm.synthesize_gradient(pure, plan)
    _, ps_p = spharm.synthesize_gradient(spharm.invert_poisson(pure), plan)
    assert np.max(np.abs(ps_p * om_t / plan.grid.sin_thetas[:, None])) > 0.05
    assert np.max(np.abs(rhs(pure, cfg, plan).coeffs)) <= 1e-15
    mixed = _mix(L, (2, 1, 1.0), (3, 2, 0.7))
    assert np.max(np.abs(rhs(mixed, cfg, plan).coeffs)) > 1e-2


def _inviscid_tendency(lmax, seed):
    """Random zero-mean real omega, its psi, the dealiased inviscid rhs and the
    bound 1e-12 * sum|rhs| * max|omega| on the conserved quadratic forms.

    Sums run over all orders -l..l: the stored m >= 1 count twice, and the
    m < 0 partner of conj(a) b contributes its complex conjugate."""
    omega = spharm.random_real_field(lmax, np.random.default_rng(seed))
    plan = timestep.transform_plan_for(lmax, True)
    tend = rhs(omega, EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=lmax), plan).coeffs
    psi = spharm.invert_poisson(omega).coeffs
    max_omega = np.max(np.abs(spharm.synthesize(omega, plan).values))
    w = order_weights(lmax)
    return omega.coeffs, psi, tend, w, 1e-12 * np.sum(w * np.abs(tend)) * max_omega


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**32 - 1))
def test_dealiased_bracket_conserves_enstrophy(lmax, seed):
    # sum conj(omega) * d(omega)/dt = d/dt of the enstrophy, zero for the projected bracket
    omega, _, tend, w, bound = _inviscid_tendency(lmax, seed)
    assert abs(np.sum(w * (np.conj(omega) * tend).real)) <= bound


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=2**32 - 1))
def test_dealiased_bracket_conserves_energy(lmax, seed):
    # sum conj(psi) * d(omega)/dt = d/dt of the kinetic energy, zero likewise
    _, psi, tend, w, bound = _inviscid_tendency(lmax, seed)
    assert abs(np.sum(w * (np.conj(psi) * tend).real)) <= bound


def test_rhs_of_zonal_projection_is_pure_viscous():
    # zonal data: the advection bracket vanishes identically, so the
    # inviscid tendency is exactly zero and the viscous one purely diagonal
    omega, plan = timestep.project_vortex_pair(P1, 31), timestep.transform_plan_for(31, True)
    inviscid = rhs(omega, EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=31), plan)
    assert np.max(np.abs(inviscid.coeffs)) == 0.0
    nu = 0.02
    tend = rhs(omega, EvolutionConfig(nu=nu, dt=1e-3, steps=1, lmax=31), plan)
    ls = np.arange(32, dtype=float)[:, None]
    expected = -nu * ls * (ls + 1.0) * omega.coeffs
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(tend.coeffs - expected)) <= 1e-15 * scale


def _transform_bracket(omega, plan):
    """The advection bracket through the full transform path, skipping no work."""
    psi = spharm.invert_poisson(omega)
    (om_t, ps_t), (om_p, ps_p) = spharm._synthesize([omega.coeffs, psi.coeffs], plan, True)
    s = plan.grid.sin_thetas[:, None]
    bracket = (ps_p / s) * om_t - ps_t * (om_p / s)
    out = np.array(spharm.analyze(ScalarField(plan.grid, bracket), plan).coeffs)
    out[0, 0] = 0.0
    return out


@pytest.fixture
def count_transforms(monkeypatch):
    """Record the plan lmax of every gradient synthesis, one per advection bracket."""
    calls = []
    real = spharm._synthesize

    def counted(fields, plan, gradients):
        if gradients:
            calls.append(plan.lmax)
        return real(fields, plan, gradients)

    monkeypatch.setattr(spharm, "_synthesize", counted)
    return calls


# lmax 127 runs the zonal path's stacked order-0 GEMM on the largest table, and
# "blocks" runs the pair two steps past the zonal path's first block of states,
# so the stepped loop checks the cumprod carried from one block to the next
ZONAL_CASES = [("pair", L, d) for L in (15, 31, 63) for d in (True, False)] + [
    ("random", 20, True),
    ("pair", 127, True),
    ("blocks", 15, True),
]


@pytest.mark.parametrize("kind,lmax,dealias", ZONAL_CASES)
def test_zonal_shortcut_equals_transform_path(kind, lmax, dealias, count_transforms, monkeypatch):
    # the bracket of a zonal state is exactly zero through the transform
    # path, so evolve's zonal path, which runs no stage, must give the bytes
    # of the Lawson loop forced through that path on the same state
    plan = timestep.transform_plan_for(lmax, dealias)
    omega = random_zonal(lmax, 5) if kind == "random" else timestep.project_vortex_pair(P1, lmax)
    full = _transform_bracket(omega, plan)
    assert not full.any()
    assert np.array_equal(timestep._advection_coeffs(omega.coeffs, plan), full)
    # at most 0.05, and short enough that the top degree decays by no more than exp(-1.4) a step
    dt = min(0.05, 1.4 / (0.01 * lmax * (lmax + 1)))
    steps = timestep._ZONAL_BLOCK + 2 if kind == "blocks" else 6
    cfg = EvolutionConfig(nu=0.01, dt=dt, steps=steps, lmax=lmax, dealias=dealias)
    del count_transforms[:]
    short = evolve(omega, cfg)
    assert count_transforms == []
    monkeypatch.setattr(timestep, "_zonal_decay", timestep._lawson_steps)
    stepped = evolve(omega, cfg)
    assert count_transforms == [lmax] * (4 * cfg.steps)
    for name in ("energy", "enstrophy", "max_omega", "drift"):
        assert np.array_equal(getattr(short, name), getattr(stepped, name)), name
    assert short.drift[-1] > 1e-4


def test_near_zonal_field_takes_transform_path(count_transforms):
    L = 20
    plan = timestep.transform_plan_for(L, True)
    omega = random_zonal(L, 5)
    omega = spharm.SpectralField(L, omega.coeffs + 1e-3 * spharm.real_single_mode(L, 3, 1).coeffs)
    got = timestep._advection_coeffs(omega.coeffs, plan)
    assert count_transforms == [L]
    assert np.max(np.abs(got)) > 1e-6
    assert np.array_equal(got, _transform_bracket(omega, plan))


@pytest.mark.parametrize("zonal", [False, True], ids=["random", "zonal"])
def test_tendency_keeps_zonal_coefficients_real(zonal):
    # SpectralField checks Im a_{l,0} only when it is nonzero; the tendency
    # (the analysis, the Poisson division, the viscous term) and the RK4
    # stage combinations must keep it exactly zero on both paths
    L = 12
    omega = random_zonal(L, 4) if zonal else spharm.random_real_field(L, np.random.default_rng(4))
    cfg = EvolutionConfig(nu=0.01, dt=5e-3, steps=1, lmax=L)
    tend = rhs(omega, cfg).coeffs
    assert not tend[:, 0].imag.any()
    assert not (omega.coeffs + 0.5 * cfg.dt * tend)[:, 0].imag.any()


def test_zonal_evolve_never_transforms_the_bracket(count_transforms, count_order_profiles, monkeypatch):
    # nor solves a Poisson problem, nor evaluates a tendency, nor runs the
    # per-order synthesis loop in its diagnostics
    solves, tendencies = [], []
    real_solve, real_bracket = spharm._solve_poisson, timestep._advection_coeffs
    monkeypatch.setattr(spharm, "_solve_poisson", lambda omega: solves.append(1) or real_solve(omega))
    monkeypatch.setattr(
        timestep,
        "_advection_coeffs",
        lambda omega, plan: tendencies.append(1) or real_bracket(omega, plan),
    )
    cfg = EvolutionConfig(nu=0.01, dt=5e-3, steps=4, lmax=15)
    series = evolve(timestep.project_vortex_pair(P1, 15), cfg)
    assert count_transforms == []
    assert count_order_profiles == []
    assert solves == []
    assert tendencies == []
    assert series.drift[-1] > 0.0


@pytest.fixture
def table_orders(monkeypatch):
    """The ``orders`` of every Legendre table built, from a cold plan cache."""
    orders = []
    real = spharm._legendre_tables

    def counted(thetas, lmax, n):
        orders.append(n)
        return real(thetas, lmax, n)

    monkeypatch.setattr(spharm, "_legendre_tables", counted)
    timestep.transform_plan_for.cache_clear()
    yield orders
    timestep.transform_plan_for.cache_clear()


def test_zonal_evolve_builds_no_table_of_an_order_above_0(table_orders):
    # the zonal rows read an order-0 block built alone; the full tables of the
    # same cached plan are built when a non-zonal run first reads them
    L = 63
    cfg = EvolutionConfig(nu=0.01, dt=1e-3, steps=3, lmax=L)
    evolve(timestep.project_vortex_pair(P1, L), cfg)
    assert table_orders == [1]
    evolve(spharm.random_real_field(L, np.random.default_rng(3)), cfg)
    assert table_orders == [1, L + 1]


def test_zonal_evolve_memory_does_not_grow_with_steps():
    # the zonal path forms and synthesises its states a block at a time, so
    # only the returned series, 40 bytes a state, grows with the steps
    L = 127
    omega = timestep.project_vortex_pair(P1, L)
    evolve(omega, EvolutionConfig(nu=0.01, dt=1e-4, steps=2, lmax=L))  # the plan, cached
    peaks = []
    for steps in (1000, 30000):
        tracemalloc.start()
        try:
            evolve(omega, EvolutionConfig(nu=0.01, dt=1e-4, steps=steps, lmax=L))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 10e6, peaks


def test_zonal_evolve_checks_gauss_before_recording(monkeypatch):
    # a zonal omega0 with a nonzero mean fails the one Gauss check on omega0,
    # before any state is formed or synthesised
    calls = []
    for name in ("synthesize", "_zonal_rows"):
        real = getattr(spharm, name)
        monkeypatch.setattr(spharm, name, lambda *args, real=real: calls.append(1) or real(*args))
    omega = with_coeff(random_zonal(12, 3), 0, 0, 0.5)
    with pytest.raises(spharm.GaussConstraintError, match="zero-total-vorticity"):
        evolve(omega, EvolutionConfig(nu=0.01, dt=5e-3, steps=3, lmax=12))
    assert calls == []


def test_zonal_evolve_guards_a_non_finite_state():
    # the instability guard still runs on the no-stage path
    omega = with_coeff(random_zonal(12, 3), 5, 0, math.nan)
    with pytest.raises(InstabilityError, match="not finite"):
        evolve(omega, EvolutionConfig(nu=0.01, dt=5e-3, steps=3, lmax=12))


@pytest.mark.parametrize("zonal", [False, True], ids=["random", "zonal"])
def test_evolve_synthesizes_once_per_recorded_state(zonal, monkeypatch):
    # the initial values serve both the drift reference and the first record;
    # a zonal run synthesises its states through the order-0 rows alone
    calls = {"synthesize": 0, "_zonal_rows": 0}
    for name in calls:
        real = getattr(spharm, name)

        def counted(c, plan, name=name, real=real):
            calls[name] += 1 if name == "synthesize" else len(c)
            return real(c, plan)

        monkeypatch.setattr(spharm, name, counted)
    L = 12
    omega = random_zonal(L, 4) if zonal else spharm.random_real_field(L, np.random.default_rng(4))
    cfg = EvolutionConfig(nu=0.01, dt=5e-3, steps=3, lmax=L)
    series = evolve(omega, cfg)
    if zonal:
        assert calls == {"synthesize": 0, "_zonal_rows": cfg.steps + 1}
    else:
        assert calls == {"synthesize": cfg.steps + 1, "_zonal_rows": 0}
    assert series.drift[0] == 0.0


def test_transform_grid_longitudes_are_2k_or_3_2k():
    # nlon is the smaller of 2^k and 3 * 2^k reaching 3L+1 (dealiased) or 2L+1
    sizes = sorted(n for k in range(3, 13) for n in (2**k, 3 * 2 ** (k - 1)))
    for need in range(1, 3000):
        assert timestep._fft_size(need) == min(n for n in sizes if n >= need), need
    for lmax, dealias, nlon in [(10, True, 32), (10, False, 24), (24, True, 96), (24, False, 64),
                                (31, True, 96), (63, True, 192), (127, True, 384),
                                (127, False, 256)]:
        assert timestep.transform_plan_for(lmax, dealias).grid.nlon == nlon


ZONALITY_LMAX = (10, 15, 24, 31, 63, 127)


@pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "plain"])
@pytest.mark.parametrize("lmax", ZONALITY_LMAX)
def test_vortex_pair_projection_stays_zonal(lmax, dealias):
    # the closed-form spectrum is exactly zonal and exactly real, and the rule
    # picks only nlon at which the rfft of a constant row is exactly zero off
    # the mean (not 400 or 480), so the analysis of a zonal field stays zonal
    # too: the zonal path of drift-sweep depends on both
    omega = timestep.project_vortex_pair(exact.VortexPairParams(k1=-1.7), lmax)
    plan = timestep.transform_plan_for(lmax, dealias)
    assert not omega.coeffs[:, 1:].any()
    assert not omega.coeffs[:, 0].imag.any()
    assert not omega.coeffs[0::2, 0].any()  # a_{0,0} too: the total vorticity is exactly zero
    assert np.max(np.abs(omega.coeffs)) > 0.1
    assert plan.grid.nlon in {2**k for k in range(3, 12)} | {3 * 2**k for k in range(2, 11)}


@pytest.mark.parametrize("l", [0, 1, 2, 3, 7])
def test_vortex_pair_spectrum_matches_mpmath_quadrature(l):
    # a_{l,0} = 2 pi int_{-1}^{1} omega Ybar_l^0 dx with omega = k2 - k1 artanh(x);
    # tanh-sinh quadrature resolves the log singularities at x = -1 and 1
    p = exact.VortexPairParams(k1=-1.7, k2=0.5)
    with mpmath.workdps(30):
        ybar = lambda x: mpmath.sqrt((2 * l + 1) / (4 * mpmath.pi)) * mpmath.legendre(l, x)
        omega = lambda x: p.k2 - p.k1 * mpmath.atanh(x)
        ref = float(2 * mpmath.pi * mpmath.quad(lambda x: omega(x) * ybar(x), [-1, 0, 1]))
    got = timestep.project_vortex_pair(p, 8).coeffs[l, 0]
    if l > 0 and l % 2 == 0:
        assert abs(ref) <= 1e-20
        assert got == 0.0
    else:
        assert abs(got.real - ref) <= 1e-14 * abs(ref)


def test_vortex_pair_spectrum_samples_no_grid(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the closed form must not sample or analyse a grid field")

    for module, name in [(spharm, "analyze"), (spharm, "build_plan"), (exact, "vorticity_field"),
                         (timestep, "transform_plan_for")]:
        monkeypatch.setattr(module, name, forbidden)
    omega = timestep.project_vortex_pair(P1, 31)
    assert omega.coeffs[1, 0].real == pytest.approx(-math.sqrt(12.0 * math.pi) / 2.0, rel=1e-15)


def test_vortex_pair_streamfunction_converges_to_the_dilogarithm_profile():
    # -lap(psi) = omega in coefficients, synthesised on the band; the closed-form
    # psi is gauged to 0 at the north pole, the spectral one to zero mean, and
    # the mean of the closed form is its equator value k1 pi^2 / 12
    errors = []
    for lmax, bound in [(31, 2e-5), (63, 2e-6), (127, 2e-7)]:
        plan = timestep.transform_plan_for(lmax, True)
        band = plan.grid.band_mask(*DEFAULT_BAND)
        psi = spharm.synthesize(spharm.invert_poisson(timestep.project_vortex_pair(P1, lmax)), plan)
        psi_band = psi.values[band, 0] + P1.k1 * math.pi**2 / 12.0
        errors.append(np.max(np.abs(psi_band - exact.streamfunction_profile(plan.grid.thetas[band], P1))))
        assert errors[-1] <= bound, lmax
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize(
    "lmax,expected",
    [(15, 0.0201), (31, 0.0106), (63, 0.0047), (127, 0.001893), (255, 0.0007116), (511, 0.0002488)],
)
def test_steadiness_drift_matches_exact_viscous_decay(lmax, expected):
    # a zonal state decays as a_l exp(-nu l(l+1) t); with the vortex pair's
    # closed-form a_l, the band drift of that decay on the plan's band nodes is
    # the drift steadiness_drift must report, to rounding: the integrating
    # factor applies that decay exactly, in one step, so E_l is rounded once
    nu, t_final = 0.01, 0.5  # the drift-sweep parameters
    ls = np.arange(lmax + 1, dtype=float)
    odd = ls % 2 == 1
    a = np.zeros(lmax + 1)
    a[odd] = -P1.k1 * np.sqrt(4.0 * np.pi * (2.0 * ls[odd] + 1.0)) / (ls[odd] * (ls[odd] + 1.0))
    grid = timestep.transform_plan_for(lmax, True).grid
    thetas = grid.thetas[grid.band_mask(*DEFAULT_BAND)]
    y = np.array([sph_harm_y(l, 0, thetas, 0.0).real for l in range(lmax + 1)])  # [l, theta]
    exact_drift = np.max(np.abs(((np.exp(-nu * ls * (ls + 1.0) * t_final) - 1.0) * a) @ y))
    assert exact_drift == pytest.approx(expected, abs=5e-5)
    assert abs(steadiness_drift(P1, lmax, nu, t_final) / exact_drift - 1.0) <= 1e-12


def test_steadiness_drift_takes_its_horizon_in_one_step(monkeypatch):
    # one exact step of length t_final at any truncation and viscosity: no step
    # count grows with nu lmax^2, and E_l is rounded once
    configs = []
    real = timestep.evolve
    monkeypatch.setattr(timestep, "evolve", lambda omega, cfg: configs.append(cfg) or real(omega, cfg))
    for lmax, nu in [(15, 0.01), (63, 10.0)]:
        assert steadiness_drift(P1, lmax, nu, 0.5) > 0.0
    assert configs == [
        EvolutionConfig(nu=0.01, dt=0.5, steps=1, lmax=15, dealias=True),
        EvolutionConfig(nu=10.0, dt=0.5, steps=1, lmax=63, dealias=True),
    ]
    # the same one-step run on the grid without dealiasing, at a large truncation
    cfg = EvolutionConfig(nu=0.01, dt=0.5, steps=1, lmax=255, dealias=False)
    assert real(timestep.project_vortex_pair(P1, 255), cfg).drift[-1] > 0.0


def test_zonal_drift_run_never_takes_the_l2_norm(monkeypatch):
    # a_{0,0} is exactly 0, so the Gauss check of every zonal tendency returns
    # before it forms the norm
    calls = []
    real = spharm.l2_norm
    monkeypatch.setattr(spharm, "l2_norm", lambda c: calls.append(1) or real(c))
    assert steadiness_drift(P1, 15, 0.01, 0.5) > 0.0
    assert calls == []


def test_rhs_rejects_mean_vorticity_of_a_non_zonal_field():
    # rhs checks the field it is given before the bracket, which checks nothing
    omega = with_coeff(spharm.random_real_field(10, np.random.default_rng(2)), 0, 0, 1e-3)
    cfg = EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=10)
    with pytest.raises(spharm.GaussConstraintError, match="zero-total-vorticity"):
        rhs(omega, cfg)


def _rk4_factor(z):
    """Per-step classical RK4 amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0


def _decay_factor(nu, dt, ls):
    """Per-step viscous factor E = exp(-nu l(l+1) dt), which the integrating factor applies exactly."""
    return np.exp(-nu * ls * (ls + 1.0) * dt)


@pytest.mark.parametrize("lmax,dealias", [(15, True), (31, True), (63, True), (24, False)])
def test_zonal_rk4_matches_exact_amplification(lmax, dealias, monkeypatch):
    # a zonal state has no bracket, so each Lawson RK4 step multiplies a_l by
    # exactly E_l: energy, enstrophy and the band drift of steadiness_drift
    # (at the drift-sweep parameters) follow in closed form
    nu, t_final = 0.01, 0.5
    runs = []
    real = timestep.evolve

    def spy(omega0, cfg):
        runs.append((omega0, cfg, real(omega0, cfg)))
        return runs[-1][2]

    monkeypatch.setattr(timestep, "evolve", spy)
    if dealias:
        drift = steadiness_drift(P1, lmax, nu, t_final)
    else:  # steadiness_drift always dealiases: its one-step run on the plain grid
        cfg = EvolutionConfig(nu=nu, dt=t_final, steps=1, lmax=lmax, dealias=False)
        drift = float(timestep.evolve(timestep.project_vortex_pair(P1, lmax), cfg).drift[-1])
    (omega0, cfg, series), = runs
    a = omega0.coeffs[:, 0].real
    ls = np.arange(lmax + 1, dtype=float)
    gain = _decay_factor(nu, cfg.dt, ls) ** np.arange(cfg.steps + 1)[:, None]  # [step, l]
    inv = np.zeros(lmax + 1)
    inv[1:] = 1.0 / (ls[1:] * (ls[1:] + 1.0))
    enstrophy = 0.5 * (gain * a) ** 2 @ np.ones(lmax + 1)
    energy = 0.5 * (gain * a) ** 2 @ inv
    assert np.max(np.abs(series.enstrophy / enstrophy - 1.0)) <= 1e-13
    assert np.max(np.abs(series.energy / energy - 1.0)) <= 1e-13
    grid = timestep.transform_plan_for(lmax, dealias).grid
    thetas = grid.thetas[grid.band_mask(*DEFAULT_BAND)]
    y = np.array([sph_harm_y(l, 0, thetas, 0.0).real for l in range(lmax + 1)])  # [l, theta]
    exact_drift = np.max(np.abs(((gain[-1] - 1.0) * a) @ y))
    assert exact_drift > 1e-3
    assert abs(drift - exact_drift) <= 1e-13 * series.max_omega[0]


def _degree_field(lmax, seed):
    """Random real field of the single degree l = lmax, every order 0..lmax filled."""
    rng = np.random.default_rng(seed)
    arr = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    arr[lmax, 0] = rng.standard_normal()
    arr[lmax, 1:] = rng.standard_normal(lmax) + 1j * rng.standard_normal(lmax)
    return spharm.SpectralField(lmax, arr)


@pytest.mark.parametrize("lmax", [63, 127])
def test_single_degree_field_through_the_transform_path(lmax, count_transforms):
    # psi = omega / (l(l+1)) makes J(psi, omega) vanish, so the inviscid
    # tendency is rounding only and Lawson RK4 scales the field by E^n
    # exactly; unlike a zonal field, this runs the full bracket transforms
    omega = _degree_field(lmax, lmax)
    scale = np.max(np.abs(omega.coeffs))
    inviscid = rhs(omega, EvolutionConfig(nu=0.0, dt=1e-2, steps=1, lmax=lmax))
    assert count_transforms == [lmax]
    assert np.max(np.abs(inviscid.coeffs)) <= 1e-13 * scale
    cfg = EvolutionConfig(nu=1e-4, dt=1e-2, steps=3, lmax=lmax)
    series = evolve(omega, cfg)
    gain = _decay_factor(cfg.nu, cfg.dt, float(lmax)) ** np.arange(cfg.steps + 1)
    assert gain[-1] < 0.99
    for got, ref in [(series.enstrophy, series.enstrophy[0] * gain**2),
                     (series.energy, series.energy[0] * gain**2),
                     (series.max_omega, series.max_omega[0] * gain)]:
        assert np.max(np.abs(got / ref - 1.0)) <= 1e-13


def test_plan_cache_shares_one_plan_per_key():
    plan = timestep.transform_plan_for(15, True)
    assert timestep.transform_plan_for(15, True) is plan
    others = [timestep.transform_plan_for(15, False), timestep.transform_plan_for(16, True)]
    assert all(o is not plan for o in others)
    assert others[0] is not others[1]


def test_shared_plan_is_read_only():
    plan = timestep.transform_plan_for(15, True)
    with pytest.raises(ValueError):
        plan.plm[0, 0] = 1.0
    with pytest.raises(ValueError):
        plan.grid.thetas[0] = 1.0


def _series_bytes(omega, cfg, path):
    write_time_series(evolve(omega, cfg), path)
    return path.read_bytes()


@pytest.mark.parametrize("zonal", [False, True], ids=["random", "zonal"])
def test_evolve_same_from_cold_and_warm_cache(tmp_path, zonal):
    L = 12
    omega = random_zonal(L, 9) if zonal else spharm.random_real_field(L, np.random.default_rng(9))
    cfg = EvolutionConfig(nu=0.01, dt=5e-3, steps=10, lmax=L)
    timestep.transform_plan_for.cache_clear()
    cold = _series_bytes(omega, cfg, tmp_path / "cold.csv")
    assert timestep.transform_plan_for.cache_info().currsize == 1
    warm = _series_bytes(omega, cfg, tmp_path / "warm.csv")
    assert timestep.transform_plan_for.cache_info().hits >= 1
    assert cold == warm


def test_inverse_eigenvalues_stay_bounded_over_a_drift_sweep():
    # kept for as many truncations as the plans, not one per truncation ever run
    for lmax in range(2, 41):
        steadiness_drift(P1, lmax, nu=0.01, t_final=0.5)
    assert timestep._inverse_eigenvalues.cache_info().currsize <= 4


def test_pair_shape_cache_stays_bounded_and_read_only_over_a_drift_sweep():
    for lmax in range(2, 41):
        steadiness_drift(P1, lmax, nu=0.01, t_final=0.5)
    assert timestep._pair_shape.cache_info().currsize <= timestep.PLAN_CACHE_SIZE
    for a in timestep._pair_shape(40):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


@pytest.mark.parametrize("k1", [1.0, -1.7, 3e-3])
@pytest.mark.parametrize("lmax", [2, 15, 63])
def test_cached_pair_shape_gives_the_closed_form_bytes(k1, lmax):
    # -k1 sqrt(4 pi (2l+1)) / (l(l+1)) for odd l, in that order of operations,
    # whether the shape is cached or not
    ls = np.arange(1, lmax + 1, 2, dtype=np.float64)
    want = -k1 * np.sqrt(4.0 * math.pi * (2.0 * ls + 1.0)) / (ls * (ls + 1.0))
    for _ in range(2):
        got = timestep.project_vortex_pair(exact.VortexPairParams(k1=k1), lmax).coeffs
        assert got[1::2, 0].tobytes() == want.astype(np.complex128).tobytes()


def test_evolve_zero_initial_condition():
    cfg = EvolutionConfig(nu=0.1, dt=1e-2, steps=5, lmax=4)
    series = evolve(zeros(4), cfg)
    assert np.max(series.max_omega) == 0.0
    assert np.max(series.drift) == 0.0
    assert series.times.size == 6


@pytest.mark.parametrize("l,m,nu", [(2, 1, 0.01), (5, 3, 0.05), (8, 2, 0.02)])
def test_single_mode_viscous_decay(l, m, nu):
    # exact linear decay exp(-nu l(l+1) t): the bracket vanishes for an
    # eigenpair, and the integrating factor applies the decay exactly, so
    # only rounding is left
    cfg = EvolutionConfig(nu=nu, dt=1e-3, steps=1000, lmax=max(l, 4))
    series = evolve(spharm.real_single_mode(max(l, 4), l, m), cfg)
    ratio = math.sqrt(series.enstrophy[-1] / series.enstrophy[0])
    assert ratio == pytest.approx(math.exp(-nu * l * (l + 1)), rel=1e-12)


RH_CASES = [(15, True), (31, True), (63, True), (127, True), (24, False)]


@pytest.mark.parametrize("A", [1.0, -0.7])
@pytest.mark.parametrize("lmax,dealias", RH_CASES)
def test_rossby_haurwitz_tendency_is_exact(lmax, dealias, A):
    # solid-body rotation plus one degree l: the bracket is nonzero and maps
    # degree l onto itself, d a_{l,m}/dt = -i m c a_{l,m}, leaving a_{1,0}
    # alone; its sign and its theta/phi roles are both visible here
    cfg = EvolutionConfig(nu=0.0, dt=1e-3, steps=1, lmax=lmax, dealias=dealias)
    for l in (3, 7):
        omega, c = rossby_haurwitz(lmax, l, A, seed=l)
        tend = rhs(omega, cfg).coeffs
        expected = np.zeros_like(tend)
        expected[l] = -1j * np.arange(lmax + 1) * c * omega.coeffs[l]
        scale = np.max(np.abs(expected))
        assert scale > 0.5
        assert np.max(np.abs(tend - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("A", [1.0, -0.7])
@pytest.mark.parametrize("lmax,dealias", [(31, True), (24, False)])
def test_rossby_haurwitz_steps_follow_rk4_amplification(lmax, dealias, A, recorded_states):
    # each inviscid step multiplies a_{l,m} by R(-i m c dt), and a_{1,0} stays put
    l, dt, n = 5, 0.02, 50
    omega, c = rossby_haurwitz(lmax, l, A, seed=1)
    evolve(omega, EvolutionConfig(nu=0.0, dt=dt, steps=n, lmax=lmax, dealias=dealias))
    assert len(recorded_states) == n + 1
    final = recorded_states[-1].coeffs
    expected = np.zeros_like(final)
    expected[1, 0] = omega.coeffs[1, 0]
    expected[l] = _rk4_factor(-1j * np.arange(lmax + 1) * c * dt) ** n * omega.coeffs[l]
    assert np.max(np.abs(final[l] - omega.coeffs[l])) > 0.5  # the wave has moved
    assert np.max(np.abs(final - expected)) <= 1e-13 * np.max(np.abs(omega.coeffs))


def test_rk4_temporal_order(recorded_states):
    # the phase error of a Rossby-Haurwitz wave: the integrating factor makes
    # viscous decay exact, so the RK4 order shows in the bracket alone
    l, t_final = 4, 1.0
    omega, c = rossby_haurwitz(15, l, 1.0, seed=4)
    wave = np.exp(-1j * np.arange(16) * c * t_final) * omega.coeffs[l]
    errors = []
    for dt in (0.1, 0.05, 0.025):
        del recorded_states[:]
        evolve(omega, EvolutionConfig(nu=0.0, dt=dt, steps=round(t_final / dt), lmax=15))
        errors.append(np.max(np.abs(recorded_states[-1].coeffs[l] - wave)))
    assert errors[-1] > 1e-9  # well above rounding
    assert fit_order(errors) == pytest.approx(4.0, abs=0.3)


def _golden_ic():
    return spharm.read_spectral_field(DATA / "golden_ic_l20.csv", 24)


def _random_l127():
    c = spharm.random_real_field(127, np.random.default_rng(1))
    return spharm.SpectralField(127, c.coeffs * (10.0 / spharm.l2_norm(c)))


@pytest.mark.parametrize(
    "initial,dt,steps", [(_golden_ic, 0.005, 20), (_random_l127, 2e-3, 5)], ids=["l24", "l127"]
)
def test_inviscid_lawson_step_is_classical_rk4(initial, dt, steps, recorded_states):
    # at nu = 0 the integrating factor is exactly 1, so every recorded state
    # must be the classical step c + dt/6 (k1 + 2 k2 + 2 k3 + k4) of the
    # public tendency, byte for byte, whatever kernel the BLAS picks
    omega = initial()
    L = omega.lmax
    cfg = EvolutionConfig(nu=0.0, dt=dt, steps=steps, lmax=L)
    evolve(omega, cfg)
    assert len(recorded_states) == steps + 1
    c = omega.coeffs
    for state in recorded_states[1:]:
        k1 = rhs(spharm.SpectralField(L, c), cfg).coeffs
        k2 = rhs(spharm.SpectralField(L, c + 0.5 * dt * k1), cfg).coeffs
        k3 = rhs(spharm.SpectralField(L, c + 0.5 * dt * k2), cfg).coeffs
        k4 = rhs(spharm.SpectralField(L, c + dt * k3), cfg).coeffs
        c = spharm.SpectralField(L, c + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).coeffs
        assert state.coeffs.tobytes() == c.tobytes()


@pytest.mark.parametrize("steps", [1, 4])
def test_stepped_evolve_builds_one_spectral_field_per_step(steps, monkeypatch):
    # the Lawson stages are coefficient arrays: only each recorded state is a
    # SpectralField, so its realness checks run once a step, not on every stage
    omega = spharm.random_real_field(12, np.random.default_rng(4))
    built = []
    real = spharm.SpectralField.__post_init__
    monkeypatch.setattr(
        spharm.SpectralField, "__post_init__", lambda self: built.append(1) or real(self)
    )
    evolve(omega, EvolutionConfig(nu=0.01, dt=5e-3, steps=steps, lmax=12))
    assert len(built) == steps


def test_single_mode_decay_without_dealiasing():
    # the bracket is exactly zero for an eigenpair, so disabling the
    # dealiased transform grid must not change the decay
    cfg = EvolutionConfig(nu=0.05, dt=5e-3, steps=200, lmax=6, dealias=False)
    series = evolve(spharm.real_single_mode(6, 3, 2), cfg)
    ratio = math.sqrt(series.enstrophy[-1] / series.enstrophy[0])
    assert ratio == pytest.approx(math.exp(-0.05 * 12), rel=1e-6)


def test_inviscid_conservation():
    # dealiased bracket: energy and enstrophy drift only through RK4 error
    rng = np.random.default_rng(7)
    omega0 = spharm.random_real_field(31, rng)
    plan = timestep.transform_plan_for(31, True)
    scale = np.max(np.abs(spharm.synthesize(omega0, plan).values))
    omega0 = spharm.SpectralField(31, omega0.coeffs / scale)
    cfg = EvolutionConfig(nu=0.0, dt=1e-3, steps=1000, lmax=31)
    series = evolve(omega0, cfg)
    assert abs(series.energy[-1] / series.energy[0] - 1.0) < 1e-6
    assert abs(series.enstrophy[-1] / series.enstrophy[0] - 1.0) < 1e-6


def test_mean_coefficient_constant_through_run():
    rng = np.random.default_rng(3)
    omega0 = spharm.random_real_field(8, rng)
    cfg = EvolutionConfig(nu=0.05, dt=5e-3, steps=40, lmax=8)
    series = evolve(omega0, cfg)
    assert series.times.size == 41  # diagnostics recorded every step


def test_zonal_truncation_has_zero_inviscid_drift():
    assert steadiness_drift(P1, 31, nu=0.0, t_final=1.0) == 0.0


def test_drift_shrinks_with_truncation_degree():
    d31 = steadiness_drift(P1, 31, nu=0.01, t_final=1.0)
    d63 = steadiness_drift(P1, 63, nu=0.01, t_final=1.0)
    assert 0.0 < d63 < d31


def test_steadiness_drift_zero_horizon():
    assert steadiness_drift(P1, 31, nu=0.01, t_final=0.0) == 0.0


@pytest.mark.parametrize("t_final", [math.inf, math.nan])
def test_steadiness_drift_validates_horizon(t_final):
    with pytest.raises(ValueError, match="^t_final must be finite"):
        steadiness_drift(P1, 15, nu=0.01, t_final=t_final)


def test_steadiness_drift_rejects_offset_family():
    with pytest.raises(ValueError):
        steadiness_drift(exact.VortexPairParams(1.0, 0.5), 31, nu=0.0, t_final=1.0)


def test_viscous_rossby_haurwitz_converges_at_fourth_order(recorded_states):
    # with viscosity a_{1,0} decays as exp(-2 nu t), which the integrating
    # factor applies exactly, so c(t) = c(0) exp(-2 nu t) and
    # a_{l,m}(t) = a_{l,m}(0) exp(-nu l(l+1) t - i m c(0) (1 - exp(-2 nu t)) / (2 nu))
    l, nu, t_final = 4, 0.05, 1.0
    omega, c = rossby_haurwitz(15, l, 1.0, seed=4)
    phase = c * (1.0 - math.exp(-2.0 * nu * t_final)) / (2.0 * nu)
    wave = np.exp(-nu * l * (l + 1) * t_final - 1j * np.arange(16) * phase) * omega.coeffs[l]
    errors = []
    for dt in (0.1, 0.05, 0.025):
        del recorded_states[:]
        steps = round(t_final / dt)
        evolve(omega, EvolutionConfig(nu=nu, dt=dt, steps=steps, lmax=15))
        final = recorded_states[-1].coeffs
        decay = _decay_factor(nu, dt, 1.0) ** steps
        assert abs(final[1, 0] / (decay * omega.coeffs[1, 0]) - 1.0) <= 1e-13
        errors.append(np.max(np.abs(final[l] - wave)))
    assert errors[-1] > 1e-10  # well above rounding
    assert fit_order(errors) == pytest.approx(4.0, abs=0.3)


def test_instability_guard_triggers():
    # an inviscid step far beyond the advective limit: |omega| grows from
    # 11 to about 6.6e3 in two steps
    omega = spharm.random_real_field(8, np.random.default_rng(3))
    cfg = EvolutionConfig(nu=0.0, dt=0.5, steps=200, lmax=8)
    with pytest.raises(InstabilityError, match="more than ten times"):
        evolve(omega, cfg)


def test_stiff_viscous_mode_decays_exactly():
    # dt*nu*l(l+1) = 2.79 sits beyond the classical RK4 real-axis limit
    # 2.785; the integrating factor applies exp(-2.79) per step exactly
    cfg = EvolutionConfig(nu=1.0, dt=2.79 / 72.0, steps=100, lmax=8)
    series = evolve(spharm.real_single_mode(8, 8, 1), cfg)
    ratio = math.sqrt(series.enstrophy[-1] / series.enstrophy[0])
    assert ratio == pytest.approx(math.exp(-2.79 * 100), rel=1e-12)


def test_time_series_csv(tmp_path):
    cfg = EvolutionConfig(nu=0.1, dt=1e-2, steps=3, lmax=4)
    series = evolve(spharm.real_single_mode(4, 2, 1), cfg)
    path = tmp_path / "ts.csv"
    write_time_series(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,energy,enstrophy,max_omega,drift"
    assert len(lines) == 5
