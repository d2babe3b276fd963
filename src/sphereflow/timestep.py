"""Spectral time integration of the unsteady barotropic vorticity equation.

    d omega / dt = -(1/sin) J(psi, omega) + nu * lap(omega),
    -lap(psi) = omega,

advanced with the integrating-factor (Lawson) fourth-order Runge-Kutta
scheme (Lawson 1967, SIAM J. Numer. Anal. 4:372; Cox & Matthews 2002,
J. Comput. Phys. 176:430).  Stepping v_{l,m} = exp(nu l(l+1) t) a_{l,m}
instead of a_{l,m} applies the viscous factor E_l = exp(-nu l(l+1) dt)
exactly, and the four RK4 stages evaluate only the advection bracket.  So
viscosity puts no bound on dt; :class:`EvolutionConfig` asks only that dt,
dt*steps and nu*dt be finite, and an advective step too long for the flow
ends in :class:`InstabilityError`.  At nu = 0, E = 1 exactly and the step is
classical RK4, sum for sum.  The bracket is evaluated pseudo-spectrally:
derivative fields are synthesized on a quadrature grid, multiplied
pointwise and projected back.  With the
default two-thirds (transform-grid) dealiasing the projected bracket
integrals are exact, so the inviscid semi-discrete system conserves energy
and enstrophy up to time-integration error.

A zonal state (every order m >= 1 exactly zero) has an exactly zero bracket
(both phi-derivatives vanish on every node), so the scheme gives
a_l(t_k) = a_l(0) E_l^k.  :func:`evolve` tests zonality once, on the initial
state, and then runs no stage: it forms the states as sequential products,
a block of them at a time, and synthesises each block with the order-0
product of :func:`sphereflow.spharm.synthesize`, with the bytes the stepped
loop would give; one loop records the blocks of both paths.  Transform plans
are cached per (lmax, dealias), at most :data:`PLAN_CACHE_SIZE` per process;
a plan builds its tables on first read (12.7 MB at lmax 127), and a zonal run
reads only their order-0 block and only the order-0 column of its
coefficients, its initial energy and enstrophy (|a_l|^2) included.  The rows
of the drift band live on the grid
(:attr:`~sphereflow.grid.Grid.default_band_rows`), and the vortex pair's
spectrum shape sqrt(4 pi (2l+1)) / (l(l+1)) is cached per truncation like the
plans.  So one :func:`steadiness_drift` call costs about 65-80 us at lmax
15-63 on a 2-core x86-64 host with one BLAS thread (80-110 us when each call
recomputed them), mostly fixed numpy overhead.  A step whose grid maximum
of |omega| is not finite, or more than ten times the initial one, raises
:class:`InstabilityError`.

Used here mainly to demonstrate that the vortex-pair flow is steady: its
spectral truncation, taken in closed form, is zonal, the bracket vanishes
identically, and the only drift source is viscosity acting on the truncated
pole singularities.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import exact, spharm
from .grid import GridSpec, _write_csv, build_grid

class InstabilityError(RuntimeError):
    """Raised when |omega| turns non-finite or blows past ten times its initial amplitude."""


@dataclasses.dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters.

    There is no density: the curl eliminates the pressure, and the density
    never enters the vorticity dynamics.
    """

    nu: float
    dt: float
    steps: int
    lmax: int
    dealias: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu >= 0.0):
            raise ValueError(f"viscosity must be finite and nonnegative, got {self.nu}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"time step must be finite and positive, got {self.dt}")
        if self.steps < 1:
            raise ValueError("need at least one step")
        if self.lmax < 2:
            raise ValueError("need lmax >= 2")
        # the integrating factor is exact at any dt, but the times and the factors
        # E_l = exp(-nu l(l+1) dt) need these products finite
        for name, value in (("dt*steps", self.dt * self.steps), ("nu*dt", self.nu * self.dt)):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value} overflows double precision")


@dataclasses.dataclass(frozen=True)
class TimeSeries:
    """Per-step diagnostics; all arrays have length steps + 1.

    drift is the max-abs change of the vorticity since the initial state,
    taken over the transform-grid nodes inside the pole-excluding band of
    :data:`sphereflow.grid.DEFAULT_BAND`, not over the whole band: at lmax 15
    the first such node is theta = 0.481, against a band start of
    pi/8 = 0.393.
    """

    times: np.ndarray
    energy: np.ndarray
    enstrophy: np.ndarray
    max_omega: np.ndarray
    drift: np.ndarray

    def __post_init__(self):
        n = self.times.size
        for name in ("energy", "enstrophy", "max_omega", "drift"):
            if getattr(self, name).size != n:
                raise ValueError("diagnostic arrays must share one length")


def _fft_size(n: int) -> int:
    """Smallest 2^k or 3 * 2^k that is at least ``n`` (and at least 8)."""
    pow2 = 1 << max(3, (n - 1).bit_length())
    return 3 * pow2 // 4 if 3 * pow2 // 4 >= max(n, 8) else pow2


#: Transform plans kept per process: room for a sweep over three truncations and one more.
PLAN_CACHE_SIZE = 4


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def transform_plan_for(lmax: int, dealias: bool) -> spharm.TransformPlan:
    """Gauss-Legendre transform grid sized for the quadratic nonlinearity.

    Dealiased runs use the 3/2-rule grid (quadrature exact through triple
    products of degree lmax); nlon is rounded up to the smaller of 2^k and
    3 * 2^k, lengths at which the rfft of a constant row is exactly zero off
    the mean, so the analysis of a zonal field stays exactly zonal.
    Plans are cached per ``(lmax, dealias)``: a plan and its grid are frozen
    with read-only arrays, so every caller can share one.  The grid comes
    from :func:`sphereflow.grid.build_grid`'s own cache, so it is the grid
    every other caller gets for the same spec.
    """
    if dealias:
        nlat = (3 * lmax) // 2 + 2
        nlon = _fft_size(3 * lmax + 1)
    else:
        nlat = lmax + 2
        nlon = _fft_size(2 * lmax + 1)
    grid = build_grid(GridSpec(nlat=max(nlat, 4), nlon=nlon))
    return spharm.build_plan(grid, lmax)


def _advection_coeffs(omega: np.ndarray, plan: spharm.TransformPlan) -> np.ndarray:
    """Spectral image of (1/sin) J(psi, omega), coefficient array to coefficient array.

    No Gauss check: :func:`rhs` and :func:`evolve` check the field that enters,
    not each stage, whose norm decays under viscosity while a_{0,0} does not.
    A zonal omega gives exact zeros: both phi-derivatives vanish on every node.
    """
    psi = spharm._solve_poisson(omega)
    (om_t, ps_t), (om_p, ps_p) = spharm._synthesize([omega, psi], plan, True)
    s = plan.grid.sin_thetas[:, None]
    out = spharm._analyze((ps_p / s) * om_t - ps_t * (om_p / s), plan)
    out[0, 0] = 0.0  # the mean is exactly conserved by advection
    return out


def rhs(
    omega: spharm.SpectralField,
    cfg: EvolutionConfig,
    plan: spharm.TransformPlan | None = None,
) -> spharm.SpectralField:
    """Spectral tendency -(1/sin) J(psi, omega) + nu * lap(omega).

    :func:`evolve` integrates this tendency, with the viscous part applied
    exactly.  A nonzero mean vorticity raises
    :class:`~sphereflow.spharm.GaussConstraintError`.
    """
    if plan is None:
        plan = transform_plan_for(cfg.lmax, cfg.dealias)
    if omega.lmax != plan.lmax:
        raise ValueError("vorticity truncation does not match the plan")
    spharm.check_gauss_constraint(omega)
    tend = -_advection_coeffs(omega.coeffs, plan)
    if cfg.nu != 0.0:
        tend = tend + cfg.nu * spharm.laplacian_eigenvalues(plan.lmax) * omega.coeffs
    return spharm.SpectralField(plan.lmax, tend)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _inverse_eigenvalues(lmax: int) -> np.ndarray:
    """Read-only 1 / (l(l+1)) for l >= 1, and 0 for l = 0, kept for as many lmax as plans."""
    inv = np.zeros(lmax + 1)
    inv[1:] = 1.0 / -spharm.laplacian_eigenvalues(lmax)[1:, 0]
    inv.setflags(write=False)
    return inv


def _energy_enstrophy(level: np.ndarray):
    """Energy and enstrophy from the per-degree power ``spharm.power(c).sum(axis=1)``.

    Degrees run along the last axis, so a stack of states gives one value per state.
    """
    energy = 0.5 * (level * _inverse_eigenvalues(level.shape[-1] - 1)).sum(axis=-1)
    enstrophy = 0.5 * level.sum(axis=-1)
    return energy, enstrophy


def _viscous_factor(cfg: EvolutionConfig, fraction: float = 1.0) -> np.ndarray:
    """exp(-nu l(l+1) dt * fraction), shape (lmax+1, 1): E at 1 and E_half at 0.5.

    Exactly 1 at nu = 0.
    """
    return np.exp(fraction * (cfg.nu * cfg.dt * spharm.laplacian_eigenvalues(cfg.lmax)))


_ZONAL_BLOCK = 256  # states per block of the zonal march, whatever the number of steps


def _lawson_steps(omega0, cfg, plan):
    """Lawson RK4 steps, yielding the block (power, grid values) of one state at a time.

    With u = exp(nu l(l+1) t) a, E and E_half from :func:`_viscous_factor`
    and N the bracket term -(1/sin) J(psi, omega), one step from c is

        k1 = N(c),                    k2 = N(E_half (c + dt/2 k1)),
        k3 = N(E_half c + dt/2 k2),   k4 = N(E c + dt E_half k3),
        c' = E c + dt/6 (E k1 + 2 E_half k2 + 2 E_half k3 + k4),

    summed in the order of the classical scheme, which it equals at nu = 0.
    The stages are arrays; each recorded state is a :class:`~sphereflow.spharm.SpectralField`.
    """
    dt = cfg.dt
    E, E_half = _viscous_factor(cfg), _viscous_factor(cfg, 0.5)
    omega = omega0
    for k in range(cfg.steps + 1):
        if k:
            c = omega.coeffs
            k1 = -_advection_coeffs(c, plan)
            k2 = -_advection_coeffs(E_half * (c + 0.5 * dt * k1), plan)
            k3 = -_advection_coeffs(E_half * c + 0.5 * dt * k2, plan)
            k4 = -_advection_coeffs(E * c + dt * (E_half * k3), plan)
            c = E * c + (dt / 6.0) * (E * k1 + 2.0 * E_half * k2 + 2.0 * E_half * k3 + k4)
            omega = spharm.SpectralField(cfg.lmax, c)
        yield spharm.power(omega).sum(axis=1)[None], spharm.synthesize(omega, plan).values[None]


def _zonal_decay(omega0, cfg, plan):
    """The Lawson steps of a zonal state, with no stage and no bracket.

    Every bracket of a zonal state is exactly zero, so step k multiplies
    a_l by E_l alone: the states are the sequential products a_l(0) E_l^k,
    formed by ``cumprod`` with the bytes of :func:`_lawson_steps`, block by
    block, each from the last state of the block before.  A block's power is
    |a_l|^2, and its grid values are the rows of
    :func:`~sphereflow.spharm._zonal_rows`, constant in longitude.
    """
    n = cfg.steps
    factors = np.empty((min(n, _ZONAL_BLOCK) + 1, cfg.lmax + 1), dtype=np.complex128)
    factors[0] = omega0.coeffs[:, 0]
    factors[1:] = _viscous_factor(cfg)[:, 0]
    for start in range(0, n, _ZONAL_BLOCK):
        a = np.cumprod(factors[: min(n - start, _ZONAL_BLOCK) + 1], axis=0)  # [state, l]
        a = a[1:] if start else a  # a carried first state was yielded with its block
        yield np.abs(a) ** 2, spharm._zonal_rows(a, plan)[:, :, None]
        factors[0] = a[-1]


def evolve(omega0: spharm.SpectralField, cfg: EvolutionConfig) -> TimeSeries:
    """March ``steps`` Lawson RK4 steps from ``omega0`` and record diagnostics.

    Energy is 0.5 * int |grad psi|^2 dA and enstrophy 0.5 * int omega^2 dA,
    both evaluated from coefficients.  A nonzero mean vorticity raises
    :class:`~sphereflow.spharm.GaussConstraintError`, and an initial energy
    or enstrophy that overflows to infinity raises ValueError, before the
    first step.  A zonal ``omega0`` takes :func:`_zonal_decay`, which runs
    no stage; any other takes the stepped loop of :func:`_lawson_steps`.
    Raises :class:`InstabilityError` when the grid maximum of |omega| is not
    finite (a NaN coefficient in ``omega0`` included) or exceeds ten times
    its initial value.
    """
    plan = transform_plan_for(cfg.lmax, cfg.dealias)
    if omega0.lmax != cfg.lmax:
        raise ValueError("initial condition truncation does not match the config")
    in_band = plan.grid.default_band_rows
    band = slice(in_band[0], in_band[-1] + 1)  # one run of rows: the colatitudes increase
    times = cfg.dt * np.arange(cfg.steps + 1)
    energy, enstrophy, max_omega, drift = np.empty((4, cfg.steps + 1))
    zonal = not omega0.coeffs[:, 1:].any()
    march = _zonal_decay if zonal else _lawson_steps
    # a blow-up overflows inside the stages; the growth test reports it as InstabilityError
    with np.errstate(over="ignore", invalid="ignore"):
        # first, so a state past double precision is reported as that, whatever its
        # mean; a zonal state's power is its order-0 column, |a_l|^2
        level0 = np.abs(omega0.coeffs[:, 0]) ** 2 if zonal else spharm.power(omega0).sum(axis=1)
        energy0, enstrophy0 = _energy_enstrophy(level0)
        if math.isinf(energy0) or math.isinf(enstrophy0):
            raise ValueError(
                f"the initial state's energy ({energy0:.3e}) or enstrophy ({enstrophy0:.3e}) "
                "overflows double precision"
            )
        spharm.check_gauss_constraint(omega0)
        j = 0
        for level, values in march(omega0, cfg, plan):
            k, j = j, j + len(level)
            energy[k:j], enstrophy[k:j] = _energy_enstrophy(level)
            max_omega[k:j] = np.abs(values).max(axis=(1, 2))
            values0 = values[0, band] if k == 0 else values0
            drift[k:j] = np.abs(values[:, band] - values0).max(axis=(1, 2))
            # written so that a NaN maximum fails the test too
            unstable = np.flatnonzero(~(max_omega[k:j] <= 10.0 * max_omega[0]))
            if unstable.size:
                k += unstable[0]
                raise InstabilityError(
                    f"|omega| reached {max_omega[k]:.3e} at t={times[k]:.4g}, not finite or "
                    f"more than ten times the initial {max_omega[0]:.3e}"
                )
            del level, values  # freed before the march forms the next state
    return TimeSeries(
        times=times, energy=energy, enstrophy=enstrophy, max_omega=max_omega, drift=drift
    )


def project_vortex_pair(p: exact.VortexPairParams, lmax: int) -> spharm.SpectralField:
    """The vortex pair's spectrum truncated at ``lmax``, in closed form.

    With x = cos(theta), omega = k1*log(tan(theta/2)) + k2 = k2 - k1*artanh(x),
    and artanh(x) = sum over odd l of (2l+1)/(l(l+1)) P_l(x).  So
    a_{l,0} = -k1*sqrt(4 pi (2l+1))/(l(l+1)) for odd l, a_{0,0} = k2*sqrt(4 pi),
    and every other coefficient is exactly zero.  No grid is sampled: the
    log-singular profile never meets a quadrature.
    """
    coeffs = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    coeffs[0, 0] = p.k2 * math.sqrt(4.0 * math.pi)
    root, degree = _pair_shape(lmax)
    coeffs[1::2, 0] = (-p.k1 * root) / degree
    return spharm.SpectralField(lmax, coeffs)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pair_shape(lmax: int):
    """Read-only sqrt(4 pi (2l+1)) and l(l+1) of the odd l <= lmax, kept like the plans."""
    ls = np.arange(1, lmax + 1, 2, dtype=np.float64)
    root, degree = np.sqrt(4.0 * math.pi * (2.0 * ls + 1.0)), ls * (ls + 1.0)
    root.setflags(write=False)
    degree.setflags(write=False)
    return root, degree


def steadiness_drift(p: exact.VortexPairParams, lmax: int, nu: float, t_final: float) -> float:
    """Band-max drift of the truncated vortex-pair flow after ``t_final``.

    The run starts from the closed-form truncation of
    :func:`project_vortex_pair`, which is zonal, so the advection bracket
    vanishes identically and the drift is produced solely by viscosity acting
    on the truncated pole singularities; it vanishes for nu = 0 and shrinks as
    lmax grows.  :func:`evolve` runs no stage for it, so the drift is that of
    the exact decay a_l exp(-nu l(l+1) t_final), to rounding.  The drift is
    taken over the band nodes of the dealiased transform grid (see
    :class:`TimeSeries`).  The run is one step of length
    ``t_final``: the integrating factor is exact at any step, so each a_l is
    multiplied once by E_l = exp(-nu l(l+1) t_final), rounded once.
    """
    if p.k2 != 0.0:
        raise ValueError("only the k2 = 0 family is admissible on the sphere")
    if not (math.isfinite(t_final) and t_final >= 0.0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if t_final == 0.0:
        return 0.0
    cfg = EvolutionConfig(nu=nu, dt=t_final, steps=1, lmax=lmax)
    series = evolve(project_vortex_pair(p, lmax), cfg)
    return float(series.drift[-1])


def write_time_series(series: TimeSeries, path) -> None:
    """CSV serialization with header t,energy,enstrophy,max_omega,drift."""
    columns = (series.times, series.energy, series.enstrophy, series.max_omega, series.drift)
    _write_csv(path, "t,energy,enstrophy,max_omega,drift", zip(*columns))
