"""Numerical corroboration of the identities behind the vortex-pair flow.

Each check evaluates one identity on a pole-excluding colatitude band
(default theta in [pi/8, 7*pi/8], the vortex cores are singular) and returns
an immutable :class:`CheckReport`.  Checks are independent and pure.

Numerical differentiation of profile functions uses centered fourth-order
stencils with step 1e-4; the check suite scales it by |k1|, the scale of the
vorticity values Phi is differentiated in.  At that step the cancellation
floor of a second-derivative stencil in double precision sits near 3e-8
times the function scale, so profile callables are evaluated on
extended-precision abscissae; callables built from numpy ufuncs preserve
that dtype.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import exact, operators, spharm
from .grid import (
    DEFAULT_BAND,
    Grid,
    GridSpec,
    ScalarField,
    _check_band,
    _write_csv,
    band_max,
    build_grid,
    mercator_of_colatitude,
)

_FD_STEP = 1e-4

#: Bounds on |k1| accepted by :func:`run_all_checks`.  The suite passes for
#: |k1| from about 1e-157, below which k1^2 in Phi loses its digits to
#: subnormal underflow, to about 4e153, above which the squared gradients of
#: the profile-relation check overflow; the bounds keep three decades of margin.
K1_RANGE = (1e-150, 1e150)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check.

    ``band`` holds the domain actually used: a colatitude interval for grid
    checks, the sample range of the profile variable otherwise.  Every
    report comes from :meth:`from_residual`, whose ``passed`` is
    ``max_abs_residual <= tolerance`` and the check's own ``condition``:
    mercator-obstruction passes it only if the obstruction exceeds 0.5
    somewhere on its samples, and zonal-consistency only if psi is monotone
    with distinct values on its first and last rows.  So a report can fail
    under a passing residual, never pass over a failing one.  The residual
    of harmonic-nullspace is the largest |dim ker - 1| over its truncations.
    """

    name: str
    max_abs_residual: float
    nlat: int
    nlon: int
    band: tuple[float, float]
    tolerance: float
    passed: bool

    @staticmethod
    def from_residual(
        name, residual, nlat, nlon, band, tolerance, condition=True
    ) -> "CheckReport":
        residual = float(residual)
        return CheckReport(
            name=name,
            max_abs_residual=residual,
            nlat=nlat,
            nlon=nlon,
            band=(float(band[0]), float(band[1])),
            tolerance=float(tolerance),
            passed=residual <= tolerance and bool(condition),
        )


def check_vanishing_jacobian(
    psi: ScalarField,
    omega: ScalarField,
    band=DEFAULT_BAND,
    tolerance: float = 1e-10,
) -> CheckReport:
    """Max |psi_phi omega_theta - psi_theta omega_phi| over the band.

    Zero (to rounding) for zonal pairs and for functionally dependent pairs;
    order-one for generically misaligned gradients.
    """
    residual = band_max(operators.jacobian(psi, omega), band)
    g = psi.grid
    return CheckReport.from_residual(
        "vanishing-jacobian", residual, g.nlat, g.nlon, band, tolerance
    )


def check_harmonic_vorticity(
    omega: ScalarField, band=DEFAULT_BAND, tolerance: float = 1e-6, scale: float = 1.0
) -> CheckReport:
    """Max |lap(omega)| / ``scale`` over the band; the vortex-pair profile is harmonic there."""
    residual = band_max(operators.laplace_beltrami_fd(omega), band) / scale
    g = omega.grid
    return CheckReport.from_residual(
        "harmonic-vorticity", residual, g.nlat, g.nlon, band, tolerance
    )


def global_harmonic_nullspace(lmax: int) -> int:
    """Dimension of the kernel of the spectral Laplacian truncated at lmax.

    Always 1 (the constants): every l >= 1 eigenvalue -l(l+1) is negative, so
    a globally smooth harmonic field is constant, and the zero-total-vorticity
    constraint forces that constant to vanish.  Nontrivial harmonic vorticity
    must therefore be singular somewhere, as the pole vortices are.
    """
    if lmax < 1:
        raise ValueError("lmax must be at least 1")
    eigen = spharm.laplacian_eigenvalues(lmax)[:, 0]
    orders = 2 * np.arange(lmax + 1) + 1  # degree l holds the orders |m| <= l
    return int(orders[np.abs(eigen) < 0.5].sum())


def _fourth_order_d1(values: np.ndarray, h: float) -> np.ndarray:
    return (-values[4:] + 8.0 * values[3:-1] - 8.0 * values[1:-3] + values[:-4]) / (12.0 * h)


def gradient_modulus_ode_residual(
    phi_func, omega_samples: np.ndarray, step: float = _FD_STEP
) -> np.ndarray:
    """Signed residual (Phi'/Phi)' * Phi - 2 at the given profile values.

    Derivatives come from centered fourth-order stencils; the callable is
    evaluated on extended-precision abscissae to keep the cancellation floor
    of the second-derivative stencil below the 1e-8 tolerances used here.
    """
    w = np.asarray(omega_samples, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValueError("need at least one sample")
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0], dtype=np.longdouble)
    abscissae = w.astype(np.longdouble)[None, :] + np.longdouble(step) * offsets[:, None]
    phi = np.asarray(phi_func(abscissae), dtype=np.longdouble)
    if np.any(phi <= 0.0):
        raise ValueError("Phi must be positive on the sampled range")
    d1 = _fourth_order_d1(phi, np.longdouble(step))[0]
    d2 = (-phi[4] + 16.0 * phi[3] - 30.0 * phi[2] + 16.0 * phi[1] - phi[0]) / (
        12.0 * np.longdouble(step) ** 2
    )
    # (Phi'/Phi)' Phi = Phi'' - Phi'^2 / Phi
    return (d2 - d1 * d1 / phi[2] - 2.0).astype(np.float64)


def check_gradient_modulus_ode(
    phi_func,
    omega_samples: np.ndarray,
    step: float = _FD_STEP,
    tolerance: float = 1e-8,
) -> CheckReport:
    """Residual of (Phi'/Phi)' * Phi = 2 at the given profile values.

    ``phi_func`` maps vorticity values to the squared conformal gradient
    modulus.  Phi = k^2 cosh^2(omega/k), realized by the vortex pair,
    satisfies the equation exactly; any pure exponential A e^{B omega}
    instead leaves the constant residual -2.
    """
    w = np.asarray(omega_samples, dtype=np.float64).ravel()
    residual = np.max(np.abs(gradient_modulus_ode_residual(phi_func, w, step)))
    return CheckReport.from_residual(
        "gradient-modulus-ode", residual, w.size, 1, (w.min(), w.max()), tolerance
    )


def check_mercator_obstruction(
    chi_samples: np.ndarray,
    step: float = 1e-3,
    tolerance: float = 1e-6,
) -> CheckReport:
    """Conformal-harmonicity obstruction of log(sin theta).

    Verifies that the plain (chi, phi) Laplacian of log(sech chi) equals
    -sech^2(chi), a quantity bounded away from zero near the equator, so
    log(sin theta) cannot be the real part of any analytic function of
    chi + i phi.  Fails if the identity residual exceeds ``tolerance`` or the
    obstruction never reaches 0.5 on the sampled range.
    """
    samples = np.asarray(chi_samples, dtype=np.float64).ravel()
    if np.max(np.abs(samples), initial=0.0) > 10.0:
        raise ValueError("samples must satisfy |chi| <= 10")
    lo = float(samples.min()) - 2.0 * step
    hi = float(samples.max()) + 2.0 * step
    n = int(round((hi - lo) / step)) + 1
    chi = lo + step * np.arange(n)
    nphi = 4
    values = np.repeat(np.log(1.0 / np.cosh(chi))[:, None], nphi, axis=1)
    lap = operators.mercator_laplacian(values, step, 2.0 * np.pi / nphi)
    obstruction = 1.0 / np.cosh(chi) ** 2
    residual = np.max(np.abs(lap[1:-1, 0] + obstruction[1:-1]))
    return CheckReport.from_residual(
        "mercator-obstruction", residual, n, nphi, (lo, hi), tolerance,
        condition=obstruction.max() > 0.5,
    )


def check_functional_relation_identities(
    p: exact.VortexPairParams,
    ntheta: int = 4096,
    band=DEFAULT_BAND,
    tolerance: float = 1e-4,
) -> CheckReport:
    """Gradient identities of the vorticity-streamfunction profile relation.

    Writing the zonal relation omega = G(psi) and differentiating it along
    the profile gives

        |grad psi|^2 * G'' = G * G'      and
        |grad omega|^2 * G'' = G * G'^3,

    both of which the vortex pair satisfies.  G is reconstructed numerically
    from profile samples (psi(theta) is strictly monotone), differentiated by
    fourth-order stencils; each residual is normalized by the band maximum
    of its right-hand side, and the report carries the larger of the two.
    No grid is built: the profile is sampled on ``ntheta`` nodes of ``band``.
    """
    if p.k1 == 0.0:
        raise ValueError("profile relation needs k1 != 0")
    thetas = np.linspace(band[0], band[1], ntheta)
    psi = exact.streamfunction_profile(thetas, p)
    omega = exact.vorticity_profile(thetas, p)
    dpsi = np.diff(psi)
    if not (np.all(dpsi > 0.0) or np.all(dpsi < 0.0)):
        raise ValueError("streamfunction profile is not monotone; cannot invert psi(theta)")
    h = thetas[1] - thetas[0]
    psi_t = _fourth_order_d1(psi, h)  # nodes 2..n-3
    omega_t = _fourth_order_d1(omega, h)
    g_prime = omega_t / psi_t
    gpp = _fourth_order_d1(g_prime, h) / psi_t[2:-2]  # nodes 4..n-5
    gp = g_prime[2:-2]
    rhs_a = omega[4:-4] * gp
    res_a = np.max(np.abs(psi_t[2:-2] ** 2 * gpp - rhs_a)) / np.max(np.abs(rhs_a))
    rhs_b = omega[4:-4] * gp**3
    res_b = np.max(np.abs(omega_t[2:-2] ** 2 * gpp - rhs_b)) / np.max(np.abs(rhs_b))
    residual = max(float(res_a), float(res_b))
    return CheckReport.from_residual(
        "functional-relation-identities", residual, ntheta, 1, band, tolerance
    )


def check_zonal_consistency(p: exact.VortexPairParams, tolerance: float = 1e-12) -> CheckReport:
    """The step that forces zonal symmetry: sin^2(theta) as a function of psi.

    On each hemisphere psi(theta) is strictly monotone, so sin^2(theta) is a
    single-valued function of psi there, while the full-sphere map is
    two-to-one across the equator.  The longitude derivative of the sampled
    sin^2 field (and of psi itself) is exactly zero on the check's own
    128 x 16 Gauss-Legendre grid, which is the zonal branch of the dichotomy.
    """
    if p.k1 == 0.0:
        raise ValueError("needs k1 != 0")
    grid = build_grid(GridSpec(nlat=128, nlon=16))
    sin_sq = ScalarField(grid, np.repeat((grid.sin_thetas**2)[:, None], grid.nlon, axis=1))
    psi_field = exact.streamfunction_field(p, grid)
    residual = max(
        float(np.max(np.abs(operators.longitude_derivative(sin_sq).values))),
        float(np.max(np.abs(operators.longitude_derivative(psi_field).values))),
    )
    psi_profile = psi_field.values[:, 0]
    north = grid.thetas < 0.5 * np.pi
    south = grid.thetas > 0.5 * np.pi
    monotone = np.all(np.diff(psi_profile) > 0.0) or np.all(np.diff(psi_profile) < 0.0)
    # mirrored rows share sin^2 but not psi: the map is 2-to-1 across hemispheres;
    # psi scales with k1, and so does the separation test
    separated = not np.isclose(
        psi_profile[north][0], psi_profile[south][-1], rtol=0.0, atol=1e-9 * abs(p.k1)
    )
    band = (grid.thetas[0], grid.thetas[-1])
    return CheckReport.from_residual(
        "zonal-consistency", residual, grid.nlat, grid.nlon, band, tolerance,
        condition=monotone and separated,
    )


def vortex_pair_fields(p: exact.VortexPairParams, grid: Grid):
    """Convenience pair (psi, omega) sampled on one grid."""
    return exact.streamfunction_field(p, grid), exact.vorticity_field(p, grid)


def run_all_checks(
    nlat: int = 256,
    nlon: int = 128,
    kind: str = "gauss-legendre",
    p: exact.VortexPairParams | None = None,
    band=DEFAULT_BAND,
    lmax: int = 64,
    ntheta: int = 4096,
    phi_model: str = "cosh2",
) -> list[CheckReport]:
    """Run the whole check suite at one resolution, in a fixed report order.

    ``phi_model`` selects the candidate gradient-modulus function: "cosh2"
    (the one realized by the flow, passes) or "exp" (the pure exponential
    1.5 k1^2 exp(omega / (2 |k1|)), which must fail with residual -2).  The
    suite does not depend on the scale of k1: omega and
    Phi = k1^2 cosh^2(omega/k1) are functions of omega/k1, so the harmonic
    residual is divided by |k1| and the Phi stencil takes the step
    1e-4 * |k1|; at k1 = +-1 both are unchanged.  A |k1| outside
    :data:`K1_RANGE` raises ValueError before any check runs, and so does a
    band with a NaN end or with band[0] >= band[1].
    """
    _check_band(band)
    if p is None:
        p = exact.VortexPairParams(k1=1.0, k2=0.0)
    if p.k2 != 0.0:
        raise ValueError(
            "the check suite corroborates the admissible vortex pair; needs k2 = 0"
        )
    lo, hi = K1_RANGE
    if not lo <= abs(p.k1) <= hi:
        raise ValueError(
            f"|k1| = {abs(p.k1):.3g} is outside [{lo:g}, {hi:g}], "
            "the range over which the check suite holds in double precision"
        )
    grid = build_grid(GridSpec(nlat=nlat, nlon=nlon, kind=kind))
    psi, omega = vortex_pair_fields(p, grid)
    # grid checks honor the requested band; profile-parameter checks sample
    # its pole-excluded core, since their tolerance budgets assume moderate
    # profile values (the vorticity diverges at the cores)
    core = (max(band[0], DEFAULT_BAND[0]), min(band[1], DEFAULT_BAND[1]))
    if core[0] >= core[1]:
        raise ValueError("band does not intersect the pole-excluded core")
    omega_core = exact.vorticity_profile(np.linspace(core[0], core[1], 257), p)
    if phi_model == "cosh2":
        phi_func = lambda w: exact.gradient_modulus_function(w, p)
    elif phi_model == "exp":
        phi_func = lambda w: 1.5 * p.k1**2 * np.exp(0.5 * w / abs(p.k1))
    else:
        raise ValueError(f"unknown phi model {phi_model!r}")
    chi_lo = max(mercator_of_colatitude(band[0]), -10.0)
    chi_hi = min(mercator_of_colatitude(band[1]), 10.0)
    # how far any truncated kernel is from the constants alone
    nullspace_excess = max(abs(global_harmonic_nullspace(L) - 1) for L in (1, 20, lmax))
    return [
        check_vanishing_jacobian(psi, omega, band=band),
        check_harmonic_vorticity(omega, band=band, scale=abs(p.k1)),
        check_gradient_modulus_ode(phi_func, omega_core, step=_FD_STEP * abs(p.k1)),
        check_mercator_obstruction(np.linspace(chi_lo, chi_hi, 101)),
        check_functional_relation_identities(p, ntheta=ntheta, band=core),
        check_zonal_consistency(p),
        CheckReport.from_residual(
            "harmonic-nullspace", nullspace_excess, lmax, 1, (1.0, lmax), 0.5
        ),
    ]


def write_reports(reports, path) -> None:
    """CSV rows name,nlat,nlon,band_lo,band_hi,max_abs_residual,tolerance,pass."""
    rows = [
        (r.name, r.nlat, r.nlon, *r.band, r.max_abs_residual, r.tolerance, str(r.passed).lower())
        for r in reports
    ]
    _write_csv(path, "name,nlat,nlon,band_lo,band_hi,max_abs_residual,tolerance,pass", rows)
