"""The antipodal point-vortex pair, the stationary flow shared by the viscous
and inviscid vorticity equations on the unit sphere.

The family is zonal with vorticity

    omega(theta) = k1 * log(tan(theta/2)) + k2,

two opposite point vortices at the poles (k1) plus a constant offset (k2).
Only k2 = 0 is admissible on the closed surface, since the total vorticity
equals 4*pi*k2.  The azimuthal velocity follows from the sign conventions
pinned in :mod:`sphereflow.operators` (u_phi = -psi', -lap(psi) = omega):

    u_phi(theta) = k1 * I(theta) / sin(theta),
    I(theta) = int_0^theta sin(s) log(tan(s/2)) ds
             = log(sin(theta)) - cos(theta) log(tan(theta/2)) - log(2),

continuous with limit 0 at both poles and extremal at the equator, where
u_phi = -k1*log(2).

The streamfunction psi = -int_0^theta u_phi, gauged to 0 at the north pole,
has a closed form through the dilogarithm Li2.  With chi = log(tan(theta/2)),
a = |chi|, q = exp(-2a) and

    h(a) = a*log(1 + q) - Li2(-q),

psi = k1*h on the north hemisphere (chi <= 0) and psi = k1*(pi^2/6 - h) on
the south, so psi(pi/2) = k1*pi^2/12 and psi spans k1*pi^2/6 from pole to
pole.  This is the chi-form of the integral rearranged with the inversion
Li2(-x) + Li2(-1/x) = -pi^2/6 - log^2(x)/2, which removes a -chi^2
cancellation at the poles.  Li2(-q) = spence(1 + q) loses q's low digits
to the rounding of 1 + q, so below q = 1/8 the power series
sum_k (-q)^k/k^2 takes over.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import spence

from .grid import Grid, ScalarField
from .operators import VelocityField

# below this distance from a pole the closed form for I(theta) loses digits
# to cancellation; switch to its series
_SERIES_THRESHOLD = 1e-4

# below this q the dilogarithm Li2(-q) comes from its power series; at
# q = 1/8 the 20-term truncation error is below 1e-20 relative
_DILOG_SERIES_Q = 0.125
_DILOG_SERIES_TERMS = 20

#: Catalan's constant G = sum_k (-1)^k / (2k+1)^2.
CATALAN = 0.91596559417721901505


@dataclasses.dataclass(frozen=True)
class VortexPairParams:
    """Strength k1 of the pole vortex pair and constant vorticity offset k2."""

    k1: float
    k2: float = 0.0

    def __post_init__(self):
        for name in ("k1", "k2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def _check_interior(theta: np.ndarray) -> None:
    if not np.all(np.isfinite(theta)):
        raise ValueError("colatitude must be finite; got NaN or infinity")
    if np.any(theta <= 0.0) or np.any(theta >= np.pi):
        raise ValueError("profile is singular at the poles; need 0 < theta < pi")


def vorticity_profile(theta, p: VortexPairParams):
    """omega(theta) = k1*log(tan(theta/2)) + k2, antisymmetric about the equator for k2 = 0."""
    t = np.asarray(theta, dtype=np.float64)
    _check_interior(t)
    omega = p.k1 * np.log(np.tan(0.5 * t)) + p.k2
    return float(omega) if t.ndim == 0 else omega


def _velocity_integral_closed(t: np.ndarray) -> np.ndarray:
    return np.log(np.sin(t)) - np.cos(t) * np.log(np.tan(0.5 * t)) - math.log(2.0)


def _velocity_integral_series(t: np.ndarray) -> np.ndarray:
    # I(theta) for theta near 0, exploiting I(pi - t) = I(t); error O(t^6 log t)
    log_half = np.log(0.5 * t)
    return 0.5 * t**2 * log_half - 0.25 * t**2 + t**4 * (1.0 / 32.0 - log_half / 24.0)


def _velocity_integral(t: np.ndarray) -> np.ndarray:
    """I(theta) with the near-pole series taking over below the threshold."""
    near = np.minimum(t, np.pi - t)
    out = np.empty_like(t)
    use_series = near < _SERIES_THRESHOLD
    if np.any(use_series):
        out[use_series] = _velocity_integral_series(near[use_series])
    if np.any(~use_series):
        out[~use_series] = _velocity_integral_closed(t[~use_series])
    return out


def azimuthal_velocity(theta, p: VortexPairParams):
    """u_phi(theta) = k1 * I(theta) / sin(theta); symmetric about the equator.

    Only the vortex-pair part enters: a nonzero offset k2 has no globally
    defined streamfunction on a closed surface (its total vorticity cannot
    vanish), so the velocity of the family is the k1 part alone.
    """
    t = np.asarray(theta, dtype=np.float64)
    _check_interior(t)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    u = p.k1 * _velocity_integral(t) / np.sin(t)
    return float(u[0]) if scalar else u


def _neg_dilog(q: np.ndarray) -> np.ndarray:
    """Li2(-q) for 0 <= q <= 1."""
    series = np.zeros_like(q)
    for k in range(_DILOG_SERIES_TERMS, 0, -1):
        series = 1.0 / k**2 - q * series
    return np.where(q < _DILOG_SERIES_Q, -q * series, spence(1.0 + q))


def streamfunction_profile(theta, p: VortexPairParams):
    """psi(theta) = -int_0^theta u_phi(s) ds, gauged so psi -> 0 at the north pole.

    Closed form: psi = k1*h(a) for theta <= pi/2 and k1*(pi^2/6 - h(a))
    beyond, with a = |log(tan(theta/2))|, q = exp(-2a) and
    h(a) = a*log(1 + q) - Li2(-q).  Li2(-q) is spence(1 + q), replaced by
    its power series below q = 1/8 where 1 + q would round q away.  psi is
    monotone with pole-to-pole span k1*pi^2/6 and equator value k1*pi^2/12.
    """
    t = np.asarray(theta, dtype=np.float64)
    _check_interior(t)
    tan_half = np.tan(0.5 * t)
    north = tan_half <= 1.0
    # r = exp(-a), so q = r^2 keeps full relative precision near the poles
    r = np.where(north, tan_half, 1.0 / tan_half)
    q = r * r
    h = -np.log(r) * np.log1p(q) - _neg_dilog(q)
    psi = p.k1 * np.where(north, h, math.pi**2 / 6.0 - h)
    return float(psi) if t.ndim == 0 else psi


def hemisphere_vorticity_integral(
    p: VortexPairParams, hemisphere: str, area_element: bool = True
) -> float:
    """Vorticity integral over one hemisphere.

    With the area element sin(theta) dtheta dphi (the default) the north and
    south values are -+ 2*pi*log(2) * k1 + 2*pi*k2 and always sum to the total
    4*pi*k2.  ``area_element=False`` integrates the bare dtheta dphi measure
    instead, which changes the k1 part to -+ 4*pi*G (Catalan's constant)
    and the k2 part to pi^2 * k2.  Both are closed forms:
    int_0^{pi/2} log tan(t/2) sin t dt = -log 2 and
    int_0^{pi/2} log tan(t/2) dt = -2G, and the south half flips their sign.
    """
    if hemisphere == "north":
        sign = -1.0
    elif hemisphere == "south":
        sign = 1.0
    else:
        raise ValueError(f"hemisphere must be 'north' or 'south', got {hemisphere!r}")
    if area_element:
        return 2.0 * math.pi * (sign * math.log(2.0) * p.k1 + p.k2)
    return sign * 4.0 * math.pi * CATALAN * p.k1 + math.pi**2 * p.k2


def gradient_modulus_function(omega, p: VortexPairParams):
    """|grad omega|^2 / sin^2(theta) expressed as a function of omega.

    Along the vortex-pair profile (k2 = 0) the vorticity equals k1 * chi, so
    the squared gradient in conformal coordinates is k1^2 and the conformal
    factor gives k1^2 * cosh^2(omega/k1).
    """
    if p.k1 == 0.0 or p.k2 != 0.0:
        raise ValueError("defined only for k1 != 0 and k2 = 0")
    # keep the caller's float dtype: the ODE check feeds extended precision
    w = np.asarray(omega)
    if not np.issubdtype(w.dtype, np.floating):
        w = w.astype(np.float64)
    phi = p.k1**2 * np.cosh(w / p.k1) ** 2
    return float(phi) if w.ndim == 0 else phi


def vorticity_field(p: VortexPairParams, grid: Grid) -> ScalarField:
    """Sample omega(theta) onto a grid (constant along each latitude row)."""
    profile = vorticity_profile(grid.thetas, p)
    return ScalarField(grid, np.repeat(profile[:, None], grid.nlon, axis=1))


def streamfunction_field(p: VortexPairParams, grid: Grid) -> ScalarField:
    profile = streamfunction_profile(grid.thetas, p)
    return ScalarField(grid, np.repeat(profile[:, None], grid.nlon, axis=1))


def velocity_field(p: VortexPairParams, grid: Grid) -> VelocityField:
    profile = azimuthal_velocity(grid.thetas, p)
    u_phi = np.repeat(profile[:, None], grid.nlon, axis=1)
    return VelocityField(grid=grid, u_theta=np.zeros_like(u_phi), u_phi=u_phi)
