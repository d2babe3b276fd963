"""The antipodal point-vortex pair, the stationary flow shared by the viscous
and inviscid vorticity equations on the unit sphere.

The family is zonal with vorticity

    omega(theta) = k1 * log(tan(theta/2)) + k2,

two opposite point vortices at the poles (k1) plus a constant offset (k2).
Only k2 = 0 is admissible on the closed surface, since the total vorticity
equals 4*pi*k2.  The azimuthal velocity follows from the sign conventions
pinned in :mod:`sphereflow.operators` (u_phi = -psi', -lap(psi) = omega):

    u_phi(theta) = k1 * I(theta) / sin(theta),
    I(theta) = int_0^theta sin(t) log(tan(t/2)) dt
             = log(sin(theta)) - cos(theta) log(tan(theta/2)) - log(2)
             = s^2 log(s^2) + c^2 log(c^2),  s = sin(theta/2), c = cos(theta/2),

continuous with limit 0 at both poles and extremal at the equator, where
u_phi = -k1*log(2).  The last form is a sum of two terms <= 0, so no digits
cancel; with a = min(s, c) and b = max(s, c) it is evaluated as
2 a^2 log(a) + b^2 log1p(-a^2), which keeps full precision at either pole
down to theta ~ 3e-154; below that a^2 underflows, and u_phi raises.

The streamfunction psi = -int_0^theta u_phi, gauged to 0 at the north pole,
has a closed form through the dilogarithm Li2.  With chi = log(tan(theta/2)),
a = |chi|, q = exp(-2a) and

    h(a) = a*log(1 + q) - Li2(-q),

psi = k1*h on the north hemisphere (chi <= 0) and psi = k1*(pi^2/6 - h) on
the south, so psi(pi/2) = k1*pi^2/12 and psi spans k1*pi^2/6 from pole to
pole.  This is the chi-form of the integral rearranged with the inversion
Li2(-x) + Li2(-1/x) = -pi^2/6 - log^2(x)/2, which removes a -chi^2
cancellation at the poles.  Li2(-q) comes from its Bernoulli series in
w = -log1p(q),

    Li2(-q) = w - w^2/4 + sum_k B_2k w^(2k+1) / (2k+1)!,

and since |w| <= log(2) on 0 <= q <= 1, eight odd terms reach double
precision for every q, the smallest included.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .grid import Grid, ScalarField
from .operators import VelocityField

# below this colatitude sin^2(theta/2) is subnormal and u_phi loses its digits
_VELOCITY_THETA_MIN = 2.0 * math.asin(math.sqrt(np.finfo(np.float64).tiny))

# B_2k / (2k+1)! for k = 1..8, the odd terms of the Bernoulli series of Li2
_DILOG_BERNOULLI = (
    1 / 36, -1 / 3600, 1 / 211680, -1 / 10886400, 1 / 526901760,
    -691 / 16999766784000, 1 / 1120863744000, -3617 / 181400588328960000,
)

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


def _velocity_integral(t: np.ndarray) -> np.ndarray:
    """I(theta) = 2 a^2 log(a) + b^2 log1p(-a^2), a, b = min, max of sin, cos(theta/2)."""
    s, c = np.sin(0.5 * t), np.cos(0.5 * t)
    a, b = np.minimum(s, c), np.maximum(s, c)
    return 2.0 * a * a * np.log(a) + b * b * np.log1p(-a * a)


def azimuthal_velocity(theta, p: VortexPairParams):
    """u_phi(theta) = k1 * I(theta) / sin(theta); symmetric about the equator.

    Only the vortex-pair part enters: a nonzero offset k2 has no globally
    defined streamfunction on a closed surface (its total vorticity cannot
    vanish), so the velocity of the family is the k1 part alone.  A theta
    below 3e-154, where sin^2(theta/2) underflows, raises ValueError.
    """
    t = np.asarray(theta, dtype=np.float64)
    _check_interior(t)
    if np.any(t < _VELOCITY_THETA_MIN):
        raise ValueError(
            f"u_phi needs theta >= {_VELOCITY_THETA_MIN:.17g}, "
            "below which sin^2(theta/2) underflows"
        )
    u = p.k1 * _velocity_integral(t) / np.sin(t)
    return float(u) if t.ndim == 0 else u


def _neg_dilog(q: np.ndarray) -> np.ndarray:
    """Li2(-q) for 0 <= q <= 1, from the Bernoulli series in w = -log1p(q)."""
    w = -np.log1p(q)
    w2 = w * w
    tail = np.zeros_like(w)
    for coeff in reversed(_DILOG_BERNOULLI):
        tail = coeff + w2 * tail
    return w - 0.25 * w2 + w * w2 * tail


def streamfunction_profile(theta, p: VortexPairParams):
    """psi(theta) = -int_0^theta u_phi(s) ds, gauged so psi -> 0 at the north pole.

    Closed form: psi = k1*h(a) for theta <= pi/2 and k1*(pi^2/6 - h(a))
    beyond, with a = |log(tan(theta/2))|, q = exp(-2a) and
    h(a) = a*log(1 + q) - Li2(-q), both terms >= 0.  Li2(-q) is the
    Bernoulli series in w = -log1p(q), |w| <= log(2), whose eight odd terms
    hold it to double precision for every 0 <= q <= 1.  psi is monotone
    with pole-to-pole span k1*pi^2/6 and equator value k1*pi^2/12.
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
