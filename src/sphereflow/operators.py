"""Pointwise differential operators on sphere grids.

Sign conventions, used consistently everywhere in this package:

    u_theta = (1/sin(theta)) dpsi/dphi
    u_phi   = -dpsi/dtheta
    omega   = curl_r(u) = (1/sin(theta)) [d(sin(theta) u_phi)/dtheta - du_theta/dphi]
            = -lap(psi)

Longitude derivatives are centered and periodic.  Colatitude stencils follow
one three-point rule on any node placement: row i differentiates the quadratic
through the nodes around its center c = min(max(i, 1), n-2), so an end row uses
its neighbour's nodes, and a second derivative's end rows equal their neighbours'.
The Laplace-Beltrami operator is discretized in the conformal latitude
chi = log(tan(theta/2)), where it reduces to a plain Laplacian scaled by
1/sin^2(theta).  This keeps the stencil second-order on any node placement
and makes it exact on functions linear in chi, in particular on the
vortex-pair vorticity profile.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .grid import Grid, ScalarField, _readonly, _same_nodes


@dataclasses.dataclass(frozen=True)
class VelocityField:
    """Tangential velocity components on a :class:`Grid`."""

    grid: Grid
    u_theta: np.ndarray
    u_phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_theta", _readonly(self.u_theta))
        object.__setattr__(self, "u_phi", _readonly(self.u_phi))
        shape = (self.grid.nlat, self.grid.nlon)
        if self.u_theta.shape != shape or self.u_phi.shape != shape:
            raise ValueError("velocity component shapes do not match the grid")
        if not (np.all(np.isfinite(self.u_theta)) and np.all(np.isfinite(self.u_phi))):
            raise ValueError("velocity components must be finite on a pole-free grid")


def _require_same_grid(a, b) -> Grid:
    if not _same_nodes(a.grid, b.grid):
        raise ValueError("fields live on different grids")
    return a.grid


def _periodic_neighbours(n: int):
    """(next, here, prev) column slices that cover the n longitudes once, periodic in n.

    A stencil written through them into one output array needs no shifted
    copy of its input.  Any n >= 1 works: at n = 1 and 2 the interior slices
    are empty and both neighbours of a column are one and the same column.
    """
    return (
        (slice(2, None), slice(1, n - 1), slice(0, n - 2)),
        (slice(1 % n, 1 % n + 1), slice(0, 1), slice(n - 1, n)),
        (slice(0, 1), slice(n - 1, n), slice((n - 2) % n, (n - 2) % n + 1)),
    )


def _dphi_values(values: np.ndarray, dphi: float) -> np.ndarray:
    """Centered periodic longitude derivative; exactly zero on zonal rows."""
    out = np.empty_like(values)
    for nxt, here, prev in _periodic_neighbours(values.shape[1]):
        np.subtract(values[:, nxt], values[:, prev], out=out[:, here])
    out /= 2.0 * dphi
    return out


def _d2phi_values(values: np.ndarray, dphi: float) -> np.ndarray:
    """Periodic second longitude difference ((f_+ - 2 f_0) + f_-) / dphi^2."""
    out = np.empty_like(values)
    for nxt, here, prev in _periodic_neighbours(values.shape[1]):
        o = out[:, here]
        np.multiply(values[:, here], 2.0, out=o)
        np.subtract(values[:, nxt], o, out=o)
        np.add(o, values[:, prev], out=o)
    out /= dphi**2
    return out


def _three_point_weights(x: np.ndarray, order: int):
    """Outer weights (c_-, c_+) of the order-1 or order-2 derivative at each node x_i.

    Row i differentiates the quadratic through x_{c-1}, x_c, x_{c+1}, with
    c = min(max(i, 1), n-2), at x_i: the three-point case of Fornberg (1988).
    """
    c = np.clip(np.arange(x.size), 1, x.size - 2)
    a = x[c] - x[c - 1]
    b = x[c + 1] - x[c]
    if order == 1:
        d = x - x[c]
        return (2.0 * d - b) / (a * (a + b)), (a + 2.0 * d) / (b * (a + b))
    return 2.0 / (a * (a + b)), 2.0 / (b * (a + b))


def _apply_row_stencil(values: np.ndarray, weights) -> np.ndarray:
    # c_- (f_- - f_0) + c_+ (f_+ - f_0) about each row's center: the center
    # weight is implied, and constant fields map to exact zero
    cm, cp = (w[:, None] for w in weights)
    out = np.empty_like(values)
    # an end row is centered on its neighbour, so it takes that row's nodes
    for i, c in ((0, 1), (-1, -2)):
        out[i] = cm[i] * (values[c - 1] - values[c]) + cp[i] * (values[c + 1] - values[c])
    # in place, with one temporary: each large temporary can cost fresh pages
    inner = np.subtract(values[:-2], values[1:-1], out=out[1:-1])
    inner *= cm[1:-1]
    upper = values[2:] - values[1:-1]
    upper *= cp[1:-1]
    inner += upper
    return out


def longitude_derivative(f: ScalarField) -> ScalarField:
    """d f / d phi by centered periodic differences."""
    return ScalarField(f.grid, _dphi_values(f.values, f.grid.dphi))


def velocity_from_streamfunction(psi: ScalarField) -> VelocityField:
    """Rotated surface gradient of the streamfunction, differentiated on the grid.

    Exact derivatives of a truncated spectral expansion come from
    :func:`sphereflow.spharm.synthesize_gradient` instead.
    """
    g = psi.grid
    dpsi_dphi = _dphi_values(psi.values, g.dphi)
    dpsi_dtheta = _apply_row_stencil(psi.values, _three_point_weights(g.thetas, 1))
    s = g.sin_thetas[:, None]
    return VelocityField(grid=g, u_theta=dpsi_dphi / s, u_phi=-dpsi_dtheta)


def vorticity_from_velocity(u: VelocityField) -> ScalarField:
    """Radial curl (1/sin)[d(sin u_phi)/dtheta - du_theta/dphi]."""
    g = u.grid
    s = g.sin_thetas[:, None]
    curl = _apply_row_stencil(s * u.u_phi, _three_point_weights(g.thetas, 1))
    return ScalarField(g, (curl - _dphi_values(u.u_theta, g.dphi)) / s)


def laplace_beltrami_fd(f: ScalarField) -> ScalarField:
    """Second-order Laplace-Beltrami operator on the grid.

    Computed as (1/sin^2) (d^2/dchi^2 + d^2/dphi^2) with three-point stencils
    over the node images chi_i = log(tan(theta_i/2)); equivalent to the
    divergence form (1/sin) d/dtheta (sin d/dtheta) + (1/sin^2) d^2/dphi^2.
    """
    g = f.grid
    d2chi = _apply_row_stencil(f.values, _three_point_weights(g.chis, 2))
    d2phi = _d2phi_values(f.values, g.dphi)
    return ScalarField(g, (d2chi + d2phi) / g.sin_thetas[:, None] ** 2)


def jacobian(psi: ScalarField, omega: ScalarField) -> ScalarField:
    """Advection bracket psi_phi * omega_theta - psi_theta * omega_phi.

    The metric prefactor 1/sin(theta) is left to the caller (see
    :func:`ns_residual`).  Identically zero when both fields are zonal,
    because the longitude differences vanish exactly.
    """
    g = _require_same_grid(psi, omega)
    dtheta = _three_point_weights(g.thetas, 1)
    bracket = _dphi_values(psi.values, g.dphi) * _apply_row_stencil(
        omega.values, dtheta
    ) - _apply_row_stencil(psi.values, dtheta) * _dphi_values(omega.values, g.dphi)
    return ScalarField(g, bracket)


def ns_residual(psi: ScalarField, omega: ScalarField, nu: float) -> ScalarField:
    """Stationary vorticity-equation residual (1/sin) J(psi, omega) - nu * lap(omega).

    A zero field means the pair is a stationary solution at the discrete
    level; nu = 0 gives the inviscid residual.
    """
    if not (math.isfinite(nu) and nu >= 0.0):
        raise ValueError(f"viscosity must be finite and nonnegative, got {nu}")
    g = _require_same_grid(psi, omega)
    adv = jacobian(psi, omega).values / g.sin_thetas[:, None]
    if nu == 0.0:
        return ScalarField(g, adv)
    return ScalarField(g, adv - nu * laplace_beltrami_fd(omega).values)


def mercator_laplacian(values: np.ndarray, chi_step: float, phi_step: float) -> np.ndarray:
    """Five-point Laplacian on a uniform (chi, phi) rectangle, periodic in phi.

    Relates to :func:`laplace_beltrami_fd` through the conformal factor:
    sin^2(theta) * lap(f) equals this operator with sin(theta) = sech(chi).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 3:
        raise ValueError("need a 2-D sample array with at least 3 chi rows")
    out = np.empty_like(v)
    out[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
    out[0], out[-1] = out[1], out[-2]  # the end rows equal their neighbours'
    out /= chi_step**2
    out += _d2phi_values(v, phi_step)
    return out
