import math

import numpy as np
import pytest

from sphereflow import grid as sgrid
from sphereflow import spharm


#: Vortex-pair strengths k1 from 1e-3 to 1e6 in half decades, both signs
K1_SWEEP = [s * 10.0**e for e in (-3.0, -1.5, 0.0, 1.5, 3.0, 4.5, 6.0) for s in (1.0, -1.0)]


def fit_order(errors, refinement=2.0):
    """Least-squares convergence order from errors at successively refined grids."""
    e = np.asarray(errors, dtype=float)
    steps = np.arange(e.size)
    slope = np.polyfit(steps, np.log(e), 1)[0]
    return -slope / math.log(refinement)


def band_max(field, lo=sgrid.DEFAULT_BAND[0], hi=sgrid.DEFAULT_BAND[1]):
    return sgrid.band_max(field, (lo, hi))


def zonal_field(grid, profile):
    return sgrid.ScalarField(grid, np.repeat(np.asarray(profile)[:, None], grid.nlon, axis=1))


def zeros(lmax):
    """The zero field of truncation ``lmax``."""
    return spharm.SpectralField(lmax, np.zeros((lmax + 1, lmax + 1), dtype=np.complex128))


def random_zonal(lmax, seed):
    """Random real field with every order m >= 1 exactly zero."""
    c = np.array(spharm.random_real_field(lmax, np.random.default_rng(seed)).coeffs)
    c[:, 1:] = 0.0
    return spharm.SpectralField(lmax, c)


def _check_stored(c, l, m):
    if not (0 <= m <= l <= c.lmax):
        raise ValueError(f"(l={l}, m={m}) is not a stored order 0 <= m <= l <= {c.lmax}")


def coeff(c, l, m):
    """Stored coefficient a_{l,m}, 0 <= m <= l."""
    _check_stored(c, l, m)
    return complex(c.coeffs[l, m])


def with_coeff(c, l, m, value):
    """Copy of ``c`` with the stored a_{l,m}, 0 <= m <= l, replaced."""
    _check_stored(c, l, m)
    arr = np.array(c.coeffs)
    arr[l, m] = value
    return spharm.SpectralField(c.lmax, arr)


def rossby_haurwitz(lmax, l, A, seed):
    """Solid-body rotation psi = A cos(theta) plus a random real wave of degree l in orders 2 and 3.

    omega = 2 A cos(theta) gives a_{1,0} = 2 A sqrt(4 pi / 3).  This is a
    Rossby-Haurwitz wave in the non-rotating frame (Haurwitz 1940, J. Mar.
    Res. 3:254): the bracket is nonzero but maps degree l onto itself,
    d a_{l,m}/dt = -i m c a_{l,m} with c = A (1 - 2 / (l(l+1))), and leaves
    a_{1,0} constant.  Returns the field and c.
    """
    rng = np.random.default_rng(seed)
    arr = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    arr[1, 0] = 2.0 * A * math.sqrt(4.0 * math.pi / 3.0)
    arr[l, 2:4] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return spharm.SpectralField(lmax, arr), A * (1.0 - 2.0 / (l * (l + 1.0)))


def order_weights(lmax):
    """1 for m = 0 and 2 for m >= 1: a sum over the stored m >= 0 with these
    weights equals the sum over all orders -l..l of a real field."""
    w = np.full(lmax + 1, 2.0)
    w[0] = 1.0
    return w


@pytest.fixture
def gl_grid():
    return sgrid.build_grid(sgrid.GridSpec(nlat=48, nlon=96))


@pytest.fixture
def uniform_grid():
    return sgrid.build_grid(sgrid.GridSpec(nlat=64, nlon=128, kind="uniform-interior"))


@pytest.fixture
def count_order_profiles(monkeypatch):
    """Record the plan lmax of every call to the per-order synthesis."""
    calls = []
    real = spharm._synthesize

    def counted(fields, plan, gradients):
        calls.append(plan.lmax)
        return real(fields, plan, gradients)

    monkeypatch.setattr(spharm, "_synthesize", counted)
    return calls


@pytest.fixture
def recorded_states(monkeypatch):
    """Every field passed to ``spharm.synthesize``: for a non-zonal ``evolve``,
    the initial state and then the state after each step."""
    states = []
    real = spharm.synthesize

    def recorded(c, plan):
        states.append(c)
        return real(c, plan)

    monkeypatch.setattr(spharm, "synthesize", recorded)
    return states
