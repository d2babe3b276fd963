import math

import numpy as np
import pytest

from sphereflow import grid as sgrid
from sphereflow import spharm


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
    """Record the plan lmax of every call to the per-order Legendre loop."""
    calls = []
    real = spharm._order_profiles

    def counted(fields, plan, blocks):
        calls.append(plan.lmax)
        return real(fields, plan, blocks)

    monkeypatch.setattr(spharm, "_order_profiles", counted)
    return calls
