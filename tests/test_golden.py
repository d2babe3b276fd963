"""Golden-output regression for ``sphereflow evolve``.

The reference ``timeseries.csv`` files in ``tests/data/`` were written by the
CLI with exactly the arguments below, before the transform engine moved to
packed per-order Legendre tables.  Rewrites of the transforms must keep every
column within 1e-12 of its largest magnitude.  ``golden_ic_l20.csv`` is a
seeded non-zonal field of degree 20 (``random_real_field`` with seed 20240,
scaled to coefficient L2 norm 4), run at lmax 24 so the file is padded.

The two zonal references (``golden_basic_l31``, ``golden_harmonic30_l24_no_dealias``)
must match byte for byte; the zonal path forms its states as exact products.
``golden_file_l24_inviscid`` runs the same file at nu = 0, where the
integrating factor is exactly 1: it was written by the classical RK4 step,
whose bytes the Lawson step reproduced, and was re-pinned since only for the
enstrophy change below.

``golden_basic_l31`` and ``golden_file_l24`` were re-pinned when the grids
became mirrored about the equator and nlon became the smaller of 2^k and
3 * 2^k.  At lmax 24 the dealiased grid went from 128 to 96 longitudes, and
max_omega and drift are maxima over the transform grid's nodes, so both
moved by 2.5% there; ``golden_file_l24_nlon128.csv`` keeps the series
written on 128 longitudes, and the run on that grid must still match it.

``golden_basic_l31`` was re-pinned again when the vortex pair's initial
spectrum became its closed form instead of a Gauss quadrature of the
log-singular profile.

Every viscous reference (all but ``golden_file_l24_inviscid``) was re-pinned
when the stepping became integrating-factor RK4: the viscous decay is now
applied exactly, and ``golden_basic_l31`` follows the exact decay
a_l exp(-nu l(l+1) t) of that spectrum to rounding.

The enstrophy columns of ``golden_basic_l31`` and of the four ``golden_file_l24``
series (dealiased, inviscid, undealiased and on 128 longitudes) were re-pinned
when the enstrophy became the sum over degrees of the power summed over orders,
one function for the stepped and the zonal path, instead of a sum of the
flattened power: by at most 3.4e-16 of the column's maximum.  Against a
``math.fsum`` of each state's power, the worst error over these series went
from 3.5e-16 to 2.4e-16.  Every other column kept its bytes.

The energy columns of the same five series were re-pinned when the energy
became a plain sum, ``(level * inv).sum(axis=-1)``, instead of ``np.vecdot``,
whose BLAS ``ddot`` rounds differently under each OpenBLAS kernel: by at most
5.2e-16 of the column's maximum.  Against a ``math.fsum`` of each state's
weighted power, the worst error over these series went from 5.2e-16 to
3.7e-16, and ``golden_basic_l31`` became the same bytes under the SkylakeX
and Haswell kernels.  Every other column kept its bytes.

``golden_random_l127_inviscid`` pins the shape of a benchmark evolve job at
lmax 127, which no CLI run covers: the seed-1 ``random_real_field(127)``
scaled to L2 norm 10, run for two steps of 2e-3 at nu = 0.  It must match
byte for byte.  Like every non-zonal series its stage GEMMs depend on the
BLAS kernel (it keeps its bytes under Haswell, not under Prescott).
"""

from pathlib import Path

import numpy as np
import pytest

from sphereflow import spharm, timestep
from sphereflow.cli import main
from sphereflow.grid import GridSpec, build_grid
from sphereflow.timestep import EvolutionConfig, evolve, write_time_series

DATA = Path(__file__).parent / "data"
IC = DATA / "golden_ic_l20.csv"

CASES = {
    "golden_harmonic21_l31": [
        "--init", "harmonic:2,1", "--lmax", "31", "--nu", "0.01", "--dt", "1e-3", "--steps", "100",
    ],
    "golden_file_l24": [
        "--init", f"file:{IC}", "--lmax", "24", "--nu", "0.002", "--dt", "0.005", "--steps", "100",
    ],
    "golden_basic_l31": [
        "--init", "basic", "--lmax", "31", "--nu", "0.01", "--dt", "0.005", "--steps", "100",
    ],
    "golden_harmonic30_l24_no_dealias": [
        "--init", "harmonic:3,0", "--lmax", "24", "--nu", "0.01", "--dt", "0.005", "--steps", "100",
        "--no-dealias",
    ],
    "golden_file_l24_inviscid": [
        "--init", f"file:{IC}", "--lmax", "24", "--nu", "0", "--dt", "0.005", "--steps", "100",
    ],
    "golden_file_l24_no_dealias": [
        "--init", f"file:{IC}", "--lmax", "24", "--nu", "0.002", "--dt", "0.005", "--steps", "100",
        "--no-dealias",
    ],
}


BYTE_EXACT = {"golden_basic_l31", "golden_harmonic30_l24_no_dealias"}


def _read_series(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "t,energy,enstrophy,max_omega,drift"
    return np.array([line.split(",") for line in lines[1:]], dtype=float)


def _assert_matches(path, name):
    got = _read_series(path)
    ref = _read_series(DATA / f"{name}.csv")
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_golden_series(tmp_path, name):
    assert main(["evolve", *CASES[name], "--out", str(tmp_path)]) == 0
    if name in BYTE_EXACT:
        assert (tmp_path / "timeseries.csv").read_bytes() == (DATA / f"{name}.csv").read_bytes()
    _assert_matches(tmp_path / "timeseries.csv", name)


def test_file_l24_matches_its_series_on_128_longitudes(tmp_path, monkeypatch):
    # the same run on the 38 x 128 transform grid it had before nlon = 3 * 2^k:
    # the folded transforms reproduce the series pinned there
    plan = spharm.build_plan(build_grid(GridSpec(nlat=38, nlon=128)), 24)
    monkeypatch.setattr(timestep, "transform_plan_for", lambda lmax, dealias: plan)
    assert main(["evolve", *CASES["golden_file_l24"], "--out", str(tmp_path)]) == 0
    _assert_matches(tmp_path / "timeseries.csv", "golden_file_l24_nlon128")


def test_random_l127_series_is_pinned(tmp_path):
    c = spharm.random_real_field(127, np.random.default_rng(1))
    c = spharm.SpectralField(127, c.coeffs * (10.0 / spharm.l2_norm(c)))
    path = tmp_path / "timeseries.csv"
    write_time_series(evolve(c, EvolutionConfig(nu=0.0, dt=2e-3, steps=2, lmax=127)), path)
    assert path.read_bytes() == (DATA / "golden_random_l127_inviscid.csv").read_bytes()
