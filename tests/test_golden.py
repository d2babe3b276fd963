"""Golden-output regression for ``sphereflow evolve``.

The reference ``timeseries.csv`` files in ``tests/data/`` were written by the
CLI with exactly the arguments below, before the transform engine moved to
packed per-order Legendre tables.  Rewrites of the transforms must keep every
column within 1e-12 of its largest magnitude.  ``golden_ic_l20.csv`` is a
seeded non-zonal field of degree 20 (``random_real_field`` with seed 20240,
scaled to coefficient L2 norm 4), run at lmax 24 so the file is padded.

The two zonal references (``golden_basic_l31``, ``golden_harmonic30_l24_no_dealias``)
were written before zonal states skipped the bracket transforms.  That
shortcut is exact, so these must match byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from sphereflow.cli import main

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_evolve_matches_golden_series(tmp_path, name):
    assert main(["evolve", *CASES[name], "--out", str(tmp_path)]) == 0
    if name in BYTE_EXACT:
        assert (tmp_path / "timeseries.csv").read_bytes() == (DATA / f"{name}.csv").read_bytes()
    got = _read_series(tmp_path / "timeseries.csv")
    ref = _read_series(DATA / f"{name}.csv")
    assert got.shape == ref.shape
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)
