"""Quadrature grids on the unit sphere and the conformal (Mercator) latitude.

Colatitude theta runs from 0 at the north pole to pi at the south pole and
longitude phi is periodic with period 2*pi.  Poles are never grid nodes:
the vortex-pair vorticity this package is built around diverges there.
Quadrature weights are defined against the measure sin(theta) dtheta, so a
weighted sum over nodes approximates the surface integral directly.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.special import roots_legendre

GAUSS_LEGENDRE = "gauss-legendre"
UNIFORM_INTERIOR = "uniform-interior"
_KINDS = (GAUSS_LEGENDRE, UNIFORM_INTERIOR)

#: Colatitude band on which pole-sensitive checks are evaluated by default.
DEFAULT_BAND = (np.pi / 8, 7 * np.pi / 8)


@dataclasses.dataclass(frozen=True)
class GridSpec:
    """Resolution and node-placement recipe for a sphere grid."""

    nlat: int
    nlon: int
    kind: str = GAUSS_LEGENDRE

    def __post_init__(self):
        if self.nlat < 4 or self.nlon < 4:
            raise ValueError(
                f"grid needs nlat >= 4 and nlon >= 4, got {self.nlat} x {self.nlon}"
            )
        if self.kind not in _KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}; expected one of {_KINDS}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclasses.dataclass(frozen=True)
class Grid:
    """Colatitude-longitude nodes with quadrature weights.

    Attributes
    ----------
    thetas : ndarray, shape (nlat,)
        Strictly increasing colatitudes, all inside the open interval (0, pi).
    phis : ndarray, shape (nlon,)
        Uniform longitudes phi_j = 2*pi*j/nlon.
    weights : ndarray, shape (nlat,)
        Positive weights with sum(w_i * f(theta_i)) ~ int_0^pi f sin(theta) dtheta,
        so the weights sum to 2.
    """

    thetas: np.ndarray
    phis: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", _readonly(self.thetas))
        object.__setattr__(self, "phis", _readonly(self.phis))
        object.__setattr__(self, "weights", _readonly(self.weights))
        t, w = self.thetas, self.weights
        if t.ndim != 1 or t.size < 4:
            raise ValueError("need at least 4 colatitude nodes")
        if t[0] <= 0.0 or t[-1] >= np.pi or np.any(np.diff(t) <= 0.0):
            raise ValueError("colatitudes must be strictly increasing inside (0, pi)")
        if w.shape != t.shape or np.any(w <= 0.0):
            raise ValueError("weights must be positive, one per colatitude")
        if abs(float(w.sum()) - 2.0) > 1e-12:
            raise ValueError(f"weights must sum to 2, got {w.sum()!r}")
        p = self.phis
        if p.ndim != 1 or p.size < 4:
            raise ValueError("need at least 4 longitude nodes")
        expected = 2.0 * np.pi * np.arange(p.size) / p.size
        if not np.allclose(p, expected, rtol=0.0, atol=1e-12):
            raise ValueError("longitudes must be uniform with phi_j = 2*pi*j/nlon")

    @property
    def nlat(self) -> int:
        return self.thetas.size

    @property
    def nlon(self) -> int:
        return self.phis.size

    @property
    def dphi(self) -> float:
        return 2.0 * np.pi / self.nlon

    @functools.cached_property
    def sin_thetas(self) -> np.ndarray:
        return _readonly(np.sin(self.thetas))

    @functools.cached_property
    def cos_thetas(self) -> np.ndarray:
        return _readonly(np.cos(self.thetas))

    @functools.cached_property
    def chis(self) -> np.ndarray:
        """Conformal latitude of every node, chi = log(tan(theta/2))."""
        return _readonly(mercator_of_colatitude(self.thetas))

    def band_mask(self, lo: float, hi: float) -> np.ndarray:
        """Mask of the colatitude rows with lo <= theta <= hi, once :func:`_check_band` passes."""
        _check_band((lo, hi))
        return (self.thetas >= lo) & (self.thetas <= hi)


@dataclasses.dataclass(frozen=True)
class ScalarField:
    """Samples of a scalar on a :class:`Grid`, stored theta-major."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.shape != (self.grid.nlat, self.grid.nlon):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"{(self.grid.nlat, self.grid.nlon)}"
            )


def _same_nodes(a: Grid, b: Grid) -> bool:
    """True when ``a`` and ``b`` are one grid, or two with equal colatitudes and longitudes."""
    return a is b or (np.array_equal(a.thetas, b.thetas) and np.array_equal(a.phis, b.phis))


def _check_band(band) -> None:
    """Raise ValueError naming ``band`` unless band[0] < band[1], neither of them NaN."""
    if not band[0] < band[1]:
        raise ValueError(f"band [{band[0]:g}, {band[1]:g}] needs lo < hi, with neither NaN")


def band_max(field: ScalarField, band) -> float:
    """Max |value| over the rows with band[0] <= theta <= band[1]; ValueError if none."""
    mask = field.grid.band_mask(*band)
    if not mask.any():
        raise ValueError("band contains no grid rows")
    return float(np.max(np.abs(field.values[mask, :])))


def cell_weights(thetas: np.ndarray) -> np.ndarray:
    """Exact sin(theta) cell masses for arbitrary interior colatitudes.

    Cell edges are placed halfway between neighbouring nodes, with the first
    and last edges at the poles, so the weights telescope to exactly 2.  On
    nodes mirrored bit for bit, theta_{n-1-i} = pi - theta_i, each southern
    weight is a copy of its northern mirror.
    """
    t = np.asarray(thetas, dtype=np.float64)
    edges = np.concatenate(([0.0], 0.5 * (t[1:] + t[:-1]), [np.pi]))
    w = np.cos(edges[:-1]) - np.cos(edges[1:])
    nh = t.size // 2
    if np.array_equal(t[::-1][:nh], np.pi - t[:nh]):
        w[t.size - nh :] = w[:nh][::-1]
    return w


#: Grids kept per process: the check suite's two, a CLI grid and the plan grids of a sweep.
GRID_CACHE_SIZE = 8


@functools.lru_cache(maxsize=GRID_CACHE_SIZE)
def build_grid(spec: GridSpec) -> Grid:
    """The quadrature grid described by ``spec``, mirrored about the equator.

    Gauss-Legendre colatitudes are the roots of the Legendre polynomial in
    mu = cos(theta); their weights integrate polynomials in mu up to degree
    2*nlat - 1 exactly.  The uniform kind places nodes at cell midpoints
    (i + 1/2) * pi/nlat with exact cell masses as weights.  Both kinds take
    the northern half and mirror it bit for bit, theta_south = pi - theta_north
    and w_south = w_north, with an equator row at exactly pi/2 when nlat is
    odd.  The transforms rely on this to fold the equatorial parity of the
    Legendre functions (see :func:`sphereflow.spharm.build_plan`).

    Grids are cached per ``spec``, that is per ``(nlat, nlon, kind)``, at
    most :data:`GRID_CACHE_SIZE` per process: a grid is frozen and its arrays
    and cached properties are read-only, so every caller can share one, and
    the nodes, ``sin_thetas``, ``cos_thetas`` and ``chis`` of a spec are
    computed once.  A call that raises caches nothing.
    """
    nh = spec.nlat // 2
    if spec.kind == GAUSS_LEGENDRE:
        mu, w = roots_legendre(spec.nlat)
        # arccos of the contiguous roots: on a strided view it can round differently
        north = np.arccos(mu)[::-1][:nh]
    else:
        north = (np.arange(nh) + 0.5) * (np.pi / spec.nlat)
    equator = [np.pi / 2] * (spec.nlat % 2)
    thetas = np.concatenate((north, equator, np.pi - north[::-1]))
    weights = w[::-1].copy() if spec.kind == GAUSS_LEGENDRE else cell_weights(thetas)
    weights[spec.nlat - nh :] = weights[:nh][::-1]
    phis = 2.0 * np.pi * np.arange(spec.nlon) / spec.nlon
    return Grid(thetas=thetas, phis=phis, weights=weights)


def grid_from_colatitudes(thetas: np.ndarray, nlon: int) -> Grid:
    """Grid over caller-supplied interior colatitudes, with cell-mass weights."""
    thetas = np.asarray(thetas, dtype=np.float64)
    phis = 2.0 * np.pi * np.arange(nlon) / nlon
    return Grid(thetas=thetas, phis=phis, weights=cell_weights(thetas))


def surface_integral(f: ScalarField) -> float:
    """Integral of ``f`` over the whole sphere with the area element dA."""
    row_sums = f.values.sum(axis=1)
    return float(f.grid.weights @ row_sums) * f.grid.dphi


def mercator_of_colatitude(theta):
    """Conformal latitude chi = log(tan(theta/2)).

    Strictly increasing on (0, pi), zero at the equator and divergent at the
    poles; raises for arguments outside the open interval.
    """
    t = np.asarray(theta, dtype=np.float64)
    if np.any(t <= 0.0) or np.any(t >= np.pi):
        raise ValueError("conformal latitude diverges at the poles; need 0 < theta < pi")
    chi = np.log(np.tan(0.5 * t))
    return float(chi) if t.ndim == 0 else chi


def colatitude_of_mercator(chi):
    """Inverse of :func:`mercator_of_colatitude`: theta = 2*atan(exp(chi))."""
    c = np.asarray(chi, dtype=np.float64)
    theta = 2.0 * np.arctan(np.exp(c))
    return float(theta) if c.ndim == 0 else theta


def require_finite(f: ScalarField, name) -> None:
    """Raise ValueError naming ``name`` if any value of ``f`` is NaN or infinite."""
    bad = ~np.isfinite(f.values)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{name} has {int(bad.sum())} non-finite values, the first {f.values[i, j]} "
            f"at theta={f.grid.thetas[i]:.17g}, phi={f.grid.phis[j]:.17g}"
        )


def _write_csv(path, header: str, rows) -> None:
    """Write ``header`` and ``rows`` as ASCII CSV, each float (float64 too) as .17g, else str."""
    lines = [header]
    for row in rows:
        lines.append(",".join([format(x, ".17g") if isinstance(x, float) else str(x) for x in row]))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _read_csv(path, header: str) -> list:
    """The lines after ``header``, blank ones too: item i is line i + 2 of the file.

    Line ends are read as in text mode, and a byte outside ASCII raises
    ValueError naming its line.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        byte = data[exc.start]
        raise ValueError(f"{path} line {lineno}: byte 0x{byte:02x} is not ASCII") from None
    lines = text.split("\n")
    if lines[0].strip() != header:
        raise ValueError(f"unexpected header {lines[0].strip()!r} in {path}")
    return lines[1:]


def write_scalar_field(f: ScalarField, path) -> None:
    """Write a field as CSV with header theta,phi,value in theta-major order.

    Each theta and phi is formatted once.  A NaN or infinite value raises
    ValueError before the file is opened, since :func:`read_scalar_field` refuses one.
    """
    require_finite(f, path)
    thetas, phis = ([format(x, ".17g") for x in a.tolist()] for a in (f.grid.thetas, f.grid.phis))
    rows = ((t, p, v) for t, vs in zip(thetas, f.values) for p, v in zip(phis, vs.tolist()))
    _write_csv(path, "theta,phi,value", rows)


def read_scalar_field(path):
    """Read a theta,phi,value CSV back into (thetas, phis, values) arrays.

    Each line that is not blank is a data row of three finite numbers split on
    commas.  The rows must cover the full grid of the distinct thetas and phis
    once each, theta-major with both increasing, as :func:`write_scalar_field`
    writes them; otherwise ValueError, naming the data row where it can.
    """
    rows = [line.split(",") for line in _read_csv(path, "theta,phi,value") if line.strip()]
    if not rows:
        raise ValueError(f"no samples in {path}")
    try:
        data = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged or unparsable: the loop below names the first bad row
        data = None
    if data is None or data.shape[1] != 3:
        for k, row in enumerate(rows):
            where = f"{path} data row {k + 1}"
            if len(row) != 3:
                raise ValueError(f"{where}: expected 3 columns theta,phi,value, got {len(row)}")
            try:
                [float(x) for x in row]
            except ValueError:
                raise ValueError(f"{where}: cannot parse {','.join(row)!r}") from None
    nonfinite = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if nonfinite.size:
        raise ValueError(f"{path} data row {nonfinite[0] + 1}: non-finite entry")
    thetas = np.unique(data[:, 0])
    phis = np.unique(data[:, 1])
    if data.shape[0] != thetas.size * phis.size:
        raise ValueError(
            f"{path} has {data.shape[0]} rows; a full grid of {thetas.size} thetas "
            f"x {phis.size} phis needs {thetas.size * phis.size}"
        )
    misplaced = np.flatnonzero(
        (data[:, 0] != np.repeat(thetas, phis.size)) | (data[:, 1] != np.tile(phis, thetas.size))
    )
    if misplaced.size:
        raise ValueError(
            f"{path} data row {misplaced[0] + 1}: rows must be theta-major with increasing "
            "theta and phi"
        )
    values = data[:, 2].reshape(thetas.size, phis.size)
    return thetas, phis, values
