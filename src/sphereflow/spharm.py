"""Spherical-harmonic analysis and synthesis, and the spectral Laplacian.

The basis is orthonormal over the sphere with the Condon-Shortley phase:

    Y_l^m(theta, phi) = Pbar_l^m(cos theta) * exp(i m phi),
    int |Y_l^m|^2 dA = 1,    Y_l^{-m} = (-1)^m conj(Y_l^m).

Coefficients of a real field therefore satisfy
a_{l,-m} = (-1)^m conj(a_{l,m}), so a :class:`SpectralField` stores the
orders m >= 0 only, and the one constraint left, a real a_{l,0}, is checked
when the field is built (raising :class:`SymmetryError`).  The orders m < 0
exist only in the ``l,m,re,im`` CSV: the writer emits them from the
symmetry, and the reader checks every m < 0 row against its m > 0 partner.
The Laplace-Beltrami operator is diagonal with eigenvalues -l(l+1), which
makes the Poisson inversion of the vorticity-streamfunction relation a
coefficient division.

Normalized associated Legendre functions are generated with the standard
forward-stable three-term recurrences, each step vectorised over all orders.
Transform grids are mirrored about the equator bit for bit (see
:func:`sphereflow.grid.build_grid`), and the tables hold the northern rows
only: Pbar_l^m(pi - theta) = (-1)^(l-m) Pbar_l^m(theta) gives the rest, as
in SHTns (Schaeffer 2013, G3 14:751).  They are packed per order:
``plan.plm`` and ``plan.dplm`` hold one row per (l, m) with 0 <= m <= l,
ordered by m, so order m is one contiguous block of rows (see
:class:`TransformPlan`).

Per order the transforms run one real matrix product of the table block with
the coefficients viewed as float64 (re, im) pairs, split by the parity of
l - m, and then one real FFT (``rfft``/``irfft``) in longitude for every
row at once.  Synthesis forms each northern row as even + odd part and its
mirror as even - odd; analysis projects the symmetric and antisymmetric
halves of the field.  The gradients of several fields share one pass over
both tables, which is how the vorticity tendency synthesises omega and psi.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math

import numpy as np

from .grid import Grid, ScalarField, _read_csv, _same_nodes, _write_csv

#: Relative bound on the mean vorticity accepted by :func:`check_gauss_constraint`.
GAUSS_CONSTRAINT_RTOL = 1e-10

#: Relative bound on the departure from a real field: 2 |Im a_{l,0}| in a
#: :class:`SpectralField`, and |a_{l,-m} - (-1)^m conj(a_{l,m})| in a CSV.
SYMMETRY_RTOL = 1e-10


class GaussConstraintError(ValueError):
    """Raised when a field that must have zero mean vorticity does not."""


class SymmetryError(ValueError):
    """Raised when coefficients expected to describe a real field do not."""


@dataclasses.dataclass(frozen=True)
class SpectralField:
    """Coefficients a_{l,m} of a real field for 0 <= m <= l <= lmax.

    ``coeffs`` is a read-only copy of the array given, of shape
    (lmax+1, lmax+1); column m holds order m, and entries with m > l must be
    zero.  The orders m < 0 are not stored:
    a_{l,-m} = (-1)^m conj(a_{l,m}).  A field whose a_{l,0} are not real, by
    more than ``SYMMETRY_RTOL * max(1, l2_norm)`` in 2 |Im a_{l,0}|, raises
    :class:`SymmetryError`.
    """

    lmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, order="C")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.lmax < 0 or c.shape != (self.lmax + 1, self.lmax + 1):
            raise ValueError(
                f"coefficient array shape {c.shape} does not match lmax={self.lmax}"
            )
        if c[_above_diagonal(self.lmax)].any():
            raise ValueError("coefficients with m > l must be zero")
        zonal_im = c[:, 0].imag
        if zonal_im.any():
            tol = SYMMETRY_RTOL * max(1.0, l2_norm(self))
            if 2.0 * float(np.max(np.abs(zonal_im))) > tol:
                raise SymmetryError(
                    f"Im a_(l,0) exceeds {0.5 * tol:.3e}; "
                    "coefficients do not describe a real field"
                )


@functools.lru_cache(maxsize=4)
def _above_diagonal(lmax: int) -> np.ndarray:
    """Read-only (lmax+1, lmax+1) mask of the entries m > l, kept for four truncations."""
    mask = np.triu(np.ones((lmax + 1, lmax + 1), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def real_single_mode(lmax: int, l: int, m: int, amplitude: float = 1.0) -> SpectralField:
    """Real field concentrated in degree l, |order| m, with unit L2 norm per unit amplitude."""
    arr = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    if not (0 <= l <= lmax and abs(m) <= l):
        raise ValueError(f"(l={l}, m={m}) outside the truncation")
    arr[l, abs(m)] = amplitude if m == 0 else amplitude / math.sqrt(2.0)
    return SpectralField(lmax, arr)


def random_real_field(lmax: int, rng: np.random.Generator) -> SpectralField:
    """Random coefficients of a real zero-mean field: real a_{l,0}, complex a_{l,m} for m >= 1.

    a_{0,0} is drawn and discarded, which keeps every other draw from ``rng`` in place.
    """
    arr = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    for l in range(lmax + 1):
        arr[l, 0] = rng.standard_normal()
        for m in range(1, l + 1):
            arr[l, m] = rng.standard_normal() + 1j * rng.standard_normal()
    arr[0, 0] = 0.0
    return SpectralField(lmax, arr)


def power(c: SpectralField) -> np.ndarray:
    """|a_{l,m}|^2 + |a_{l,-m}|^2 per stored (l, m): weight 1 for m = 0, 2 for m >= 1.

    Its sum runs over every order -l..l, so int f^2 dA = power(c).sum().
    """
    return _order_weights(c.lmax) * np.abs(c.coeffs) ** 2


def _order_weights(lmax: int) -> np.ndarray:
    """Weight per stored order: 1 for m = 0, 2 for m >= 1, which also counts a_{l,-m}."""
    w = np.full(lmax + 1, 2.0)
    w[0] = 1.0
    return w


def l2_norm(c: SpectralField) -> float:
    """L2 norm of the field over the sphere, counting the unstored orders m < 0."""
    return _scaled_norm(c.coeffs, _order_weights(c.lmax))


def _scaled_norm(a: np.ndarray, weights=1.0) -> float:
    """sqrt(sum(weights * |a|^2)), formed on a / max|a| so no square overflows."""
    mag = np.abs(a)
    scale = float(np.max(mag, initial=0.0))
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    return scale * math.sqrt(float(np.sum(weights * (mag / scale) ** 2)))


def _order_offsets(lmax: int) -> list:
    """Row offsets of the packed tables: order m occupies rows off[m]:off[m+1]."""
    return [m * (lmax + 1) - m * (m - 1) // 2 for m in range(lmax + 2)]


def _legendre_tables(thetas: np.ndarray, lmax: int, orders: int) -> np.ndarray:
    """Packed d/dtheta Pbar_l^m(cos theta) and Pbar_l^m of the orders m < ``orders``.

    Row off[m] + (l - m) holds degree l of order m, [:, 0] the theta
    derivative and [:, 1] the function.  The recurrences run over the
    diagonal offset k = l - m, each step vectorised over the orders kept.
    """
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    off = np.array(_order_offsets(lmax)[: orders + 1])
    tables = np.empty((off[-1], 2, thetas.size))
    dp, p = tables[:, 0], tables[:, 1]
    # k = 0: Pbar_m^m = prod_{j <= m} (-sqrt((2j+1)/(2j)) sin theta) / sqrt(4 pi)
    j = np.arange(1, orders, dtype=np.float64)[:, None]
    factors = np.empty((orders, thetas.size))
    factors[0] = 1.0 / math.sqrt(4.0 * math.pi)
    factors[1:] = -np.sqrt((2.0 * j + 1.0) / (2.0 * j)) * sin_t
    p[off[:-1]] = np.cumprod(factors, axis=0)
    m = np.arange(min(lmax, orders), dtype=np.float64)[:, None]
    rows = off[: m.size] + 1
    p[rows] = np.sqrt(2.0 * m + 3.0) * cos_t * p[rows - 1]
    for k in range(2, lmax + 1):
        m = np.arange(min(lmax + 1 - k, orders), dtype=np.float64)[:, None]
        rows = off[: m.size] + k
        l = m + k
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        p[rows] = a * (cos_t * p[rows - 1] - b * p[rows - 2])
    # d/dtheta from the degree-lowering relation against the row above in
    # the same order block; diagonal rows (l = m) carry c = 0
    counts = np.diff(off)
    m = np.repeat(np.arange(orders, dtype=np.float64), counts)[:, None]
    l = m + (np.arange(off[-1]) - np.repeat(off[:-1], counts))[:, None]
    c = np.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0))
    np.multiply(l, cos_t, out=dp)
    dp *= p
    dp[1:] -= c[1:] * p[:-1]
    dp *= 1.0 / sin_t
    return tables


@dataclasses.dataclass(frozen=True)
class TransformPlan:
    """Immutable packed Legendre tables bound to one mirrored grid and degree bound.

    ``tables`` has shape ((lmax+1)(lmax+2)/2, 2, ceil(nlat/2)): [:, 0] holds
    d/dtheta Pbar_l^m and [:, 1] holds Pbar_l^m (the views ``dplm`` and
    ``plm``), on the northern rows only, the equator row included when nlat
    is odd.  Rows are ordered by order m: rows off[m]:off[m+1] hold degrees
    l = m..lmax of order m, with off[m] = m(lmax+1) - m(m-1)/2, so one order
    of both tables is one contiguous block.  The southern rows follow from
    the parity Pbar_l^m(pi - theta) = (-1)^(l-m) Pbar_l^m(theta), under which
    d/dtheta Pbar_l^m has the opposite parity.  Read-only, and built on first
    read; :func:`_zonal_rows` reads ``_zonal_plm``, an order-0 block built alone.
    """

    grid: Grid
    lmax: int

    @functools.cached_property
    def tables(self) -> np.ndarray:
        return self._northern_tables(self.lmax + 1)

    @functools.cached_property
    def _zonal_plm(self) -> np.ndarray:
        return self._northern_tables(1)[:, 1]  # the bytes of table_blocks[0]'s function half

    def _northern_tables(self, orders: int) -> np.ndarray:
        a = _legendre_tables(self.grid.thetas[: (self.grid.nlat + 1) // 2], self.lmax, orders)
        a.setflags(write=False)
        return a

    @property
    def plm(self) -> np.ndarray:
        return self.tables[:, 1]

    @property
    def dplm(self) -> np.ndarray:
        return self.tables[:, 0]

    @functools.cached_property
    def table_blocks(self) -> list:
        """Per-order 2-D views of both tables: one row per degree, d/dtheta then the function."""
        off = _order_offsets(self.lmax)
        return [
            self.tables[off[m] : off[m + 1]].reshape(off[m + 1] - off[m], -1)
            for m in range(self.lmax + 1)
        ]


def build_plan(grid: Grid, lmax: int) -> TransformPlan:
    """Bind a grid that resolves degree lmax to a plan; its tables are built on first read.

    Requires nlat >= lmax + 1 and nlon >= 2*lmax + 1 so that analysis of a
    band-limited field is exact on Gauss-Legendre grids, and a grid mirrored
    about the equator bit for bit, as :func:`sphereflow.grid.build_grid` makes
    it: row nlat-1-i at colatitude pi - theta_i with the weight of row i.
    """
    if lmax < 0:
        raise ValueError("lmax must be nonnegative")
    if grid.nlat < lmax + 1 or grid.nlon < 2 * lmax + 1:
        raise ValueError(
            f"grid {grid.nlat} x {grid.nlon} cannot resolve lmax={lmax}; "
            f"need nlat >= {lmax + 1} and nlon >= {2 * lmax + 1}"
        )
    north = (grid.nlat + 1) // 2
    t = grid.thetas
    if not (
        np.array_equal(t[::-1][:north], np.pi - t[:north])
        and np.array_equal(grid.weights[::-1], grid.weights)
    ):
        raise ValueError(
            "grid is not mirrored about the equator: row nlat-1-i needs colatitude "
            "pi - theta_i and the weight of row i, bit for bit"
        )
    return TransformPlan(grid=grid, lmax=lmax)


def analyze(f: ScalarField, plan: TransformPlan) -> SpectralField:
    """Project a real field onto the orthonormal basis by quadrature.

    a_{l,m} = sum_i w_i dphi sum_j f(theta_i, phi_j) conj(Y_l^m) for m >= 0.
    Exact for band-limited fields on Gauss-Legendre grids resolving the
    truncation.  The rfft keeps Im a_{l,0} exactly zero.  The field is folded
    into its symmetric and antisymmetric halves f(theta) +- f(pi - theta) on
    the northern rows (an equator row enters both), and each order runs one
    real GEMM of its northern table block against both weighted half spectra;
    degrees with l - m even take the symmetric one, odd the antisymmetric one.
    """
    if not _same_nodes(f.grid, plan.grid):
        raise ValueError("field grid does not match the transform plan")
    return SpectralField(plan.lmax, _analyze(f.values, plan))


def _analyze(values: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """The coefficients of :func:`analyze` from the values on the plan's grid, a fresh array."""
    g, L = plan.grid, plan.lmax
    north, nh = plan.plm.shape[1], g.nlat // 2
    halves = np.empty((north, 2, g.nlon))  # [northern row, parity, phi]
    np.add(values[:nh], values[: -nh - 1 : -1], out=halves[:nh, 0])
    np.subtract(values[:nh], values[: -nh - 1 : -1], out=halves[:nh, 1])
    halves[nh:] = values[nh:north, None]
    F = np.fft.rfft(halves, axis=-1)[..., : L + 1]  # sum_j half(theta_i, phi_j) exp(-i m phi_j)
    rows = np.empty((L + 1, north, 2), dtype=np.complex128)  # [m, northern row, parity]
    np.multiply(F.transpose(2, 0, 1), (g.weights[:north] * g.dphi)[:, None], out=rows)
    rows = rows.view(np.float64).reshape(L + 1, north, 4)
    out = np.zeros((L + 1, L + 1, 4))  # [m, l, parity and re/im]
    for m, block in enumerate(plan.table_blocks):
        np.matmul(block[:, north:], rows[m], out=out[m, m:])
    by_parity = out.view(np.complex128)  # [m, l, parity]
    odd = np.arange(L + 1) % 2 != np.arange(L + 1)[:, None] % 2  # [m, l]: l - m odd
    return np.where(odd, by_parity[..., 1], by_parity[..., 0]).T


def _synthesize(fields, plan: TransformPlan, gradients: bool) -> np.ndarray:
    """Grid values of every field, or of its (d/dtheta, d/dphi) when ``gradients`` is true.

    On the northern rows, one real GEMM per order serves every table, field
    and parity: each field's coefficient array enters as float64 (re, im)
    pairs split by the parity of l - m, against the function half of
    ``plan.table_blocks``, or the whole block (d/dtheta first) for the
    gradients.  This gives the even and odd parts in l - m of
    G_m(theta_i) = sum_l a_{l,m} table[off[m] + l - m, i], and the real sum
    over all orders of G_m exp(i m phi_j), with G_{-m} = conj(G_m),
    takes one irfft per part and northern row; d/dphi enters the spectrum
    times i m.  The northern rows are even + odd and their mirrors even - odd,
    with the parts swapped for d/dtheta, whose parity is the opposite.
    Returns shape (tables, len(fields), nlat, nlon): one table, the field, or
    two, d/dtheta then d/dphi.
    """
    g, L, nf, north = plan.grid, plan.lmax, len(fields), plan.plm.shape[1]
    ntab = 2 if gradients else 1
    cols = np.zeros((L + 1, L + 1, 2, nf), dtype=np.complex128)  # [m, l, parity, field]
    for k, c in enumerate(fields):
        a, n = c.T, len(c)
        if n > L + 1:
            raise ValueError(f"plan resolves lmax={L} < field lmax={n - 1}")
        # the pairs of one parity form a checkerboard in (m, l): four strided blocks
        for i in (0, 1):
            for j in (0, 1):
                cols[i:n:2, j:n:2, (i + j) % 2, k] = a[i::2, j::2]
    cols = cols.view(np.float64).reshape(L + 1, L + 1, 4 * nf)
    out = np.empty((L + 1, ntab * north, 4 * nf))  # [m, table and row, parity/field/re-im]
    for m, block in enumerate(plan.table_blocks):
        np.matmul((block if gradients else block[:, north:]).T, cols[m, m:], out=out[m])
    # [table, field, parity, northern row, m], the parities swapped for d/dtheta
    by_order = out.view(np.complex128).reshape(L + 1, ntab, north, 2, nf).transpose(1, 4, 3, 2, 0)
    spectrum = np.zeros((ntab, nf, 2, north, g.nlon // 2 + 1), dtype=np.complex128)
    spectrum[0, ..., : L + 1] = by_order[0, :, ::-1] if gradients else by_order[0]
    if gradients:
        np.multiply(by_order[1], 1j * np.arange(L + 1), out=spectrum[1, ..., : L + 1])
    parts = np.fft.irfft(spectrum, n=g.nlon, axis=-1, norm="forward")
    even, odd = parts[:, :, 0], parts[:, :, 1]  # [table, field, northern row, phi]
    nh = g.nlat // 2
    values = np.empty((ntab, nf, g.nlat, g.nlon))
    np.add(even, odd, out=values[:, :, :north])
    np.subtract(even[:, :, :nh], odd[:, :, :nh], out=values[:, :, : -nh - 1 : -1])
    return values


def _zonal_rows(a: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Rows sum_l a[k, l] Pbar_l^0(cos theta_i) of each order-0 column a[k]: the order-0
    GEMM of :func:`_synthesize` once per column (a batched one gives other bytes under
    some BLAS kernels), folded the same way, so a zonal field's row holds the bytes of
    every longitude of its :func:`synthesize`; it builds no table of an order m >= 1."""
    g, n, nh = plan.grid, a.shape[1], plan.grid.nlat // 2
    pairs = np.zeros((a.shape[0], plan.lmax + 1, 2), dtype=np.complex128)  # [k, l, parity]
    pairs[:, 0:n:2, 0] = a[:, 0::2]
    pairs[:, 1:n:2, 1] = a[:, 1::2]
    profile = plan._zonal_plm.T @ pairs.view(np.float64)  # E re, E im, O re, O im
    rows = np.empty((a.shape[0], g.nlat))
    np.add(profile[..., 0], profile[..., 2], out=rows[:, : profile.shape[1]])
    np.subtract(profile[:, :nh, 0], profile[:, :nh, 2], out=rows[:, : -nh - 1 : -1])
    return rows


def synthesize(c: SpectralField, plan: TransformPlan) -> ScalarField:
    """Evaluate sum a_{l,m} Y_l^m over all orders -l..l on the plan's grid."""
    return ScalarField(plan.grid, _synthesize([c.coeffs], plan, False)[0, 0])


def synthesize_gradient(c: SpectralField, plan: TransformPlan):
    """Pointwise (df/dtheta, df/dphi) of the truncated expansion, as real arrays."""
    return tuple(_synthesize([c.coeffs], plan, True)[:, 0])


def laplacian_eigenvalues(lmax: int) -> np.ndarray:
    """Eigenvalues -l(l+1) of the Laplace-Beltrami operator, shape (lmax+1, 1).

    The column shape broadcasts against a coefficient array; this is the one
    place the package forms l(l+1) for the spectral operators.
    """
    ls = np.arange(lmax + 1, dtype=np.float64)[:, None]
    return -ls * (ls + 1.0)


def laplace_beltrami_spectral(c: SpectralField) -> SpectralField:
    """Coefficient-wise a_{l,m} -> -l(l+1) a_{l,m}."""
    return SpectralField(c.lmax, c.coeffs * laplacian_eigenvalues(c.lmax))


def check_gauss_constraint(omega: SpectralField) -> None:
    """Raise :class:`GaussConstraintError` if |a_{0,0}| > ``GAUSS_CONSTRAINT_RTOL`` * l2_norm."""
    mean = abs(complex(omega.coeffs[0, 0]))
    if mean and mean > GAUSS_CONSTRAINT_RTOL * max(l2_norm(omega), np.finfo(float).tiny):
        raise GaussConstraintError(
            f"mean vorticity {mean:.3e} violates the zero-total-vorticity constraint"
        )


def invert_poisson(omega: SpectralField) -> SpectralField:
    """Solve -lap(psi) = omega in coefficients, zero-mean gauge, once the Gauss check passes."""
    check_gauss_constraint(omega)
    return SpectralField(omega.lmax, _solve_poisson(omega.coeffs))


def _solve_poisson(omega: np.ndarray) -> np.ndarray:
    """-lap(psi) = omega on a coefficient array, zero-mean gauge, with no Gauss check."""
    eig = laplacian_eigenvalues(len(omega) - 1)
    eig[0, 0] = -1.0  # placeholder, the l = 0 row is zeroed below
    psi = omega / (-eig)
    psi[0, :] = 0.0
    return psi


def write_spectral_field(c: SpectralField, path) -> None:
    """CSV serialization with header l,m,re,im, one row per (l, m) with |m| <= l.

    The unstored orders m < 0 are written as (-1)^m conj(a_{l,m}).  A NaN or
    infinite coefficient raises ValueError naming its (l, m) before the file
    is opened, since :func:`read_spectral_field` refuses one.
    """
    bad = np.argwhere(~np.isfinite(c.coeffs))
    if bad.size:
        l, m = bad[0]
        raise ValueError(
            f"coefficient a_(l={l},m={m}) = {c.coeffs[l, m]} is not finite; "
            f"{path} is not written"
        )
    neg = (-1.0) ** np.arange(c.lmax + 1) * np.conj(c.coeffs)
    rows = []
    for l in range(c.lmax + 1):
        for m in range(-l, l + 1):
            z = c.coeffs[l, m] if m >= 0 else neg[l, -m]
            rows.append((l, m, z.real, z.imag))
    _write_csv(path, "l,m,re,im", rows)


def read_spectral_field(path, lmax: int) -> SpectralField:
    """Read an l,m,re,im CSV into a field truncated at ``lmax``.

    Every row needs exactly four columns, integer indices with
    |m| <= l <= lmax, a finite coefficient and an (l, m) pair no earlier row
    used; any other row raises ValueError naming its line, before anything
    is allocated for its degree.  Pairs absent from the file are zero.

    The file must describe a real field: each a_{l,-m} must equal
    (-1)^m conj(a_{l,m}), a missing row counting as zero, and each a_{l,0}
    must be real, to within ``SYMMETRY_RTOL * max(1, ||a||_2)`` with the
    norm taken over the file.  A pair that is not raises
    :class:`SymmetryError` naming the line of its m < 0 row (or of its
    m >= 0 row when the m < 0 row is missing).
    """
    # a_{l,m} at [0, l, m] and a_{l,-m} at [1, l, m]
    arr = np.zeros((2, lmax + 1, lmax + 1), dtype=np.complex128)
    first_line = {}
    for lineno, line in enumerate(_read_csv(path, "l,m,re,im"), start=2):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        cols = line.strip().split(",")
        if len(cols) != 4:
            raise ValueError(f"{where}: expected 4 columns l,m,re,im, got {len(cols)}")
        try:
            l, m = int(cols[0]), int(cols[1])
            z = complex(float(cols[2]), float(cols[3]))
        except ValueError as exc:
            raise ValueError(f"{where}: cannot parse {line.strip()!r}") from exc
        if abs(m) > l:
            raise ValueError(f"{where}: (l={l}, m={m}) needs 0 <= |m| <= l")
        if l > lmax:
            raise ValueError(f"{where}: degree l={l} exceeds the truncation lmax={lmax}")
        if not cmath.isfinite(z):
            raise ValueError(f"{where}: non-finite coefficient for (l={l}, m={m})")
        if (l, m) in first_line:
            raise ValueError(
                f"{where}: duplicate (l={l}, m={m}), first given on line {first_line[l, m]}"
            )
        first_line[l, m] = lineno
        arr[int(m < 0), l, abs(m)] = z
    if not first_line:
        raise ValueError(f"no coefficients in {path}")
    tol = SYMMETRY_RTOL * max(1.0, _scaled_norm(arr))
    pos, neg = arr
    neg[:, 0] = pos[:, 0]  # order 0 pairs with itself: the residue is 2 |Im a_{l,0}|
    residue = np.abs(neg - (-1.0) ** np.arange(lmax + 1) * np.conj(pos))
    if np.max(residue) > tol:
        lineno, l, m = min(
            (first_line.get((l, -m), first_line.get((l, m))), l, m)
            for l, m in np.argwhere(residue > tol).tolist()
        )
        raise SymmetryError(
            f"{path} line {lineno}: a_(l={l},m={-m}) differs from (-1)^m conj(a_(l={l},m={m})) "
            f"by {residue[l, m]:.3e} > {tol:.3e} (a missing row counts as zero); "
            "coefficients do not describe a real field"
        )
    return SpectralField(lmax, pos)
