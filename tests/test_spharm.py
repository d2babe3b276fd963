import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sph_harm_y

from sphereflow import exact, spharm, timestep
from sphereflow.grid import (
    Grid,
    GridSpec,
    ScalarField,
    build_grid,
    colatitude_of_mercator,
    grid_from_colatitudes,
    surface_integral,
)

from conftest import coeff, order_weights, random_zonal, with_coeff, zeros, zonal_field

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def plan20():
    grid = build_grid(GridSpec(nlat=32, nlon=64))
    return spharm.build_plan(grid, 20)


@pytest.fixture(scope="module")
def plan20_odd():
    # an odd nlat puts a row on the equator, which both parities share
    grid = build_grid(GridSpec(nlat=33, nlon=48))
    return spharm.build_plan(grid, 20)


def _packed_row(table, plan, l, m):
    """Pbar_l^m (or its theta derivative) from a packed table, m >= 0.

    The packed tables hold order m in the contiguous rows starting at
    sum_{m' < m} (L + 1 - m'), degree l at offset l - m within the block.
    """
    L = plan.lmax
    return table[m * (L + 1) - m * (m - 1) // 2 + (l - m)]


def _all_rows(plan):
    """(plm, dplm) packed like the plan's, but on every grid row: the recurrences
    run at each colatitude, southern rows included, with no parity fold."""
    tables = spharm._legendre_tables(plan.grid.thetas, plan.lmax, plan.lmax + 1)
    return tables[:, 1], tables[:, 0]


def test_legendre_tables_match_scipy(plan20):
    north = plan20.grid.thetas[: plan20.plm.shape[1]]
    for l in range(11):
        for m in range(l + 1):
            ref = sph_harm_y(l, m, north, 0.0).real
            assert np.max(np.abs(_packed_row(plan20.plm, plan20, l, m) - ref)) < 1e-13


def test_legendre_theta_derivative_matches_scipy(plan20):
    north = plan20.grid.thetas[: plan20.dplm.shape[1]]
    h = 1e-6
    for l, m in [(1, 0), (3, 2), (6, 6), (10, 4)]:
        num = (sph_harm_y(l, m, north + h, 0.0).real - sph_harm_y(l, m, north - h, 0.0).real) / (2 * h)
        assert np.max(np.abs(_packed_row(plan20.dplm, plan20, l, m) - num)) < 1e-8


@pytest.mark.parametrize("plan_name", ["plan20", "plan20_odd"])
def test_tables_hold_the_northern_rows_of_a_mirrored_grid(plan_name, request):
    # the plan's tables are the northern columns of the all-rows tables, bit for
    # bit, and the southern columns follow the parity (-1)^(l-m), opposite for d/dtheta
    plan = request.getfixturevalue(plan_name)
    g, north = plan.grid, (plan.grid.nlat + 1) // 2
    assert plan.plm.shape[1] == plan.dplm.shape[1] == north
    assert np.array_equal(g.thetas[::-1][:north], np.pi - g.thetas[:north])
    L = plan.lmax
    k = np.concatenate([np.arange(L + 1 - m) for m in range(L + 1)])[:, None]  # l - m per row
    sign = (-1.0) ** k
    for table, full, parity in zip((plan.plm, plan.dplm), _all_rows(plan), (sign, -sign)):
        assert np.array_equal(table, full[:, :north])
        mirrored = parity * table[:, : g.nlat // 2]
        south = full[:, ::-1][:, : g.nlat // 2]
        assert np.max(np.abs(south - mirrored)) <= 1e-13 * np.max(np.abs(full))


def test_build_plan_rejects_a_grid_that_is_not_mirrored():
    rng = np.random.default_rng(21)
    grid = grid_from_colatitudes(np.sort(rng.uniform(0.05, np.pi - 0.05, 24)), 32)
    with pytest.raises(ValueError, match="not mirrored about the equator"):
        spharm.build_plan(grid, 10)
    # mirrored nodes with unmirrored weights fail too
    g = build_grid(GridSpec(nlat=24, nlon=32))
    w = np.array(g.weights)
    w[0], w[1] = w[0] + 1e-3, w[1] - 1e-3
    with pytest.raises(ValueError, match="not mirrored about the equator"):
        spharm.build_plan(Grid(thetas=g.thetas, phis=g.phis, weights=w), 10)


def test_build_plan_accepts_mirrored_nodes_from_colatitudes():
    # chi-uniform nodes mirrored bit for bit get mirrored cell-mass weights
    north = colatitude_of_mercator(0.01 * np.arange(-300, 0))
    grid = grid_from_colatitudes(np.concatenate((north, [np.pi / 2], np.pi - north[::-1])), 16)
    assert spharm.build_plan(grid, 7).grid is grid


def test_orthonormality_by_quadrature(plan20):
    g = plan20.grid
    plm, _ = _all_rows(plan20)
    for l, m in [(0, 0), (3, 1), (7, 7), (15, 4)]:
        y = _packed_row(plm, plan20, l, m)[:, None] * np.exp(1j * m * g.phis[None, :])
        norm = surface_integral(ScalarField(g, np.abs(y) ** 2))
        assert norm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lmax,nlat", [(0, 4), (20, 32), (63, 96), (20, 33)])
def test_plan_tables_are_packed(lmax, nlat):
    # (L+1)(L+2)/2 rows of ceil(nlat/2) northern values per table: no dense
    # (nlat, L+1, L+1) layout and no southern rows
    plan = spharm.build_plan(build_grid(GridSpec(nlat=nlat, nlon=2 * nlat)), lmax)
    rows, north = (lmax + 1) * (lmax + 2) // 2, (nlat + 1) // 2
    assert plan.plm.shape == plan.dplm.shape == (rows, north)
    assert plan.plm.nbytes + plan.dplm.nbytes == 2 * 8 * north * rows


def test_analyze_constant(plan20):
    g = plan20.grid
    c = spharm.analyze(ScalarField(g, np.ones((g.nlat, g.nlon))), plan20)
    assert coeff(c, 0, 0) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-12)
    rest = np.array(c.coeffs)
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def test_analyze_cos_theta(plan20):
    # Y_1^0 = sqrt(3/4pi) cos(theta), so cos(theta) has a_{1,0} = sqrt(4pi/3)
    c = spharm.analyze(zonal_field(plan20.grid, plan20.grid.cos_thetas), plan20)
    assert coeff(c, 1, 0) == pytest.approx(math.sqrt(4 * math.pi / 3), abs=1e-12)
    rest = np.array(c.coeffs)
    rest[1, 0] = 0.0
    assert np.max(np.abs(rest)) <= 1e-12


def test_synthesize_cos_theta(plan20):
    c = with_coeff(zeros(20), 1, 0, math.sqrt(4 * math.pi / 3))
    f = spharm.synthesize(c, plan20)
    assert np.max(np.abs(f.values - plan20.grid.cos_thetas[:, None])) <= 1e-12


def test_synthesize_zeros(plan20):
    f = spharm.synthesize(zeros(20), plan20)
    assert np.max(np.abs(f.values)) == 0.0


def test_round_trip_random_coefficients(plan20):
    rng = np.random.default_rng(0)
    c = spharm.random_real_field(20, rng)
    back = spharm.analyze(spharm.synthesize(c, plan20), plan20)
    assert np.max(np.abs(back.coeffs - c.coeffs)) <= 1e-12


def _legendre_all_orders(plan, tables):
    """Dense Pbar_l^m for m = -L..L, shape (nlat, L+1, 2L+1); Pbar_l^-m = (-1)^m Pbar_l^m.

    ``tables`` is packed over every grid row (see :func:`_all_rows`)."""
    L = plan.lmax
    ms = np.arange(-L, L + 1)
    dense = np.zeros((plan.grid.nlat, L + 1, 2 * L + 1))
    for l in range(L + 1):
        for m in range(-l, l + 1):
            sign = (-1.0) ** m if m < 0 else 1.0
            dense[:, l, L + m] = sign * _packed_row(tables, plan, l, abs(m))
    return dense, ms


def _all_orders(c):
    """Coefficients for m = -L..L, shape (L+1, 2L+1): a_{l,-m} = (-1)^m conj(a_{l,m})."""
    L = c.lmax
    full = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for m in range(L + 1):
        full[:, L + m] = c.coeffs[:, m]
        full[:, L - m] = (-1) ** m * np.conj(c.coeffs[:, m])
    return full


def _direct_synthesis(c, plan, derivative=False):
    """sum a_{l,m} Y_l^m over every order with an explicit longitude sum instead of the FFT.

    The Legendre functions come from the all-rows tables, with no parity fold;
    ``derivative`` takes their theta derivative instead.
    """
    p, ms = _legendre_all_orders(plan, _all_rows(plan)[int(derivative)])
    profiles = np.einsum("ilm,lm->im", p, _all_orders(c))
    return profiles @ np.exp(1j * np.outer(ms, plan.grid.phis))


def _direct_analysis(values, plan):
    """a_{l,m} = sum_i w_i dphi sum_j f conj(Y_l^m) with an explicit longitude sum."""
    g = plan.grid
    p, ms = _legendre_all_orders(plan, _all_rows(plan)[0])
    spectrum = values @ np.exp(-1j * np.outer(g.phis, ms)) * g.dphi
    return np.einsum("i,ilm,im->lm", g.weights, p, spectrum)


def _check_transforms_against_oracle(plan, seed):
    """synthesize and analyze against the direct all-orders sums, 1e-12 absolute."""
    c = spharm.random_real_field(plan.lmax, np.random.default_rng(seed))
    f_fft = spharm.synthesize(c, plan)
    f_dir = _direct_synthesis(c, plan)
    assert np.max(np.abs(f_fft.values - f_dir)) <= 1e-12
    a_fft = spharm.analyze(f_fft, plan)
    a_dir = _direct_analysis(f_fft.values, plan)
    assert np.max(np.abs(_all_orders(a_fft) - a_dir)) <= 1e-12


def _check_gradient_against_oracle(plan, seed):
    """Both gradient components against the all-orders sums: dPbar/dtheta, and
    i m a_{l,m}; the gradients reach a few hundred, so the bound is relative."""
    L = plan.lmax
    c = spharm.random_real_field(L, np.random.default_rng(seed))
    d_theta, d_phi = spharm.synthesize_gradient(c, plan)
    c_phi = spharm.SpectralField(L, c.coeffs * (1j * np.arange(L + 1)[None, :]))
    for got, ref in [(d_theta, _direct_synthesis(c, plan, derivative=True)),
                     (d_phi, _direct_synthesis(c_phi, plan))]:
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_longitude_transforms_agree(plan20):
    # the FFT path against the direct discrete Fourier sum over all orders
    _check_transforms_against_oracle(plan20, 4)


def test_gradient_matches_direct_oracle(plan20):
    _check_gradient_against_oracle(plan20, 6)


def test_folded_transforms_match_oracle_at_odd_nlat(plan20_odd):
    # the equator row enters both parity halves of the analysis and the
    # northern sum of the synthesis; the oracle tables carry no fold
    _check_transforms_against_oracle(plan20_odd, 4)
    _check_gradient_against_oracle(plan20_odd, 6)


@pytest.mark.parametrize("plan_name", ["plan20", "plan20_odd"])
def test_folded_analysis_of_a_field_without_symmetry(plan_name, request):
    # analysis is linear: on arbitrary grid values, which no truncation
    # describes, the folded projection still equals the direct quadrature sum
    plan = request.getfixturevalue(plan_name)
    values = np.random.default_rng(13).standard_normal((plan.grid.nlat, plan.grid.nlon))
    got = _all_orders(spharm.analyze(ScalarField(plan.grid, values), plan))
    assert np.max(np.abs(got - _direct_analysis(values, plan))) <= 1e-12


def test_fused_gradients_match_single_field_calls(plan20):
    # the one-pass two-field gradient of the tendency equals two one-field calls
    rng = np.random.default_rng(11)
    omega = spharm.random_real_field(20, rng)
    psi = spharm.invert_poisson(omega)
    fused = spharm._synthesize([omega, psi], plan20, True)
    for k, c in enumerate([omega, psi]):
        for got, ref in zip(fused[:, k], spharm.synthesize_gradient(c, plan20)):
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_laplacian_eigenvalues():
    c = with_coeff(zeros(5), 0, 0, 2.0)
    assert np.max(np.abs(spharm.laplace_beltrami_spectral(c).coeffs)) == 0.0
    c = with_coeff(zeros(5), 2, 1, 1.0 + 0.5j)
    image = spharm.laplace_beltrami_spectral(c)
    assert coeff(image, 2, 1) == pytest.approx(-6.0 * (1.0 + 0.5j), abs=1e-15)


def test_invert_poisson_low_mode():
    # omega = 2 cos(theta) is the l=1 eigenfunction: psi = cos(theta)
    amp = math.sqrt(4 * math.pi / 3)
    omega = with_coeff(zeros(4), 1, 0, 2.0 * amp)
    psi = spharm.invert_poisson(omega)
    assert coeff(psi, 1, 0) == pytest.approx(amp, abs=1e-14)


def test_invert_poisson_round_trip():
    rng = np.random.default_rng(2)
    omega = spharm.random_real_field(20, rng)
    psi = spharm.invert_poisson(omega)
    back = spharm.laplace_beltrami_spectral(psi)
    assert np.max(np.abs(-back.coeffs - omega.coeffs)) < 1e-12
    assert coeff(psi, 0, 0) == 0.0


def test_gauss_check_holds_past_the_square_range():
    # |a|^2 overflows past ~1.3e154; a mean of 1e-5 of the norm must still fail
    omega = with_coeff(with_coeff(zeros(4), 2, 1, 1e200), 0, 0, 1e195)
    assert spharm.l2_norm(omega) == pytest.approx(math.sqrt(2.0 + 1e-10) * 1e200, rel=1e-15)
    with pytest.raises(spharm.GaussConstraintError):
        spharm.check_gauss_constraint(omega)


def test_invert_poisson_zero_field():
    psi = spharm.invert_poisson(zeros(6))
    assert np.max(np.abs(psi.coeffs)) == 0.0


def test_invert_poisson_rejects_mean_vorticity():
    omega = with_coeff(zeros(4), 0, 0, 1e-3)
    with pytest.raises(spharm.GaussConstraintError):
        spharm.invert_poisson(omega)


def test_under_resolved_plan_rejected():
    grid = build_grid(GridSpec(nlat=8, nlon=8))
    with pytest.raises(ValueError):
        spharm.build_plan(grid, 8)  # nlat ok, nlon < 2*8+1
    with pytest.raises(ValueError):
        spharm.build_plan(grid, 9)  # nlat < 10


def test_spectral_field_rejects_complex_zonal_coefficient():
    # a_{l,0} must be real; irfft would silently drop its imaginary part.
    # The bound is 2 |Im a_{l,0}| <= 1e-10 * max(1, l2_norm).
    arr = np.zeros((21, 21), dtype=np.complex128)
    arr[2, 0] = 1.0 + 1.0j
    with pytest.raises(spharm.SymmetryError, match=r"Im a_\(l,0\)"):
        spharm.SpectralField(20, arr.copy())
    arr[2, 0] = 100.0 + 0.4e-8j  # 2 |Im| = 0.8e-8 <= 1e-10 * 100
    assert spharm.SpectralField(20, arr.copy()).coeffs[2, 0] == arr[2, 0]
    arr[2, 0] = 100.0 + 0.6e-8j
    with pytest.raises(spharm.SymmetryError):
        spharm.SpectralField(20, arr.copy())


def test_synthesize_plan_too_small():
    # a zonal field too
    grid = build_grid(GridSpec(nlat=8, nlon=16))
    plan = spharm.build_plan(grid, 5)
    with pytest.raises(ValueError, match="plan resolves lmax=5 < field lmax=7"):
        spharm.synthesize(zeros(7), plan)


def _zonal_synthesis(c, plan):
    """The order-0 rows of ``evolve``'s zonal path, repeated in longitude."""
    rows = spharm._zonal_rows(c.coeffs[None, :, 0], plan)[0]
    return np.repeat(rows[:, None], plan.grid.nlon, axis=1)


@pytest.mark.parametrize("lmax", [15, 31, 63, 127, 255])
def test_zonal_synthesis_table_is_the_order_0_block_of_the_plan(lmax):
    # the zonal rows read an order-0 table that the recurrences build alone:
    # it must hold the bytes of the full plan's first order block
    grid = timestep.transform_plan_for(lmax, True).grid
    north = grid.thetas[: (grid.nlat + 1) // 2]
    alone = spharm._legendre_tables(north, lmax, 1)
    plan = spharm.build_plan(grid, lmax)
    assert alone.shape == (lmax + 1, 2, north.size)
    assert alone.tobytes() == plan.tables[: lmax + 1].tobytes()
    assert plan._zonal_plm.tobytes() == plan.plm_blocks[0].tobytes()


@pytest.mark.parametrize("dealias", [True, False], ids=["dealiased", "plain"])
@pytest.mark.parametrize("lmax", [15, 31, 63, 127])
@pytest.mark.parametrize("kind", ["pair", "random"])
def test_zonal_synthesis_equals_per_order_path(kind, lmax, dealias, count_order_profiles):
    # the order-0 rows must give the bytes of the full per-order path at every
    # longitude: the irfft of a lone mean is exact
    plan = timestep.transform_plan_for(lmax, dealias)
    if kind == "pair":
        c = timestep.project_vortex_pair(exact.VortexPairParams(k1=1.0), lmax)
    else:
        c = random_zonal(lmax, lmax)
    got = spharm.synthesize(c, plan).values
    assert count_order_profiles == [lmax]
    assert np.max(np.abs(got)) > 0.1
    assert np.array_equal(got, _zonal_synthesis(c, plan))


def test_zonal_synthesis_below_the_plan_degree(plan20, count_order_profiles):
    c = random_zonal(10, 3)
    got = spharm.synthesize(c, plan20).values
    assert count_order_profiles == [20]
    assert np.array_equal(got, _zonal_synthesis(c, plan20))
    padded = np.zeros((21, 21), dtype=np.complex128)
    padded[:11, :11] = c.coeffs
    assert np.array_equal(got, spharm.synthesize(spharm.SpectralField(20, padded), plan20).values)


def test_near_zonal_synthesis_takes_per_order_path(plan20, count_order_profiles):
    c = random_zonal(20, 6)
    mode = spharm.real_single_mode(20, 3, 1)
    got = spharm.synthesize(spharm.SpectralField(20, c.coeffs + 1e-3 * mode.coeffs), plan20)
    assert count_order_profiles == [20]
    # the order-1 part is not lost: to the rounding of the field, it is its
    # zonal rows plus that mode
    order1 = got.values - _zonal_synthesis(c, plan20)
    expected = 1e-3 * spharm.synthesize(mode, plan20).values
    assert np.max(np.abs(expected)) > 1e-4
    assert np.max(np.abs(order1 - expected)) <= 1e-14 * np.max(np.abs(got.values))


def test_synthesize_real_single_order(plan20):
    # (Y_2^1 - Y_2^-1) / sqrt(2) = sqrt(2) Re Y_2^1 pins the order and phase convention
    values = spharm.synthesize(spharm.real_single_mode(20, 2, 1), plan20).values
    g = plan20.grid
    ref = math.sqrt(2.0) * sph_harm_y(2, 1, g.thetas[:, None], g.phis[None, :]).real
    assert np.max(np.abs(values - ref)) < 1e-13


def test_coefficient_accessors_validate_range():
    c = zeros(3)
    with pytest.raises(ValueError):
        coeff(c, 4, 0)
    with pytest.raises(ValueError):
        coeff(c, 2, 3)
    with pytest.raises(ValueError):
        with_coeff(c, 2, -1, 1.0)  # m < 0 is not stored
    with pytest.raises(ValueError):
        spharm.real_single_mode(3, 5, 0)


def _replace_row(path, l, m, value):
    lines = path.read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith(f"{l},{m},"))
    lines[row] = f"{l},{m},{value}"
    path.write_text("\n".join(lines) + "\n")
    return row + 1  # 1-based line number


def test_conjugate_symmetry_checker(tmp_path):
    # the check sits in the reader: a written real field passes, a broken
    # (l, -m) row or a complex a_{l,0} raises SymmetryError naming its line
    rng = np.random.default_rng(9)
    good = spharm.random_real_field(6, rng)
    path = tmp_path / "coeffs.csv"
    spharm.write_spectral_field(good, path)
    assert np.array_equal(spharm.read_spectral_field(path, 6).coeffs, good.coeffs)
    line = _replace_row(path, 3, -2, "5.0,0.0")
    with pytest.raises(spharm.SymmetryError, match=rf"line {line}: a_\(l=3,m=-2\)"):
        spharm.read_spectral_field(path, 6)
    spharm.write_spectral_field(good, path)
    line = _replace_row(path, 2, 0, "1.0,1.0")
    with pytest.raises(spharm.SymmetryError, match=rf"line {line}: a_\(l=2,m=0\)"):
        spharm.read_spectral_field(path, 6)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
def test_spectral_writer_refuses_a_non_finite_coefficient(tmp_path, value):
    # the reader refuses such a row, so the writer refuses it before opening the file
    arr = np.zeros((4, 4), dtype=np.complex128)
    arr[1, 0] = 0.5
    arr[2, 1] = value
    arr[3, 2] = math.inf
    path = tmp_path / "coeffs.csv"
    with pytest.raises(ValueError, match=r"a_\(l=2,m=1\) = .* is not finite"):
        spharm.write_spectral_field(spharm.SpectralField(3, arr), path)
    assert not path.exists()


def test_symmetry_checks_hold_past_the_square_range(tmp_path):
    # an imaginary a_{l,0} or a broken (l, -m) pair of 1e-5 of the norm is
    # refused even when the squared coefficients overflow
    arr = np.zeros((5, 5), dtype=np.complex128)
    arr[2, 1] = 1e200
    arr[1, 0] = 1e195j
    with pytest.raises(spharm.SymmetryError, match=r"Im a_\(l,0\)"):
        spharm.SpectralField(4, arr)
    path = tmp_path / "coeffs.csv"
    path.write_text("l,m,re,im\n2,1,1e200,0\n2,-1,1e200,0\n")
    with pytest.raises(spharm.SymmetryError, match=r"line 3: a_\(l=2,m=-1\)"):
        spharm.read_spectral_field(path, 4)


def test_spectral_csv_accepts_pairs_within_tolerance(tmp_path):
    # |a_{l,-m} - (-1)^m conj(a_{l,m})| <= 1e-10 * max(1, ||a||_2 over the file)
    path = tmp_path / "coeffs.csv"
    path.write_text("l,m,re,im\n1,0,1.0,0.0\n2,1,0.5,0.25\n2,-1,-0.50000000000005,0.25\n")
    c = spharm.read_spectral_field(path, 4)
    assert coeff(c, 2, 1) == 0.5 + 0.25j


def test_parseval(plan20):
    rng = np.random.default_rng(3)
    c = spharm.random_real_field(20, rng)
    f = spharm.synthesize(c, plan20)
    power = float(np.sum(order_weights(20) * np.abs(c.coeffs) ** 2))
    quadrature = surface_integral(ScalarField(plan20.grid, f.values**2))
    assert abs(quadrature - power) <= 1e-10 * max(1.0, power)
    assert spharm.l2_norm(c) ** 2 == pytest.approx(power, rel=1e-14)


def test_invert_composes_to_minus_identity(plan20):
    rng = np.random.default_rng(8)
    c = spharm.random_real_field(20, rng)
    composed = spharm.invert_poisson(spharm.laplace_beltrami_spectral(c))
    assert np.max(np.abs(composed.coeffs + c.coeffs)) < 1e-12


@pytest.mark.parametrize("lmax", [2, 7, 31, 7], ids=["l2", "l7", "l31", "l7-cached"])
def test_coefficient_mask_enforced(lmax):
    # the m > l mask is built once per lmax; the repeated lmax reads it from the cache
    hits = spharm._above_diagonal.cache_info().hits
    arr = np.zeros((lmax + 1, lmax + 1), dtype=np.complex128)
    arr[lmax - 1, lmax] = 1.0  # (l=L-1, m=L) is invalid
    with pytest.raises(ValueError, match="m > l must be zero"):
        spharm.SpectralField(lmax, arr)
    arr[lmax - 1, lmax] = 0.0
    arr[lmax, lmax] = 1.0  # m = l is stored
    assert spharm.SpectralField(lmax, arr).coeffs[lmax, lmax] == 1.0
    assert spharm._above_diagonal.cache_info().hits > hits
    mask = spharm._above_diagonal(lmax)
    assert np.array_equal(mask, np.triu(np.ones((lmax + 1, lmax + 1), dtype=bool), 1))
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1] = False


def test_mask_caches_stay_bounded_over_a_sweep_of_truncations():
    # the m > l mask is kept for four truncations, not one per truncation ever built
    for lmax in range(2, 64):
        spharm.SpectralField(lmax, np.zeros((lmax + 1, lmax + 1)))
    assert spharm._above_diagonal.cache_info().currsize <= 4


def test_spectral_field_copies_its_input():
    # the field freezes its own copy: the caller's array stays writeable,
    # and writing to it leaves the field unchanged
    arr = np.zeros((4, 4), dtype=np.complex128)
    arr[2, 1] = 1.0 + 2.0j
    c = spharm.SpectralField(3, arr)
    assert arr.flags.writeable
    arr[2, 1] = 5.0
    assert c.coeffs[2, 1] == 1.0 + 2.0j
    assert not c.coeffs.flags.writeable


def test_spectral_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    c = spharm.random_real_field(7, rng)
    path = tmp_path / "coeffs.csv"
    spharm.write_spectral_field(c, path)
    back = spharm.read_spectral_field(path, 7)
    assert back.lmax == 7
    assert np.array_equal(back.coeffs, c.coeffs)


def test_spectral_csv_round_trip_of_an_analysis(tmp_path, plan20):
    c = spharm.analyze(spharm.synthesize(spharm.random_real_field(20, np.random.default_rng(12)), plan20), plan20)
    path = tmp_path / "coeffs.csv"
    spharm.write_spectral_field(c, path)
    assert np.array_equal(spharm.read_spectral_field(path, 20).coeffs, c.coeffs)


@pytest.mark.parametrize(
    "name,lmax", [("vortex_pair_l31", 31), ("vortex_pair_l24_no_dealias", 24)]
)
def test_spectral_csv_of_the_vortex_pair_is_pinned(tmp_path, name, lmax):
    # the closed-form spectrum through the writer, which derives the orders
    # m < 0 from the symmetry; no BLAS call touches these bytes, so they are
    # the same whatever kernel OpenBLAS picks
    omega = timestep.project_vortex_pair(exact.VortexPairParams(k1=1.0), lmax)
    path = tmp_path / "coeffs.csv"
    spharm.write_spectral_field(omega, path)
    assert path.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_spectral_csv_pads_to_truncation(tmp_path):
    c = spharm.random_real_field(3, np.random.default_rng(5))
    path = tmp_path / "coeffs.csv"
    spharm.write_spectral_field(c, path)
    back = spharm.read_spectral_field(path, 6)
    assert back.lmax == 6
    assert np.array_equal(back.coeffs[:4, :4], c.coeffs)
    assert np.count_nonzero(back.coeffs) == np.count_nonzero(c.coeffs)


@pytest.mark.parametrize(
    "row,match",
    [
        ("1,-5,1.0,0.0", r"line 4: \(l=1, m=-5\) needs 0 <= \|m\| <= l"),
        ("-1,0,1.0,0.0", r"line 4: \(l=-1, m=0\) needs"),
        ("1,0,2.0,0.0", r"line 4: duplicate \(l=1, m=0\), first given on line 3"),
        ("2,1,nan,0.0", "line 4: non-finite coefficient"),
        ("2,1,0.0,inf", "line 4: non-finite coefficient"),
        ("2,1,1.0", "line 4: expected 4 columns"),
        ("2,1,1.0,0.0,0.0", "line 4: expected 4 columns"),
        ("2.5,1,1.0,0.0", "line 4: cannot parse"),
        ("100000000,0,1.0,0.0", "line 4: degree l=100000000 exceeds the truncation lmax=4"),
        ("2,1,1.0,0.0", r"line 4: a_\(l=2,m=-1\) differs"),  # a missing (2, -1) counts as zero
        ("2,-1,1.0,0.0", r"line 4: a_\(l=2,m=-1\) differs"),
        # conj(a_{2,1}) without the (-1)^m sign
        ("2,1,1.0,0.5\n2,-1,1.0,-0.5", r"line 5: a_\(l=2,m=-1\) differs"),
        ("3,0,1.0,0.5", r"line 4: a_\(l=3,m=0\) differs"),
        ("2,1,1.0,0.0 \u00e9", r"coeffs\.csv line 4: byte 0xc3 is not ASCII$"),
    ],
    ids=["m-beyond-l", "negative-l", "duplicate", "nan", "inf", "three-columns",
         "five-columns", "non-integer-degree", "huge-degree", "missing-negative-order",
         "missing-positive-order", "wrong-sign", "complex-zonal", "non-ascii"],
)
def test_spectral_csv_rejects_bad_rows(tmp_path, row, match):
    path = tmp_path / "coeffs.csv"
    path.write_text(f"l,m,re,im\n0,0,0.0,0.0\n1,0,1.0,0.0\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        spharm.read_spectral_field(path, 4)

