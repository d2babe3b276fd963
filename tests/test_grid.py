import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sphereflow import exact, operators, spharm, timestep, verify
from sphereflow import grid as sgrid
from sphereflow.grid import (
    Grid,
    GridSpec,
    ScalarField,
    band_max,
    build_grid,
    cell_weights,
    colatitude_of_mercator,
    grid_from_colatitudes,
    mercator_of_colatitude,
    read_scalar_field,
    surface_integral,
    write_scalar_field,
)

from conftest import zonal_field


@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
@pytest.mark.parametrize("nlat,nlon", [(4, 8), (16, 4), (64, 128)])
def test_grid_invariants(kind, nlat, nlon):
    g = build_grid(GridSpec(nlat=nlat, nlon=nlon, kind=kind))
    assert abs(float(g.weights.sum()) - 2.0) <= 1e-12
    assert np.all(g.weights > 0.0)
    assert np.all(np.diff(g.thetas) > 0.0)
    assert g.thetas[0] > 0.0 and g.thetas[-1] < np.pi
    assert np.allclose(g.phis, 2 * np.pi * np.arange(nlon) / nlon, atol=0, rtol=0)


@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
@pytest.mark.parametrize("nlat", [4, 5, 16, 17, 192, 193])
def test_grid_is_mirrored_bit_for_bit(kind, nlat):
    # row nlat-1-i is pi - theta_i, as computed, with the same weight; an odd
    # nlat has its middle row on the equator.  The transforms fold on this.
    g = build_grid(GridSpec(nlat=nlat, nlon=8, kind=kind))
    north = (nlat + 1) // 2
    assert np.array_equal(g.thetas[::-1][:north], np.pi - g.thetas[:north])
    assert np.array_equal(g.weights[::-1], g.weights)
    if nlat % 2:
        assert g.thetas[nlat // 2] == np.pi / 2
    assert np.all(g.thetas[:north] <= np.pi / 2)


def test_uniform_grid_is_half_cell_offset():
    g = build_grid(GridSpec(nlat=8, nlon=4, kind="uniform-interior"))
    h = np.pi / 8
    assert np.allclose(g.thetas, (np.arange(8) + 0.5) * h, atol=1e-15, rtol=0)


def test_gauss_nodes_are_legendre_roots():
    from scipy.special import eval_legendre

    g = build_grid(GridSpec(nlat=24, nlon=4))
    assert np.max(np.abs(eval_legendre(24, np.cos(g.thetas)))) < 1e-13


def test_gauss_quadrature_polynomial_exactness():
    # exact for cos^k(theta) through degree 2*nlat - 1
    g = build_grid(GridSpec(nlat=16, nlon=4))
    for k in range(2 * 16):
        analytic = 2.0 * np.pi * (1.0 + (-1.0) ** k) / (k + 1.0)
        got = surface_integral(zonal_field(g, g.cos_thetas**k))
        assert abs(got - analytic) <= 1e-12, k


def test_cos_squared_area_integral():
    g = build_grid(GridSpec(nlat=16, nlon=8))
    got = surface_integral(zonal_field(g, g.cos_thetas**2))
    assert abs(got - 4.0 * np.pi / 3.0) <= 1e-12


def test_surface_integral_constants(gl_grid):
    ones = ScalarField(gl_grid, np.ones((gl_grid.nlat, gl_grid.nlon)))
    assert abs(surface_integral(ones) - 4.0 * np.pi) <= 1e-12
    assert abs(surface_integral(zonal_field(gl_grid, gl_grid.cos_thetas))) <= 1e-13


def test_vortex_vorticity_integrates_to_zero():
    # oracle: adaptive quadrature of the zonal profile with the area element
    p = exact.VortexPairParams(k1=1.0, k2=0.0)
    oracle, _ = quad(lambda t: math.log(math.tan(t / 2)) * math.sin(t), 0.0, np.pi)
    assert abs(oracle) <= 1e-10
    g = build_grid(GridSpec(nlat=64, nlon=8))
    assert abs(surface_integral(exact.vorticity_field(p, g))) <= 1e-8


def test_mercator_equator_is_zero():
    assert mercator_of_colatitude(np.pi / 2) == pytest.approx(0.0, abs=1e-15)


@given(st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_mercator_odd_about_equator(theta):
    assert mercator_of_colatitude(math.pi - theta) == pytest.approx(
        -mercator_of_colatitude(theta), abs=1e-12
    )


@given(st.floats(min_value=0.01, max_value=math.pi - 0.01))
def test_mercator_round_trip(theta):
    assert colatitude_of_mercator(mercator_of_colatitude(theta)) == pytest.approx(
        theta, abs=1e-14
    )


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_inverse_map_stays_interior_and_monotone(chi):
    theta = colatitude_of_mercator(chi)
    assert 0.0 < theta < math.pi
    assert colatitude_of_mercator(chi + 0.5) > theta


@pytest.mark.parametrize("theta", [0.0, -0.3, np.pi, 3.5])
def test_mercator_pole_domain_error(theta):
    with pytest.raises(ValueError):
        mercator_of_colatitude(theta)


def test_sech_identity_on_nodes():
    # sin(theta) = sech(chi), the corrected conformal-factor identity
    for kind in ("gauss-legendre", "uniform-interior"):
        g = build_grid(GridSpec(nlat=96, nlon=4, kind=kind))
        assert np.max(np.abs(g.sin_thetas - 1.0 / np.cosh(g.chis))) < 1e-13


@pytest.mark.parametrize("nlat,nlon", [(3, 8), (8, 3), (0, 0)])
def test_invalid_spec_rejected(nlat, nlon):
    with pytest.raises(ValueError):
        GridSpec(nlat=nlat, nlon=nlon)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        GridSpec(nlat=8, nlon=8, kind="icosahedral")


def test_field_shape_mismatch_rejected(gl_grid):
    with pytest.raises(ValueError):
        ScalarField(gl_grid, np.zeros((3, 3)))


def test_operators_and_transforms_share_one_grid_equality():
    # equal nodes are the same grid whatever the weights or the object; other
    # nodes raise, with the message of the layer that caught them
    g = build_grid(GridSpec(nlat=8, nlon=8))
    twin = grid_from_colatitudes(g.thetas.copy(), 8)
    assert twin is not g and not np.array_equal(twin.weights, g.weights)
    zero = lambda grid: ScalarField(grid, np.zeros((grid.nlat, grid.nlon)))
    assert np.array_equal(operators.jacobian(zero(g), zero(twin)).values, zero(g).values)
    plan = spharm.build_plan(g, 3)
    spharm.analyze(zero(twin), plan)
    for other in (build_grid(GridSpec(nlat=10, nlon=8)), build_grid(GridSpec(nlat=8, nlon=16))):
        with pytest.raises(ValueError, match="^fields live on different grids$"):
            operators.jacobian(zero(g), zero(other))
        with pytest.raises(ValueError, match="^field grid does not match the transform plan$"):
            spharm.analyze(zero(other), plan)


def test_grid_arrays_are_immutable(gl_grid):
    with pytest.raises(ValueError):
        gl_grid.thetas[0] = 1.0


def test_cell_weights_telescope_exactly():
    thetas = np.sort(np.random.default_rng(0).uniform(0.05, np.pi - 0.05, size=33))
    w = cell_weights(thetas)
    assert np.all(w > 0.0)
    assert float(w.sum()) == pytest.approx(2.0, abs=1e-15)
    g = grid_from_colatitudes(thetas, 8)
    assert g.nlat == 33


@pytest.mark.parametrize("equator", [[], [np.pi / 2]], ids=["even", "odd"])
def test_cell_weights_are_mirrored_on_mirrored_nodes(equator):
    # chi-uniform nodes mirrored bit for bit: cos of the southern edges rounds
    # differently from the northern ones, so the weights are copied across
    north = colatitude_of_mercator(0.01 * np.arange(-300, 0))
    w = cell_weights(np.concatenate((north, equator, np.pi - north[::-1])))
    assert np.array_equal(w[::-1], w)
    assert float(w.sum()) == pytest.approx(2.0, abs=1e-14)


def test_band_max_rejects_a_band_without_rows():
    g = build_grid(GridSpec(nlat=8, nlon=4))
    f = ScalarField(g, np.ones((8, 4)))
    assert band_max(f, (0.0, np.pi)) == 1.0
    with pytest.raises(ValueError, match="band contains no grid rows"):
        band_max(f, (1.0, 1.01))


def test_scalar_field_csv_round_trip(tmp_path):
    g = build_grid(GridSpec(nlat=6, nlon=5))
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal((6, 5)))
    path = tmp_path / "field.csv"
    write_scalar_field(f, path)
    thetas, phis, values = read_scalar_field(path)
    assert np.array_equal(thetas, g.thetas)
    assert np.array_equal(phis, g.phis)
    assert np.array_equal(values, f.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_field_csv_writer_refuses_non_finite_values(tmp_path, bad):
    # the reader refuses them, so the writer must not open the file
    g = build_grid(GridSpec(nlat=4, nlon=4))
    values = np.arange(16.0).reshape(4, 4)
    values[2, 1] = bad
    path = tmp_path / "field.csv"
    with pytest.raises(ValueError, match=rf"1 non-finite values, the first {bad} at theta="):
        write_scalar_field(ScalarField(g, values), path)
    assert not path.exists()


def _phi_major(lines):
    rows = sorted(lines[1:], key=lambda r: tuple(float(x) for x in r.split(",")[1::-1]))
    return lines[:1] + rows


@pytest.mark.parametrize(
    "corrupt,match",
    [
        (_phi_major, "data row 2: rows must be theta-major"),
        (lambda lines: lines[:-1], "15 rows; a full grid of 4 thetas x 4 phis needs 16"),
        (lambda lines: lines[:5] + lines[4:-1], "data row 5: rows must be theta-major"),
        (lambda lines: lines[:3] + ["0.5,0.5,nan"] + lines[4:], "data row 3: non-finite"),
        (lambda lines: lines[:3] + ["0.5,0.5"] + lines[4:], "data row 3: expected 3 columns"),
        # a UTF-8 byte-order mark, and a non-ASCII character in a data row
        (lambda lines: ["\ufeff" + lines[0]] + lines[1:], "line 1: byte 0xef is not ASCII$"),
        (lambda lines: lines[:4] + ["0.5,0.5,\u00e9"] + lines[5:], "line 5: byte 0xc3 is not"),
    ],
    ids=["phi-major", "missing-row", "duplicate-row", "nan", "two-columns", "bom", "non-ascii"],
)
def test_scalar_field_csv_rejects_malformed_files(tmp_path, corrupt, match):
    g = build_grid(GridSpec(nlat=4, nlon=4))
    path = tmp_path / "field.csv"
    write_scalar_field(ScalarField(g, np.arange(16.0).reshape(4, 4)), path)
    path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        read_scalar_field(path)


def test_scalar_field_csv_reader_splits_rows_on_commas_only(tmp_path):
    # a space after a comma belongs to its number, as in the spectral reader
    g = build_grid(GridSpec(nlat=4, nlon=4))
    f = ScalarField(g, np.arange(16.0).reshape(4, 4))
    path = tmp_path / "field.csv"
    write_scalar_field(f, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(",", ", ", 1)
    path.write_text("\n".join(lines) + "\n")
    thetas, phis, values = read_scalar_field(path)
    assert np.array_equal(thetas, g.thetas)
    assert np.array_equal(phis, g.phis)
    assert np.array_equal(values, f.values)


def test_scalar_field_csv_reader_names_the_row_that_does_not_parse(tmp_path):
    # the file and its data row, not numpy's bare message; blank lines are not rows
    g = build_grid(GridSpec(nlat=4, nlon=4))
    path = tmp_path / "field.csv"
    write_scalar_field(ScalarField(g, np.arange(16.0).reshape(4, 4)), path)
    lines = path.read_text().splitlines()
    lines[3] = "0.5,0.5,abc"
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match=r"field\.csv data row 3: cannot parse '0\.5,0\.5,abc'$"):
        read_scalar_field(path)


def test_weights_must_sum_to_two():
    thetas = np.linspace(0.3, np.pi - 0.3, 8)
    with pytest.raises(ValueError):
        Grid(thetas=thetas, phis=2 * np.pi * np.arange(8) / 8, weights=np.ones(8))


@pytest.fixture
def legendre_calls(monkeypatch):
    """The node count of every ``roots_legendre`` call that ``build_grid`` makes."""
    calls = []
    real = sgrid.roots_legendre
    monkeypatch.setattr(sgrid, "roots_legendre", lambda n: calls.append(n) or real(n))
    return calls


def test_second_check_suite_builds_no_grid(legendre_calls):
    build_grid.cache_clear()
    args = dict(nlat=64, nlon=16, lmax=8, ntheta=512)
    assert all(r.passed for r in verify.run_all_checks(**args))
    assert sorted(legendre_calls) == [64, 128]  # the suite's grid and the zonal check's 128 x 16
    legendre_calls.clear()
    assert all(r.passed for r in verify.run_all_checks(**args))
    assert legendre_calls == []


def test_build_grid_is_cached_per_spec():
    spec = dict(nlat=24, nlon=8, kind="gauss-legendre")
    g = build_grid(GridSpec(**spec))
    assert build_grid(GridSpec(**spec)) is g
    uniform = build_grid(GridSpec(**{**spec, "kind": "uniform-interior"}))
    wider = build_grid(GridSpec(**{**spec, "nlon": 16}))
    assert uniform is not g and not np.array_equal(uniform.thetas, g.thetas)
    assert wider is not g and wider.nlon == 16 and np.array_equal(wider.thetas, g.thetas)


@pytest.mark.parametrize("kind", ["gauss-legendre", "uniform-interior"])
@pytest.mark.parametrize("nlat", [4, 5, 16, 17, 96, 97])
def test_default_band_rows_are_the_rows_of_the_band_mask(kind, nlat):
    g = build_grid(GridSpec(nlat=nlat, nlon=8, kind=kind))
    rows = g.default_band_rows
    assert np.array_equal(rows, np.flatnonzero(g.band_mask(*sgrid.DEFAULT_BAND)))
    assert rows.size and np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
    assert g.default_band_rows is rows


@pytest.mark.parametrize(
    "name", ["thetas", "phis", "weights", "sin_thetas", "cos_thetas", "chis", "default_band_rows"]
)
def test_cached_grid_is_read_only(name):
    g = build_grid(GridSpec(nlat=12, nlon=8))
    with pytest.raises(ValueError, match="read-only"):
        getattr(g, name)[0] = 1.0
    with pytest.raises(AttributeError):
        setattr(g, name, np.zeros(g.nlat))
    assert build_grid(GridSpec(nlat=12, nlon=8)) is g


def test_failed_grid_build_is_not_cached(legendre_calls):
    # a spec that skipped validation: the 3 Gauss nodes are too few for a Grid
    spec = object.__new__(GridSpec)
    for field, value in (("nlat", 3), ("nlon", 8), ("kind", "gauss-legendre")):
        object.__setattr__(spec, field, value)
    for _ in range(2):
        with pytest.raises(ValueError, match="at least 4 colatitude nodes"):
            build_grid(spec)
    assert legendre_calls == [3, 3]


def test_transform_plan_shares_the_cached_grid():
    timestep.transform_plan_for.cache_clear()
    plan = timestep.transform_plan_for(12, True)
    g = plan.grid
    assert build_grid(GridSpec(nlat=g.nlat, nlon=g.nlon)) is g
