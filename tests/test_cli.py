import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphereflow import spharm, verify
from sphereflow.cli import main
from sphereflow.grid import read_scalar_field

from conftest import K1_SWEEP

DATA = Path(__file__).parent / "data"

# checks.csv written by the CLI with these arguments; every check keeps its bytes
CHECKS_PINS = {
    "checks_default": [],
    "checks_k1_m2": ["--k1", "-2"],
    "checks_k1_3": ["--k1", "3"],
    "checks_uniform_64x32": ["--grid", "uniform", "--nlat", "64", "--nlon", "32"],
    "checks_phi_exp": ["--phi-model", "exp"],
}

# omega, psi and uphi written by ``fields --nlat 16 --nlon 8`` with these arguments;
# each file keeps its bytes
FIELDS_PINS = {
    "fields_gauss_16x8": [],
    "fields_uniform_16x8": ["--grid", "uniform"],
}


def test_fields_outputs(tmp_path):
    out = tmp_path / "fields"
    assert main(["fields", "--nlat", "64", "--nlon", "16", "--out", str(out)]) == 0
    for name in ("omega.csv", "psi.csv", "uphi.csv"):
        assert (out / name).exists()
    _, _, omega = read_scalar_field(out / "omega.csv")
    assert np.max(np.abs(omega + omega[::-1, :])) < 1e-12  # antisymmetric rows
    thetas, _, uphi = read_scalar_field(out / "uphi.csv")
    row = np.argmax(np.abs(uphi[:, 0]))
    assert abs(thetas[row] - math.pi / 2) <= math.pi / 64  # within one row of the equator
    assert abs(abs(uphi[row, 0]) - math.log(2.0)) < 1e-3


def test_fields_zero_family(tmp_path):
    out = tmp_path / "zero"
    assert main(["fields", "--nlat", "8", "--nlon", "8", "--k1", "0", "--k2", "0", "--out", str(out)]) == 0
    for name in ("omega.csv", "psi.csv", "uphi.csv"):
        _, _, values = read_scalar_field(out / name)
        assert np.max(np.abs(values)) == 0.0


def test_checks_default_exit_zero_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["checks", "--nlat", "128", "--nlon", "32", "--out", str(out1)]) == 0
    assert main(["checks", "--nlat", "128", "--nlon", "32", "--out", str(out2)]) == 0
    assert (out1 / "checks.csv").read_bytes() == (out2 / "checks.csv").read_bytes()


def test_checks_near_pole_band_warns_but_passes(tmp_path, capsys):
    code = main(
        ["checks", "--nlat", "128", "--nlon", "32", "--band-lo", "0.01", "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err


def test_checks_reject_inadmissible_family(tmp_path, capsys):
    code = main(["checks", "--k2", "0.5", "--out", str(tmp_path)])
    assert code == 2
    assert "k2" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CHECKS_PINS))
def test_checks_csv_is_pinned(tmp_path, name):
    code = main(["checks", *CHECKS_PINS[name], "--out", str(tmp_path)])
    assert code == (1 if name == "checks_phi_exp" else 0)
    assert (tmp_path / "checks.csv").read_bytes() == (DATA / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(FIELDS_PINS))
def test_fields_csv_is_pinned(tmp_path, name):
    args = ["fields", "--nlat", "16", "--nlon", "8", *FIELDS_PINS[name], "--out", str(tmp_path)]
    assert main(args) == 0
    for field in ("omega", "psi", "uphi"):
        assert (tmp_path / f"{field}.csv").read_bytes() == (DATA / f"{name}_{field}.csv").read_bytes()


@pytest.mark.parametrize("k1", K1_SWEEP + [s * k for k in verify.K1_RANGE for s in (1.0, -1.0)])
def test_checks_pass_at_every_scale_of_k1(tmp_path, k1):
    # omega and Phi are functions of omega/k1, so no check may depend on |k1|,
    # up to both ends of the accepted range
    assert main(["checks", f"--k1={k1!r}", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("k1", [0.0, 1e-200, -1e-151, 1e151, -1e155, 1e300])
def test_checks_reject_k1_outside_its_range(tmp_path, capsys, k1):
    # beyond the range k1^2 and the squared profile gradients overflow, or
    # k1^2 sinks into subnormals: one error line, no warning, no checks.csv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["checks", f"--k1={k1!r}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: |k1| = ") and err.count("\n") == 1
    assert not (tmp_path / "checks.csv").exists()


def test_checks_exponential_model_fails(tmp_path):
    code = main(
        ["checks", "--nlat", "128", "--nlon", "32", "--phi-model", "exp", "--out", str(tmp_path)]
    )
    assert code != 0
    text = (tmp_path / "checks.csv").read_text()
    assert ",false" in text


def test_evolve_single_harmonic_decay(tmp_path, capsys):
    code = main(
        [
            "evolve", "--init", "harmonic:2,1", "--lmax", "4", "--nu", "0.01",
            "--dt", "2e-3", "--steps", "500", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    first = np.array(lines[1].split(","), dtype=float)
    last = np.array(lines[-1].split(","), dtype=float)
    amplitude_ratio = math.sqrt(last[2] / first[2])
    assert amplitude_ratio == pytest.approx(math.exp(-0.06), abs=1e-4)


def test_evolve_basic_inviscid_zero_drift(tmp_path):
    code = main(
        [
            "evolve", "--init", "basic", "--lmax", "15", "--nu", "0",
            "--dt", "0.05", "--steps", "20", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
    drift = np.array([float(line.split(",")[4]) for line in lines])
    assert np.max(drift) <= 1e-12


def test_evolve_rejects_offset_vortex_pair(tmp_path, capsys):
    # a_{0,0} = k2 sqrt(4 pi) != 0 violates the Gauss constraint at the first tendency
    out = tmp_path / "out"
    assert main(["evolve", "--init", "basic", "--k2", "0.5", "--out", str(out)]) == 2
    assert "violates the zero-total-vorticity constraint" in capsys.readouterr().err
    assert not (out / "timeseries.csv").exists()


def test_evolve_from_spectral_file(tmp_path):
    path = tmp_path / "ic.csv"
    spharm.write_spectral_field(spharm.real_single_mode(3, 2, 1), path)
    code = main(
        [
            "evolve", "--init", f"file:{path}", "--lmax", "6", "--nu", "0.05",
            "--dt", "0.01", "--steps", "10", "--out", str(tmp_path),
        ]
    )
    assert code == 0


def test_evolve_rejects_non_finite_spectral_file(tmp_path, capsys):
    # a nan coefficient used to surface as "coefficients with |m| > l must be zero"
    path = tmp_path / "ic.csv"
    path.write_text("l,m,re,im\n1,0,1.0,0.0\n2,1,nan,0.0\n")
    argv = ["evolve", "--init", f"file:{path}", "--lmax", "6", "--steps", "2"]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "line 3: non-finite coefficient" in capsys.readouterr().err


def test_evolve_rejects_huge_degree_before_allocating(tmp_path):
    # the degree is checked against --lmax before the reader sizes its array
    path = tmp_path / "ic.csv"
    path.write_text("l,m,re,im\n100000000,0,1.0,0.0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sphereflow", "evolve", "--init", f"file:{path}",
         "--lmax", "6", "--steps", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "line 2: degree l=100000000 exceeds the truncation lmax=6" in proc.stderr


def test_evolve_names_a_non_ascii_byte_in_the_spectral_file(tmp_path, capsys):
    # a UTF-8 byte-order mark used to surface as the codec's bare message
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffl,m,re,im\n1,0,1.0,0.0\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["evolve", "--init", f"file:{path}", "--lmax", "4", "--steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path} line 1: byte 0xef is not ASCII\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,line,pair",
    [
        ("2,1,0.5,0.25\n2,-1,0.5,0.25\n", 4, "l=2,m=-1"),  # should be -0.5+0.25i
        ("1,1,0.5,0.25\n", 3, "l=1,m=-1"),  # the (1, -1) partner is missing
    ],
    ids=["mismatched-pair", "missing-partner"],
)
def test_evolve_rejects_asymmetric_spectral_file(tmp_path, rows, line, pair):
    # the reader checks each m < 0 row against its m > 0 partner and names the line
    path = tmp_path / "ic.csv"
    path.write_text("l,m,re,im\n1,0,1.0,0.0\n" + rows)
    proc = subprocess.run(
        [sys.executable, "-m", "sphereflow", "evolve", "--init", f"file:{path}",
         "--lmax", "6", "--steps", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"line {line}: a_({pair})" in proc.stderr


def test_zonal_evolve_holds_no_full_legendre_table(tmp_path):
    # at lmax 383 the full tables would be 341 MB; the zonal run reads only
    # their order-0 block.  The child reports its own peak resident set, VmHWM
    # (ru_maxrss would carry this process's peak across the exec), in kB, and
    # one BLAS thread keeps thread buffers out of it
    script = (
        "import re, sys\n"
        "from sphereflow.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "evolve", "--init", "basic", "--lmax", "383",
         "--steps", "20", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) / 1024 < 150
    assert (tmp_path / "timeseries.csv").exists()


def test_evolve_blow_up_exits_one_without_output(tmp_path):
    # dt = 1e200 overflows the first step to NaN; the instability test must
    # catch a NaN maximum (NaN > bound is False) and leave no CSV behind
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sphereflow", "evolve", "--init",
         "file:tests/data/golden_ic_l20.csv", "--lmax", "24", "--nu", "0",
         "--dt", "1e200", "--steps", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "|omega| reached nan at t=1e+200" in proc.stderr
    assert not (out / "timeseries.csv").exists()


@pytest.mark.parametrize("init", ["basic", "file", "file-with-mean"])
def test_evolve_rejects_an_initial_state_that_overflows(tmp_path, init):
    # energy and enstrophy sum |a_lm|^2, which overflows for |a_lm| ~ 1e200:
    # exit 2 before any step, not a series of inf or a blow-up after one; with
    # a mean too, the Gauss check must not warn of its overflowing norm first
    if init == "basic":
        args = ["--init", "basic", "--k1", "1e300", "--lmax", "15"]
    else:
        ic = tmp_path / "huge.csv"
        mean = "0,0,1,0\n" if init == "file-with-mean" else ""
        ic.write_text(f"l,m,re,im\n{mean}2,-1,-1e200,0\n2,1,1e200,0\n3,0,1,0\n")
        args = ["--init", f"file:{ic}", "--lmax", "8"]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "sphereflow", "evolve", *args, "--steps", "2", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent.parent,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: the initial state's energy (inf) or enstrophy (inf) overflows double precision"
    ]
    assert not (out / "timeseries.csv").exists()


def test_evolve_rejects_non_finite_viscosity(tmp_path, capsys):
    argv = ["evolve", "--init", "harmonic:2,1", "--lmax", "4", "--nu", "nan",
            "--dt", "1e-3", "--steps", "2", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "viscosity must be finite" in capsys.readouterr().err


def test_evolve_outputs_are_deterministic(tmp_path):
    argv = ["evolve", "--init", "basic", "--lmax", "10", "--nu", "0.02",
            "--dt", "0.01", "--steps", "25"]
    assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
    assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1/timeseries.csv").read_bytes() == (
        tmp_path / "r2/timeseries.csv"
    ).read_bytes()


def test_evolve_takes_a_stiff_viscous_step_exactly(tmp_path, capsys):
    # dt*nu*lmax*(lmax+1) = 40, but the integrating factor applies the decay
    # exactly: the l = 2 mode has a zero bracket, and its enstrophy decays as
    # exp(-2 nu l(l+1) t) = exp(-1.2) at t = 0.1
    argv = ["evolve", "--init", "harmonic:2,1", "--lmax", "63", "--nu", "1.0",
            "--dt", "0.01", "--steps", "10", "--out", str(tmp_path)]
    assert main(argv) == 0
    ratio = float(capsys.readouterr().out.split()[5].rstrip(","))
    assert ratio == pytest.approx(math.exp(-1.2), rel=1e-12)
    t, _, enstrophy, _, _ = np.loadtxt(tmp_path / "timeseries.csv", delimiter=",", skiprows=1).T
    assert t[-1] == pytest.approx(0.1, rel=1e-15)
    assert enstrophy[-1] / enstrophy[0] == ratio


@pytest.mark.parametrize("nu,dt,name", [("0", "1e308", "dt*steps"), ("1e200", "1e200", "nu*dt")])
def test_evolve_rejects_a_run_whose_time_or_decay_overflows(tmp_path, capsys, nu, dt, name):
    # t = dt*steps would be written as inf, and nu*dt = inf would make E_0 = NaN
    # and report a false instability
    out = tmp_path / "out"
    argv = ["evolve", "--init", "basic", "--lmax", "15", "--nu", nu, "--dt", dt,
            "--steps", "2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name} = inf overflows double precision"
    ]
    assert not (out / "timeseries.csv").exists()


def test_evolve_rejects_bad_init(tmp_path):
    assert main(["evolve", "--init", "harmonic:two,1", "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--init", "vortex", "--out", str(tmp_path)]) == 2


def test_gauss_budget(capsys):
    assert main(["gauss", "--k1", "1", "--k2", "0"]) == 0
    fields = capsys.readouterr().out.split()
    total, north = float(fields[1]), float(fields[3])
    assert abs(total) < 1e-8
    assert north == pytest.approx(-2 * math.pi * math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("k1,k2,expected", [(0.0, 1.0, 4 * math.pi), (1.0, 0.5, 2 * math.pi)])
def test_gauss_budget_offsets(capsys, k1, k2, expected):
    assert main(["gauss", "--k1", str(k1), "--k2", str(k2)]) == 0
    total = float(capsys.readouterr().out.split()[1])
    assert total == pytest.approx(expected, abs=1e-8)


def test_residual_subcommand(tmp_path, capsys):
    code = main(
        ["residual", "--nlat", "64", "--nlon", "8", "--nu", "1.0", "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "residual.csv").exists()
    value = float(capsys.readouterr().out.rsplit(":", 1)[1])
    assert value < 1e-8


_SUBCOMMAND_ARGS = {
    "fields": ["--nlat", "8", "--nlon", "8"],
    "residual": ["--nlat", "8", "--nlon", "8"],
    "checks": [],
    "evolve": ["--lmax", "4", "--steps", "2"],
    "gauss": [],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--k1", "--k2"])
@pytest.mark.parametrize("subcommand", sorted(_SUBCOMMAND_ARGS))
def test_non_finite_vortex_pair_rejected(tmp_path, capsys, subcommand, flag, value):
    # before, residual and gauss printed nan with exit 0, and evolve and checks
    # failed later with messages that did not name the parameter
    argv = [subcommand, *_SUBCOMMAND_ARGS[subcommand], f"{flag}={value}"]
    if subcommand != "gauss":
        argv += ["--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{flag[2:]} must be finite, got {float(value)}" in err
    assert "Traceback" not in err


_OVERFLOWING_RUNS = {
    # each used to exit 0: fields wrote 424 inf values to omega.csv, residual
    # wrote NaN everywhere, and gauss printed "total inf"
    "fields": ["fields", "--nlat", "512", "--nlon", "4", "--k1", "1e308"],
    "residual": ["residual", "--nlat", "512", "--nlon", "4", "--k1", "1e308"],
    "gauss": ["gauss", "--k1", "1e308", "--k2", "1e308"],
}


@pytest.mark.parametrize("subcommand", sorted(_OVERFLOWING_RUNS))
def test_overflowing_output_exits_two_without_csv(tmp_path, capsys, subcommand):
    argv = _OVERFLOWING_RUNS[subcommand]
    out = tmp_path / "d"
    if subcommand != "gauss":
        argv = [*argv, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "non-finite" in captured.err or "overflows" in captured.err
    # no CSV and not even the --out directory: residual used to create it
    # before it refused the NaN residual
    assert not out.exists()


def test_residual_rejects_non_finite_viscosity(tmp_path, capsys):
    argv = ["residual", "--nlat", "8", "--nlon", "8", "--nu", "nan", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "viscosity must be finite and nonnegative, got nan" in capsys.readouterr().err


def test_residual_band_without_rows_exits_two_before_writing(tmp_path, capsys):
    # no row of the 8-row Gauss grid lies in [1.0, 1.01]
    argv = ["residual", "--nlat", "8", "--nlon", "8", "--band-lo", "1.0", "--band-hi", "1.01"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert "band contains no grid rows" in capsys.readouterr().err
    assert not (tmp_path / "residual.csv").exists()


@pytest.mark.parametrize("command", ["checks", "residual"])
@pytest.mark.parametrize(
    "lo,hi,shown",
    [("nan", "2", "[nan, 2]"), ("1", "nan", "[1, nan]"), ("0.5", "0.45", "[0.5, 0.45]"),
     ("1", "1", "[1, 1]")],
    ids=["nan-lo", "nan-hi", "reversed", "equal"],
)
def test_nan_or_reversed_band_exits_two_naming_the_band(tmp_path, capsys, command, lo, hi, shown):
    # checks said "colatitude must be finite" or "band does not intersect the
    # pole-excluded core", residual "band contains no grid rows"
    argv = [command, "--nlat", "8", "--nlon", "8", "--band-lo", lo, "--band-hi", hi]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: band {shown} needs lo < hi, with neither NaN\n"
    assert not (tmp_path / "out").exists()


def test_evolve_out_of_memory_exits_one_without_traceback(tmp_path, capsys):
    # the (L+1)^2 spectrum at L = 1e7 is 1.42 PiB, beyond any address space,
    # so numpy refuses it before allocating anything
    argv = ["evolve", "--lmax", "10000000", "--nu", "0", "--steps", "1", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 1.42 PiB")
    assert "Traceback" not in err
    assert not (tmp_path / "timeseries.csv").exists()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sphereflow", "gauss", "--k1", "0", "--k2", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout.split()[1]) == pytest.approx(4 * math.pi, abs=1e-8)
