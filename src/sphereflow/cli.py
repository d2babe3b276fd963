"""Command-line front end emitting reproducible CSV.

Subcommands: ``fields`` samples the vortex-pair solution onto a grid,
``residual`` evaluates the stationary-equation residual, ``checks`` runs the
identity suite (exit status 0 iff every check passes), ``evolve`` integrates
the unsteady equation, and ``gauss`` prints the vorticity budget.  Identical
arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import exact, operators, spharm, timestep, verify
from .grid import (
    DEFAULT_BAND,
    GridSpec,
    ScalarField,
    band_max,
    build_grid,
    require_finite,
    write_scalar_field,
)


def _add_grid_args(p, nlat=64, nlon=128):
    p.add_argument("--nlat", type=int, default=nlat, help="colatitude nodes")
    p.add_argument("--nlon", type=int, default=nlon, help="longitude nodes")
    p.add_argument(
        "--grid",
        choices=("gauss", "uniform"),
        default="gauss",
        help="node placement: Gauss-Legendre or uniform interior",
    )


def _add_solution_args(p):
    p.add_argument("--k1", type=float, default=1.0, help="vortex-pair strength")
    p.add_argument("--k2", type=float, default=0.0, help="constant vorticity offset")


def _add_band_args(p):
    p.add_argument("--band-lo", type=float, default=DEFAULT_BAND[0])
    p.add_argument("--band-hi", type=float, default=DEFAULT_BAND[1])


def _grid_kind(name: str) -> str:
    return "gauss-legendre" if name == "gauss" else "uniform-interior"


def _build_grid(args):
    return build_grid(GridSpec(nlat=args.nlat, nlon=args.nlon, kind=_grid_kind(args.grid)))


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_fields(args) -> int:
    grid = _build_grid(args)
    p = exact.VortexPairParams(k1=args.k1, k2=args.k2)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports an overflow
        fields = {
            "omega.csv": exact.vorticity_field(p, grid),
            "psi.csv": exact.streamfunction_field(p, grid),
            "uphi.csv": ScalarField(grid, exact.velocity_field(p, grid).u_phi),
        }
    for name, f in fields.items():  # all before any write: a refused field leaves no file
        require_finite(f, name)
    out = _out_dir(args)
    for name, f in fields.items():
        write_scalar_field(f, os.path.join(out, name))
    return 0


def cmd_residual(args) -> int:
    grid = _build_grid(args)
    p = exact.VortexPairParams(k1=args.k1, k2=args.k2)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports an overflow
        psi = exact.streamfunction_field(p, grid)
        omega = exact.vorticity_field(p, grid)
        res = operators.ns_residual(psi, omega, args.nu)
        band = (args.band_lo, args.band_hi)
        res_max = band_max(res, band)
    require_finite(res, "residual.csv")  # before the directory: a refused run leaves nothing
    out = _out_dir(args)
    write_scalar_field(res, os.path.join(out, "residual.csv"))
    print(f"max |residual| on band [{band[0]:.17g}, {band[1]:.17g}]: {res_max:.17g}")
    return 0


NEAR_POLE = 0.05


def cmd_checks(args) -> int:
    band = (args.band_lo, args.band_hi)
    if band[0] < NEAR_POLE or band[1] > np.pi - NEAR_POLE:
        print(
            f"warning: band [{band[0]:g}, {band[1]:g}] reaches within {NEAR_POLE:g} "
            "of a pole; residuals there sit on the vortex-core singularity",
            file=sys.stderr,
        )
    reports = verify.run_all_checks(
        nlat=args.nlat,
        nlon=args.nlon,
        kind=_grid_kind(args.grid),
        p=exact.VortexPairParams(k1=args.k1, k2=args.k2),
        band=band,
        lmax=args.lmax,
        phi_model=args.phi_model,
    )
    out = _out_dir(args)
    verify.write_reports(reports, os.path.join(out, "checks.csv"))
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status} {r.name}: max|residual| = {r.max_abs_residual:.3e} (tol {r.tolerance:.1e})")
    return 0 if all(r.passed for r in reports) else 1


def _initial_condition(spec: str, lmax: int, p):
    if spec == "basic":
        return timestep.project_vortex_pair(p, lmax)
    if spec.startswith("harmonic:"):
        try:
            l_str, m_str = spec.split(":", 1)[1].split(",")
            l, m = int(l_str), int(m_str)
        except ValueError as exc:
            raise ValueError(f"cannot parse harmonic initial condition {spec!r}") from exc
        return spharm.real_single_mode(lmax, l, m)
    if spec.startswith("file:"):
        return spharm.read_spectral_field(spec.split(":", 1)[1], lmax)
    raise ValueError(f"unknown initial condition {spec!r}")


def cmd_evolve(args) -> int:
    cfg = timestep.EvolutionConfig(
        nu=args.nu,
        dt=args.dt,
        steps=args.steps,
        lmax=args.lmax,
        dealias=not args.no_dealias,
    )
    p = exact.VortexPairParams(k1=args.k1, k2=args.k2)
    omega0 = _initial_condition(args.init, args.lmax, p)
    series = timestep.evolve(omega0, cfg)
    out = _out_dir(args)
    timestep.write_time_series(series, os.path.join(out, "timeseries.csv"))
    print(
        f"t = {series.times[-1]:.17g}: enstrophy ratio "
        f"{series.enstrophy[-1] / max(series.enstrophy[0], np.finfo(float).tiny):.17g}, "
        f"drift {series.drift[-1]:.17g}"
    )
    return 0


def cmd_gauss(args) -> int:
    p = exact.VortexPairParams(k1=args.k1, k2=args.k2)
    north = exact.hemisphere_vorticity_integral(p, "north")
    south = exact.hemisphere_vorticity_integral(p, "south")
    total, expected = north + south, 4.0 * np.pi * args.k2
    if not np.all(np.isfinite([total, north, south, expected])):
        raise ValueError(
            f"the vorticity budget overflows double precision: total {total:.17g} "
            f"north {north:.17g} south {south:.17g} (expected total {expected:.17g})"
        )
    print(
        f"total {total:.17g} north {north:.17g} south {south:.17g} "
        f"(expected total {expected:.17g})"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereflow",
        description="Stationary flows on the unit sphere: fields, checks, evolution.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fields", help="sample the vortex-pair solution as CSV")
    _add_grid_args(p)
    _add_solution_args(p)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_fields)

    p = sub.add_parser("residual", help="stationary-equation residual of the solution")
    _add_grid_args(p, nlat=256, nlon=128)
    _add_solution_args(p)
    _add_band_args(p)
    p.add_argument("--nu", type=float, default=0.01, help="kinematic viscosity")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("checks", help="run the identity-check suite")
    _add_grid_args(p, nlat=256, nlon=128)
    _add_solution_args(p)
    _add_band_args(p)
    p.add_argument("--lmax", type=int, default=64, help="truncation for spectral checks")
    p.add_argument(
        "--phi-model",
        choices=("cosh2", "exp"),
        default="cosh2",
        help="candidate gradient-modulus function (exp is the failing contrast)",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_checks)

    p = sub.add_parser("evolve", help="integrate the unsteady vorticity equation")
    _add_solution_args(p)
    p.add_argument("--lmax", type=int, default=31)
    p.add_argument("--nu", type=float, default=0.01)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument(
        "--init",
        default="basic",
        help="initial condition: basic | harmonic:l,m | file:path",
    )
    p.add_argument("--no-dealias", action="store_true", help="disable transform-grid dealiasing")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("gauss", help="total and per-hemisphere vorticity")
    _add_solution_args(p)
    p.set_defaults(func=cmd_gauss)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, timestep.InstabilityError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
