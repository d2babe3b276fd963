"""Decomposition pass of the traced run and the per-layer metrics derived from it.

A job calls into some layers only indirectly: ``evolve`` runs the spharm
transforms inside, ``run_all_checks`` runs the checks on a thread pool.  The
decomposition pass calls those layers' public functions directly, on the
last traced job's inputs (its k1, and the workload's plan and vorticity
where it has them), with each call inside a span parented to that job.  It
also covers the layers the workload never touches, at the sizes named in
``workloads.SCALES``, so every traced run reports every per-layer metric and
a change can be checked for leaving the other layers flat.  A call whose
span the workload's own jobs already recorded is not repeated.

Counts marked *computed* come from array shapes.  They repeat exactly.
"""

from __future__ import annotations

import math
import os
import statistics

import numpy as np

from sphereflow import cli, exact, grid, operators, spharm, timestep, verify

import workloads

CHECK_NAMES = (
    "vanishing_jacobian",
    "harmonic_vorticity",
    "gradient_modulus_ode",
    "mercator_obstruction",
    "functional_relation_identities",
    "zonal_consistency",
)


class Context:
    """Inputs of the decomposition pass, taken from the workload when it has them."""

    def __init__(self, wl: workloads.Workload, job_index: int):
        self.sizes = wl.sizes
        self.workdir = wl.workdir
        self.k1 = wl.job_k1(job_index)
        self.rng = np.random.default_rng([wl.seed, 1])
        self.plans = {}
        self.fields = {}
        if isinstance(wl, workloads.Evolve):
            self.plans[wl.cfg.lmax] = wl.plan
            self.fields[wl.cfg.lmax] = wl.omega0
        # fields-io jobs leave their CSVs behind; other workloads run the CLI here
        self.fields_dir = wl.out if isinstance(wl, workloads.FieldsIO) else None

    def plan(self, tracer, L):
        if L not in self.plans:
            with tracer.span("timestep.transform_plan_for", f"l{L}"):
                self.plans[L] = timestep.transform_plan_for(L, True)
        return self.plans[L]

    def field(self, tracer, L):
        if L not in self.fields:
            with tracer.span("spharm.random_real_field", f"l{L}"):
                self.fields[L] = workloads.red_field(
                    L, self.rng, self.sizes["evolve"]["amplitude"]
                )
        return self.fields[L]


def decompose(tracer, ctx: Context) -> dict:
    """Run every layer once; returns the values that are not span durations."""
    extra = {}
    p = exact.VortexPairParams(k1=ctx.k1)
    fs = ctx.sizes["fields"]
    reps = ctx.sizes["layers"]["reps"]

    # grid and exact at the fields-io size
    with tracer.span("grid.build_grid"):
        fgrid = grid.build_grid(grid.GridSpec(nlat=fs["nlat"], nlon=fs["nlon"]))
    with tracer.span("exact.vorticity_field"):
        omega_f = exact.vorticity_field(p, fgrid)
    with tracer.span("exact.velocity_field"):
        exact.velocity_field(p, fgrid)
    path = os.path.join(ctx.workdir, "layer_omega.csv")
    with tracer.span("grid.write_scalar_field"):
        grid.write_scalar_field(omega_f, path)
    extra["write_mb"] = os.path.getsize(path) / 1e6
    with tracer.span("grid.read_scalar_field"):
        grid.read_scalar_field(path)
    os.remove(path)

    n_small, n_large = ctx.sizes["layers"]["profile_ns"]
    band = grid.DEFAULT_BAND
    with tracer.span("grid.build_grid"):
        small = grid.build_grid(grid.GridSpec(nlat=n_small, nlon=8))
    with tracer.span("exact.streamfunction_profile", f"n{n_small}"):
        exact.streamfunction_profile(small.thetas, p)
    with tracer.span("exact.streamfunction_profile", f"n{n_large}"):
        exact.streamfunction_profile(np.linspace(band[0], band[1], n_large), p)

    # operators and the six checks, with the arguments run_all_checks uses
    cs = ctx.sizes["checks"]
    with tracer.span("grid.build_grid"):
        cgrid = grid.build_grid(grid.GridSpec(nlat=cs["nlat"], nlon=cs["nlon"]))
    with tracer.span("verify.vortex_pair_fields"):
        psi, omega = verify.vortex_pair_fields(p, cgrid)
    with tracer.span("operators.jacobian"):
        operators.jacobian(psi, omega)
    with tracer.span("operators.laplace_beltrami_fd"):
        operators.laplace_beltrami_fd(omega)
    omega_core = exact.vorticity_profile(np.linspace(band[0], band[1], 257), p)
    chis = np.linspace(
        grid.mercator_of_colatitude(band[0]), grid.mercator_of_colatitude(band[1]), 101
    )
    calls = {
        "vanishing_jacobian": lambda: verify.check_vanishing_jacobian(psi, omega, band=band),
        "harmonic_vorticity": lambda: verify.check_harmonic_vorticity(omega, band=band),
        "gradient_modulus_ode": lambda: verify.check_gradient_modulus_ode(
            lambda w: exact.gradient_modulus_function(w, p), omega_core
        ),
        "mercator_obstruction": lambda: verify.check_mercator_obstruction(chis),
        "functional_relation_identities": lambda: verify.check_functional_relation_identities(
            p, ntheta=cs["ntheta"], band=band
        ),
        "zonal_consistency": lambda: verify.check_zonal_consistency(p),
    }
    reports = []
    for name in CHECK_NAMES:
        with tracer.span(f"verify.check_{name}"):
            reports.append(calls[name]())
    extra["max_resid_over_tol"] = max(r.max_abs_residual / r.tolerance for r in reports)
    if not tracer.has("verify.run_all_checks"):
        with tracer.span("verify.run_all_checks"):
            verify.run_all_checks(
                nlat=cs["nlat"], nlon=cs["nlon"], lmax=cs["lmax"], ntheta=cs["ntheta"], p=p
            )

    # spharm transforms on each truncation's dealiased plan
    for L in ctx.sizes["layers"]["spharm_ls"]:
        plan = ctx.plan(tracer, L)
        with tracer.span("spharm.build_plan", f"l{L}"):
            spharm.build_plan(plan.grid, L)
        field = ctx.field(tracer, L)
        for _ in range(reps):
            with tracer.span("spharm.synthesize", f"l{L}"):
                values = spharm.synthesize(field, plan)
            with tracer.span("spharm.analyze", f"l{L}"):
                spharm.analyze(values, plan)
            with tracer.span("spharm.synthesize_gradient", f"l{L}"):
                spharm.synthesize_gradient(field, plan)

    # timestep: one tendency (nu = 0), and evolve at 1 and k steps for the step cost
    dt = ctx.sizes["evolve"]["dt"]
    for L in ctx.sizes["layers"]["rhs_ls"]:
        plan, field = ctx.plan(tracer, L), ctx.field(tracer, L)
        cfg = timestep.EvolutionConfig(nu=0.0, dt=dt, steps=1, lmax=L)
        for _ in range(reps):
            with tracer.span("timestep.rhs", f"l{L}"):
                timestep.rhs(field, cfg, plan)
    for L, step_reps in ctx.sizes["layers"]["step_reps"].items():
        field = ctx.field(tracer, L)
        # evolve-l127 jobs already recorded multi-step evolve spans at their lmax
        have_multi = max(_evolve_walls(tracer, L), default=1) > 1
        for _ in range(step_reps):
            for steps in (1,) if have_multi else (1, 2):
                cfg = timestep.EvolutionConfig(nu=0.0, dt=dt, steps=steps, lmax=L)
                with tracer.span("timestep.evolve", f"l{L}", steps=steps):
                    timestep.evolve(field, cfg)

    ds = ctx.sizes["drift"]
    for L in ds["lmaxes"]:
        with tracer.span("timestep.project_vortex_pair", f"l{L}"):
            timestep.project_vortex_pair(p, L)
        if not tracer.has("timestep.steadiness_drift", f"l{L}"):
            with tracer.span("timestep.steadiness_drift", f"l{L}"):
                timestep.steadiness_drift(p, L, ds["nu"], ds["t_final"])

    if ctx.fields_dir is not None:
        extra["fields_out_mb"] = _csv_mb(ctx.fields_dir)
    else:
        out = os.path.join(ctx.workdir, "layer_fields")
        argv = [
            "fields", "--nlat", str(fs["nlat"]), "--nlon", str(fs["nlon"]),
            "--k1", repr(ctx.k1), "--out", out,
        ]
        with tracer.span("cli.fields"):
            if cli.main(argv) != 0:
                raise RuntimeError("sphereflow fields failed in the decomposition pass")
        extra["fields_out_mb"] = _csv_mb(out)
        for name in workloads.FIELD_NAMES:
            os.remove(os.path.join(out, f"{name}.csv"))
        os.rmdir(out)
    return extra


def _csv_mb(directory) -> float:
    """Size of the three CSVs ``sphereflow fields`` writes into ``directory``."""
    return sum(
        os.path.getsize(os.path.join(directory, f"{name}.csv")) for name in workloads.FIELD_NAMES
    ) / 1e6


def _evolve_walls(tracer, L):
    """{steps: [wall seconds]} of the traced evolve calls at lmax L."""
    walls = {}
    for s in tracer.spans:
        if s["name"] == "timestep.evolve" and s["size"] == f"l{L}":
            walls.setdefault(s["steps"], []).append(s["end"] - s["start"])
    return walls


def legendre_flop(plan) -> int:
    """Legendre-stage flops of one advection, counted on the dense tables.

    An advection is two ``synthesize_gradient`` calls (two table contractions
    each) and one ``analyze``; each contraction runs over the full
    (nlat, L+1, L+1) table for m >= 0 and (nlat, L+1, L) for m < 0, at 4
    flops per real-table times complex-coefficient multiply-add.
    """
    L, nlat = plan.lmax, plan.grid.nlat
    return 5 * 4 * nlat * (L + 1) * (2 * L + 1)


def fft_flop(plan) -> int:
    """FFT flops of one advection: five length-nlon transforms per row, 5 N log2 N each."""
    nlon, nlat = plan.grid.nlon, plan.grid.nlat
    return 5 * nlat * 5 * nlon * int(math.log2(nlon))


def _median_ms(tracer, name, size=None):
    d = tracer.durations(name, size)
    if not d:
        raise RuntimeError(f"no span named {name} {size or ''}")
    return 1e3 * statistics.median(d)


def _step_ms(tracer, L):
    """(evolve with k steps - evolve with 1 step) / (k - 1), k the largest traced."""
    walls = _evolve_walls(tracer, L)
    k = max(walls)
    return 1e3 * (statistics.median(walls[k]) - statistics.median(walls[1])) / (k - 1)


def metric_names(sizes) -> list:
    """Names of the per-layer metrics, in the order :func:`layer_metrics` emits them."""
    lay = sizes["layers"]
    n_small, n_large = lay["profile_ns"]
    names = [
        "grid.build_grid_ms",
        "grid.write_scalar_field_ms",
        "grid.write_mb_per_s",
        "grid.read_scalar_field_ms",
        f"exact.streamfunction_profile_ms.n{n_large}",
        f"exact.streamfunction_profile_ms.n{n_small}",
        "exact.vorticity_field_ms",
        "exact.velocity_field_ms",
        "operators.jacobian_ms",
        "operators.laplace_beltrami_fd_ms",
    ]
    names += [f"verify.check_{n}_ms" for n in CHECK_NAMES]
    names += [
        "verify.run_all_checks_ms",
        "verify.serial_sum_ms",
        "verify.pool_speedup",
        "verify.max_resid_over_tol",
    ]
    for L in lay["spharm_ls"]:
        names += [
            f"spharm.build_plan_ms.l{L}",
            f"timestep.transform_plan_for_ms.l{L}",
            f"spharm.plan_table_mb.l{L}",
            f"spharm.analyze_ms.l{L}",
            f"spharm.synthesize_ms.l{L}",
            f"spharm.synthesize_gradient_ms.l{L}",
        ]
    for L in lay["rhs_ls"]:
        names += [f"spharm.legendre_mflop.l{L}", f"spharm.fft_mflop.l{L}"]
    names.append(f"spharm.analyze_gflop_per_s.l{max(lay['spharm_ls'])}")
    names += [f"timestep.rhs_ms.l{L}" for L in lay["rhs_ls"]]
    for L in lay["step_reps"]:
        names += [f"timestep.step_ms.l{L}", f"timestep.step_self_ms.l{L}"]
    for L in sizes["drift"]["lmaxes"]:
        names += [f"timestep.project_vortex_pair_ms.l{L}", f"timestep.steadiness_drift_ms.l{L}"]
    names += [
        "cli.fields_ms",
        "cli.fields_out_mb",
        "trace.spans",
        "trace.span_cost_us",
        "trace.job_wall_ratio",
        "trace.job_self_ms",
    ]
    return names


def layer_metrics(tracer, extra, ctx: Context, trace_info) -> dict:
    """Per-layer metrics as {name: (value, unit)}, in :func:`metric_names` order."""
    lay = ctx.sizes["layers"]
    n_small, n_large = lay["profile_ns"]
    ms = lambda name, size=None: (_median_ms(tracer, name, size), "ms")
    m = {
        "grid.build_grid_ms": ms("grid.build_grid"),
        "grid.write_scalar_field_ms": ms("grid.write_scalar_field"),
        "grid.write_mb_per_s": (
            extra["write_mb"] / statistics.median(tracer.durations("grid.write_scalar_field")),
            "MB/s",
        ),
        "grid.read_scalar_field_ms": ms("grid.read_scalar_field"),
        f"exact.streamfunction_profile_ms.n{n_large}": ms("exact.streamfunction_profile", f"n{n_large}"),
        f"exact.streamfunction_profile_ms.n{n_small}": ms("exact.streamfunction_profile", f"n{n_small}"),
        "exact.vorticity_field_ms": ms("exact.vorticity_field"),
        "exact.velocity_field_ms": ms("exact.velocity_field"),
        "operators.jacobian_ms": ms("operators.jacobian"),
        "operators.laplace_beltrami_fd_ms": ms("operators.laplace_beltrami_fd"),
    }
    serial = 0.0
    for name in CHECK_NAMES:
        m[f"verify.check_{name}_ms"] = ms(f"verify.check_{name}")
        serial += m[f"verify.check_{name}_ms"][0]
    pooled = ms("verify.run_all_checks")
    m["verify.run_all_checks_ms"] = pooled
    m["verify.serial_sum_ms"] = (serial, "ms")
    m["verify.pool_speedup"] = (serial / pooled[0], "ratio")
    m["verify.max_resid_over_tol"] = (extra["max_resid_over_tol"], "ratio")
    for L in lay["spharm_ls"]:
        plan = ctx.plans[L]
        m[f"spharm.build_plan_ms.l{L}"] = ms("spharm.build_plan", f"l{L}")
        m[f"timestep.transform_plan_for_ms.l{L}"] = ms("timestep.transform_plan_for", f"l{L}")
        m[f"spharm.plan_table_mb.l{L}"] = ((plan.plm.nbytes + plan.dplm.nbytes) / 1e6, "MB")
        for op in ("analyze", "synthesize", "synthesize_gradient"):
            m[f"spharm.{op}_ms.l{L}"] = ms(f"spharm.{op}", f"l{L}")
    for L in lay["rhs_ls"]:
        m[f"spharm.legendre_mflop.l{L}"] = (legendre_flop(ctx.plans[L]) / 1e6, "Mflop")
        m[f"spharm.fft_mflop.l{L}"] = (fft_flop(ctx.plans[L]) / 1e6, "Mflop")
    top = max(lay["spharm_ls"])
    # analyze is one of the five contractions of an advection
    analyze_flop = legendre_flop(ctx.plans[top]) / 5
    m[f"spharm.analyze_gflop_per_s.l{top}"] = (
        analyze_flop / 1e9 / (m[f"spharm.analyze_ms.l{top}"][0] / 1e3),
        "GFLOP/s",
    )
    for L in lay["rhs_ls"]:
        m[f"timestep.rhs_ms.l{L}"] = ms("timestep.rhs", f"l{L}")
    for L in lay["step_reps"]:
        step = _step_ms(tracer, L)
        m[f"timestep.step_ms.l{L}"] = (step, "ms")
        # RK4 makes four tendency calls; the rest is diagnostics and the RK combination
        m[f"timestep.step_self_ms.l{L}"] = (step - 4.0 * _median_ms(tracer, "timestep.rhs", f"l{L}"), "ms")
    for L in ctx.sizes["drift"]["lmaxes"]:
        m[f"timestep.project_vortex_pair_ms.l{L}"] = ms("timestep.project_vortex_pair", f"l{L}")
        m[f"timestep.steadiness_drift_ms.l{L}"] = ms("timestep.steadiness_drift", f"l{L}")
    m["cli.fields_ms"] = ms("cli.fields")
    m["cli.fields_out_mb"] = (extra["fields_out_mb"], "MB")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.span_cost_us"] = (trace_info["span_cost_s"] * 1e6, "us")
    m["trace.job_wall_ratio"] = (trace_info["job_wall_ratio"], "ratio")
    m["trace.job_self_ms"] = (trace_info["job_self_ms"], "ms")
    return m
