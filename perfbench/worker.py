"""One benchmark process: set up a workload, then optionally time or trace its jobs.

Started by ``run.py`` from the root of a checkout, one process at a time.
Modes:

* ``run``:   import sphereflow, build the workload's inputs, run one
  untimed warm-up job (that much is the set-up time), then untraced jobs
  for ``--seconds``.
* ``trace``: the same set-up with spans, then jobs for half of
  ``--seconds`` that alternate untraced and traced, then the
  decomposition pass.

The process prints one JSON object on standard output; everything the
package prints goes to standard error.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before sphereflow is imported

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import traceback


def _blas_threads():
    """Thread count OpenBLAS will use, asked from the loaded library itself."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_threads = os.environ.get("SPHEREFLOW_THREADS")
    cpu_model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "SPHEREFLOW_THREADS": env_threads if env_threads is not None else "unset",
        # run_all_checks' pool: SPHEREFLOW_THREADS, else min(8, cpu_count)
        "check_pool_workers": int(env_threads) if env_threads else min(8, os.cpu_count() or 1),
    }


def run_job(wl, i, tracer):
    """(wall seconds of the job call, failure reason or None, output)."""
    t = time.perf_counter()
    try:
        with tracer.job(i):
            out = wl.job(i, tracer)
    except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
        wall = time.perf_counter() - t
        traceback.print_exc()
        return wall, f"{type(exc).__name__}: {exc}", None
    wall = time.perf_counter() - t
    return wall, wl.gate(i, out), out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", required=True)
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    result_out = sys.stdout
    sys.stdout = sys.stderr
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)

    import sphereflow

    if not os.path.abspath(sphereflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported sphereflow from {sphereflow.__file__}, not from {src}")
    import layers
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "trace" else tracing.NullTracer()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    wl.setup(tracer)
    warm_wall, warm_reason, _ = run_job(wl, 0, tracer)
    setup_s = time.perf_counter() - T0
    failures = [] if warm_reason is None else [(0, warm_reason)]
    result = {"setup_s": setup_s, "warmup_s": warm_wall, "provenance": provenance()}

    job_s, traced = [], []
    min_jobs = 2 if args.mode == "trace" else 1
    start = time.perf_counter()
    i = 1
    # the traced run gives half its time to jobs; the decomposition pass follows
    budget = args.seconds / 2 if args.mode == "trace" else args.seconds
    wall = 0.0
    # stop at the job boundary nearest the budget
    while i <= min_jobs or time.perf_counter() - start + wall / 2 < budget:
        is_traced = args.mode == "trace" and i % 2 == 0
        wall, reason, _ = run_job(wl, i, tracer if is_traced else tracing.NullTracer())
        job_s.append(wall)
        traced.append(is_traced)
        if reason is not None:
            failures.append((i, reason))
        i += 1
    result["timed_phase_s"] = time.perf_counter() - start
    result.update(
        job_s=job_s,
        attempted=1 + len(job_s),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )

    if args.mode == "trace":
        jobs = [s for s in tracer.spans if s["name"] == "bench.job" and s["job"] >= 1]
        last = jobs[-1]
        ctx = layers.Context(wl, last["job"])
        with tracer.under(last):
            extra = layers.decompose(tracer, ctx)
        selfs = tracer.self_times()
        untraced = [w for w, t in zip(job_s, traced) if not t]
        traced_walls = [w for w, t in zip(job_s, traced) if t]
        info = {
            "span_cost_s": tracing.span_cost_seconds(),
            "job_wall_ratio": statistics.median(traced_walls) / statistics.median(untraced),
            "job_self_ms": 1e3 * statistics.median(selfs[s["id"]] for s in jobs),
        }
        metrics = layers.layer_metrics(tracer, extra, ctx, info)
        spans_file = os.path.join(args.workdir, f"spans_{args.workload}_seed{args.seed}.json")
        with open(spans_file, "w") as fh:
            json.dump(tracer.export(), fh)
        result["layer_metrics"] = {k: [v, unit] for k, (v, unit) in metrics.items()}
        result["spans_file"] = spans_file
        result["traced_job_s"] = traced_walls
        result["untraced_job_s"] = untraced

    wl.teardown()
    result_out.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
