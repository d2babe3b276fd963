"""sphereflow benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the root of a checkout (the directory holding ``src/sphereflow``):

    python3 perfbench/run.py --workload checks --seed 1 --seconds 28 --trace 0

``--trace 0`` starts three fresh processes one after another.  Each imports
sphereflow, builds the workload's inputs and runs one untimed warm-up job;
``setup_s`` is the median of their three set-up times.  Each process then
runs jobs for a third of ``--seconds``, and the job metrics pool all three.
Spreading the jobs over three processes widens the window they sample, which
matters on a machine whose speed drifts over tens of seconds.  ``--trace 1``
runs one process whose jobs alternate untraced and traced, followed by the
decomposition pass, and reports the per-layer metrics.

Every run writes ``.perfbench_work/BENCH_<workload>_seed<n>_trace<t>.json``
with provenance, and the traced run also writes the spans.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench_work"
WORKLOADS = ("checks", "evolve-l127", "drift-sweep", "fields-io")
SETUPS = 3
#: the whole run, all processes included, ends within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def run_worker(args, mode, seconds, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--scale", args.scale,
        "--mode", mode, "--workdir", WORKDIR,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a benchmark process")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"benchmark process ({mode}) did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"benchmark process ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Linear-interpolated percentile; q = 50 gives the median."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest whole percentile with at least ten jobs beyond it, never below 50.

    Below 20 jobs no percentile above the median has ten jobs beyond it, and
    the tail is reported at the median.
    """
    return max(50, math.floor(100.0 * (n - 10) / n)) if n > 0 else 50


def git_commit():
    """Commit of the checkout read from ``.git`` directly, or None outside git."""
    head = os.path.join(".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_sha256():
    """Digest of the package sources, which identifies the code when git is absent."""
    h = hashlib.sha256()
    root = os.path.join("src", "sphereflow")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end(runs):
    setups = [r["setup_s"] for r in runs]
    job_s = [t for r in runs for t in r["job_s"]]
    n = len(job_s)
    failed_timed = sum(1 for r in runs for i, _ in r["failures"] if i >= 1)
    q = tail_percentile(n)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh-process set-ups"),
        "job_p50_s": (percentile(job_s, 50), "s", f"n={n}"),
        "job_tail_s": (percentile(job_s, q), "s", f"p{q} of n={n}"),
        "jobs_per_s": ((n - failed_timed) / sum(job_s), "1/s", "passing jobs / time inside jobs"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB", "largest ru_maxrss of the processes"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="problem sizes; tiny is for the smoke test only",
    )
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sphereflow", "__init__.py")):
        print("error: run from the root of a sphereflow checkout (no src/sphereflow here)", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            runs = [run_worker(args, "trace", args.seconds, deadline)]
        else:
            runs = [run_worker(args, "run", args.seconds / SETUPS, deadline) for _ in range(SETUPS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_run = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failed = len(failures)
    e2e = end_to_end(runs)
    prov = dict(main_run["provenance"], git_commit=git_commit(), source_sha256=source_sha256(), seed=args.seed)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  scale {args.scale}")
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<12} {value:12.6g} {unit:<4} ({note})")
    print(f"  {'failed_frac':<12} {failed / attempted:12.6g} {'':<4} ({failed} of {attempted} jobs, warm-up included)")
    for i, reason in failures:
        print(f"  job {i} failed: {reason}")
    if args.trace:
        metrics = {k: (v, unit) for k, (v, unit) in main_run["layer_metrics"].items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:14.6g} {unit}")
    else:
        metrics = {k: (v, unit) for k, (v, unit, _) in e2e.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "provenance": prov,
        "end_to_end": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in e2e.items()},
        "failed_frac": failed / attempted,
        "failures": failures,
        "setups_s": [r["setup_s"] for r in runs],
        "job_s": [r["job_s"] for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for key in ("spans_file", "traced_job_s", "untraced_job_s"):
        if key in main_run:
            record[key] = main_run[key]
    path = os.path.join(WORKDIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  result file {path}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
