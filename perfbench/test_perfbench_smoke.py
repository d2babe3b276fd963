"""Smoke test of the benchmark at tiny sizes.

Runs every workload through ``run.py`` in both modes, checks the output
contract, and shows that each workload's gate rejects a corrupted output.
The full-size run stays out of the test suite.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_at_tiny_scale(name, trace):
    proc = _bench(
        "--workload", name, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    if trace:
        expected = layers.metric_names(workloads.SCALES["tiny"])
    else:
        expected = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    # the human-readable part names failed_frac beside the JSON metrics
    assert "failed_frac" in proc.stdout


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == layers.metric_names(workloads.SCALES["full"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "checks", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _first_job(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, "tiny", str(tmp_path))
    wl.setup(tracing.NullTracer())
    out = wl.job(0, tracing.NullTracer())
    assert wl.gate(0, out) is None
    return wl, out


def test_checks_gate_rejects_a_failing_report(tmp_path):
    wl, reports = _first_job("checks", tmp_path)
    bad = list(reports)
    bad[3] = dataclasses.replace(bad[3], passed=False)
    assert "failed" in wl.gate(1, bad)


def test_evolve_gate_rejects_an_energy_jump(tmp_path):
    wl, series = _first_job("evolve-l127", tmp_path)
    energy = np.array(series.energy)
    energy[-1] *= 1.0 + 1e-6
    assert "energy" in wl.gate(1, dataclasses.replace(series, energy=energy))


def test_drift_gate_rejects_a_non_decreasing_drift(tmp_path):
    wl, drifts = _first_job("drift-sweep", tmp_path)
    assert "decrease" in wl.gate(1, [drifts[0]] * len(drifts))


def test_fields_gate_rejects_a_perturbed_psi_row(tmp_path):
    wl, out = _first_job("fields-io", tmp_path)
    thetas, phis, values = out["arrays"]["psi"]
    bad = np.array(values)
    bad[values.shape[0] // 3, :] *= 1.0 + 1e-8
    corrupted = dict(out, arrays=dict(out["arrays"], psi=(thetas, phis, bad)))
    assert "psi" in wl.gate(0, corrupted)


def test_fields_gate_rejects_different_bytes_for_identical_arguments(tmp_path):
    wl, _ = _first_job("fields-io", tmp_path)
    out = wl.job(1, tracing.NullTracer())
    path = os.path.join(wl.out, "uphi.csv")
    with open(path, "a") as fh:
        fh.write("\n")
    assert "different bytes" in wl.gate(1, out)


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile(5) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
    for n in range(20, 500):
        q = run.tail_percentile(n)
        assert n * (100 - q) / 100 >= 10


def test_self_time_subtracts_covered_child_intervals():
    t = tracing.Tracer()
    t.spans = [
        {"id": 0, "name": "a", "size": None, "parent": None, "job": 1, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "size": None, "parent": 0, "job": 1, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "size": None, "parent": 0, "job": 1, "start": 3.0, "end": 6.0},
        # a decomposition span after its parent ended covers none of it
        {"id": 3, "name": "d", "size": None, "parent": 0, "job": 1, "start": 12.0, "end": 13.0},
    ]
    selfs = t.self_times()
    assert selfs[0] == pytest.approx(5.0)
    assert selfs[1] == pytest.approx(3.0)
