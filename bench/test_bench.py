"""Tests for the benchmark itself.  Run with ``python -m pytest bench -q``
(tier-1's ``testpaths`` does not collect this directory).

Every run here uses the ``--quick`` sizes and sub-second windows, and no
test asserts anything about how long something took: they check names,
units, exact counts, accounting identities and byte equality.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import probes
import run
import workloads

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
QUICK_SECONDS = 0.8


def quick(workload, seed, trace, inputs=None):
    return run.measure(workload, seed, QUICK_SECONDS, trace, quick=True, inputs=inputs)


@pytest.fixture(scope="module")
def reports():
    """One quick end-to-end and one quick traced run per workload."""
    return {(w, t): quick(w, 5, t) for w in NAMES for t in (False, True)}


def test_benchmark_json_declares_the_contract():
    assert NAMES == ["small_jobs", "accum_heavy", "wide_combine", "oneshot_scan"]
    assert set(NAMES) == set(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s", "sim_makespan_us", "peak_rss_mb"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 <= m["bound"] <= 0.10
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_cli_prints_exactly_the_declared_metrics(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(QUICK_SECONDS), "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    record = json.loads(lines[-2].removeprefix("record "))
    fingerprint = record["host"]
    for key in ("cpus_allowed", "cpu_pinned", "python", "numpy", "numba_available",
                "switchinterval_s", "loadavg_1min_at_start", "spin_mops_min",
                "spin_mops_max", "disturbed"):
        assert key in fingerprint
    assert fingerprint["cpu_pinned"] in fingerprint["cpus_allowed"]


@pytest.mark.parametrize("workload", ["small_jobs", "oneshot_scan"])
def test_a_corrupted_oracle_fails_the_run(workload):
    inputs = workloads.make_inputs(workload, 5, quick=True)
    first = inputs.expected[3][0]
    flipped = bytes([first.data[0] ^ 1]) + first.data[1:]
    inputs.expected[3] = (replace(first, data=flipped),) + inputs.expected[3][1:]
    report = quick(workload, 5, False, inputs=inputs)
    assert report.correct is False
    assert report.failed == report.attempted > 0
    assert "oracle" in report.record["errors"][0]


def test_exact_metrics_repeat_across_runs(reports):
    for w in NAMES:
        again = quick(w, 6, False)   # another seed: other inputs, same shapes
        assert again.metrics["sim_makespan_us"] == reports[w, False].metrics["sim_makespan_us"]
        traced = quick(w, 6, True)
        for name in ("mpi.sends_per_job", "mpi.bytes_per_job"):
            assert traced.metrics[name] == reports[w, True].metrics[name] > 0


def test_every_run_is_correct_and_pinned(reports):
    for report in reports.values():
        assert report.correct and report.failed == 0 and report.attempted > 0
        assert report.record["sim_makespan_repeats"]
        fingerprint = report.record["host"]
        if fingerprint["cpu_pinned"] is not None:
            assert fingerprint["cpu_pinned"] in fingerprint["cpus_allowed"]
            # measure() gives the process its CPUs back
            assert sorted(os.sched_getaffinity(0)) == fingerprint["cpus_allowed"]


def test_latency_segments_sum_to_the_latency(reports):
    for w in NAMES:
        record = reports[w, True].record
        assert record["segments_max_residual_us"] < 1e-3   # float rounding only
        expected = {"engine.submit", "engine.dispatch", "job.body",
                    "engine.finalize", "client.verify"}
        if w == "oneshot_scan":   # construction and shutdown are per job there
            expected |= {"engine.construct", "engine.shutdown"}
        assert set(record["segments_ms"]) == expected


def test_split_latency_is_contiguous_even_when_stamps_cross():
    # Rank 1 entered the body before submit() returned to the client.
    stamps = [probes.Stamped(None, 1.5, 4.0, 0.1), probes.Stamped(None, 0.9, 3.0, 0.1)]
    marks = {"call": 0.0, "submit_ret": 1.0, "result_ret": 5.0}
    segments = run.split_latency(marks, stamps, t_end=5.5)
    assert segments == {"engine.submit": 1.0, "engine.dispatch": 0.0,
                        "job.body": 3.0, "engine.finalize": 1.0, "client.verify": 0.5}
    assert sum(segments.values()) == 5.5
    assert all(width >= 0 for width in segments.values())


@pytest.mark.parametrize("workload", NAMES)
def test_phase_probes_equal_the_one_call_driver(workload):
    from repro import Engine

    runner = workloads.build(workloads.make_inputs(workload, 9, quick=True))
    try:
        with Engine(workloads.NPROCS) as engine:
            whole = engine.submit(runner.body).result().returns
            by_phase = [r[0] for r in engine.submit(runner.phases).result().returns]
    finally:
        runner.close()
    assert runner.verify(whole)
    for one_call, phased in zip(whole, by_phase):
        one_call = one_call if isinstance(one_call, tuple) else (one_call,)
        phased = phased if isinstance(phased, tuple) else (phased,)
        assert len(phased) >= 1
        for a, b in zip(one_call, phased):   # phases leave out the RSMPI output
            assert workloads.matches(b, workloads.expect(a))
