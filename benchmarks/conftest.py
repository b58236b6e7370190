"""Shared benchmark infrastructure.

Every virtual-clock reproduction reads one session-scoped cost model:
the paper's cluster-era communication (:func:`repro.runtime.cluster_2006`)
plus the compute rates recorded in ``results/rates.json`` by
``python -m benchmarks.rates``.  A reproduction is therefore a pure
function of the code and that one file.

Each reproduction returns its rows, lays them out with
:func:`repro.analysis.format_table` / :func:`repro.analysis.format_series_csv`
and persists them under ``results/`` with :func:`write_result`, so
EXPERIMENTS.md can cite them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.rates import load_model
from repro.obs import Tracer, active_tracer, phase_summary, profiling
from repro.obs.export import profile_counts
from repro.runtime import CostModel

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Processor counts for the figure sweeps (the paper's cluster had up to
#: 92 nodes; powers of two up to 64 cover the same regime).
PROC_GRID = [1, 2, 4, 8, 16, 32, 64]


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    return load_model()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: Path, name: str, text: str) -> None:
    """Print a result block and persist it under results/."""
    print(f"\n{text}\n")
    (results_dir / name).write_text(text + "\n")


def _bench_json_name(nodeid: str) -> str:
    """``benchmarks/bench_x.py::TestY::test_z[8]`` -> ``BENCH_bench_x.test_z_8``."""
    stem = nodeid.split("::", 1)
    file_part = Path(stem[0]).stem
    test_part = re.sub(r"[^A-Za-z0-9_.-]+", "_", stem[1] if len(stem) > 1 else "")
    return f"BENCH_{file_part}.{test_part}".rstrip("_.")


class _LeftOut:
    """What :func:`phase_metrics` yields: the runs kept out of its file."""

    def __init__(self) -> None:
        self.runs: list = []

    def leave_out(self, result) -> None:
        """Keep ``result``'s run (an ``SpmdResult``) out of the file."""
        self.runs.append(result.profile)


@pytest.fixture(autouse=True)
def phase_metrics(request, results_dir):
    """Trace every benchmark's simulated runs and persist the per-phase
    breakdown and the profile's counts (:func:`repro.obs.export
    .profile_counts`) as ``results/BENCH_<file>.<test>.json``.

    Counts are integers read off the spans' notes and the runs' fault
    events, so the file does not depend on the order in which rank
    threads record them.

    Reuses an already-installed profile (``python -m repro profile
    benchmarks/...``) when present; otherwise installs a fresh tracer
    for the duration of the test.  Tests that never enter ``spmd_run``
    produce no file.  A test that asks for this fixture can keep one
    run out of the file — a run whose figures depend on the thread
    schedule, such as a fail-stop's makespan — with
    ``phase_metrics.leave_out(result)``.
    """
    shared = active_tracer()
    tracer = shared if shared is not None else Tracer()
    start = len(tracer.runs)
    left_out = _LeftOut()
    if shared is None:
        with profiling(tracer):
            yield left_out
    else:
        yield left_out
    runs = [
        run for run in tracer.runs[start:]
        if not any(run is out for out in left_out.runs)
    ]
    if not runs:
        return
    summary = phase_summary(runs)
    if shared is None:
        summary["counters"] = profile_counts(runs)
    out = results_dir / f"{_bench_json_name(request.node.nodeid)}.json"
    out.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
