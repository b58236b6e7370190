"""Backend speedup: process rank workers vs GIL-bound threads.

The thread backend is the determinism oracle, but every rank shares one
interpreter lock, so accumulate folds that *hold* it serialize no matter
how many cores the host has.  The process backend offloads each rank's
fold to a long-lived forked worker over shared-memory frames, so those
folds overlap across cores.  This benchmark measures exactly that
regime: float64 blocks folded by **GIL-holding** operators (chunked
Python-dispatch NumPy work — many small ufunc calls).  A single-call
``ufunc.reduce`` releases the lock by itself; such folds are never
offered to a worker (``core/reduce.py``) and are not measured here.

Protocol, every cell: both engines resident, inputs generated before
any timing, one warm job each, then ``ROUNDS`` rounds alternating which
backend runs first, each timing ``n_jobs`` (>= 10) back-to-back jobs;
the cell's figure is the **median of the per-round ratios** thread ÷
process.  Cells are the plain reduce at {64 KiB ... 8 MiB} per rank
(the three smallest with the offload threshold forced to zero, which is
how ``procworld.MIN_OFFLOAD_BYTES`` is fitted), one fused K = 3 wave and
one overlapped (chunked 2-D) reduce.

One floor: with >= 2 usable cores the 1 MiB / 4 rank cell must read
``FLOOR``x or better; on one core the ratio is recorded and the gate
skipped.  Byte-identity of every compared job across backends and
shm-offload coverage are asserted unconditionally.  Results land in
``results/BENCH_backend_speedup.json`` and ``results/backend_speedup.txt``,
re-measured on every run.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import platform
import statistics
import time

import numpy as np

from benchmarks.conftest import write_result
from repro.core.fusion import global_reduce_many
from repro.core.operator import ReduceScanOp
from repro.core.reduce import global_reduce
from repro.engine import Engine
from repro.obs.tracer import NULL_TRACER
from repro.runtime import procworld

KIB, MIB = 1 << 10, 1 << 20
#: Per-chunk Python dispatch is the point: each chunk costs several
#: interpreter-level ufunc calls, which hold the GIL.
CHUNK = 512
ROUNDS = 5
#: The one gate: median thread/process ratio of the 1 MiB cell at 4
#: ranks, on a host with at least MIN_CORES usable cores.
FLOOR, GATE_BYTES, GATE_RANKS, MIN_CORES = 1.5, MIB, 4, 2
#: Cells run with the threshold forced to 0: the fit's candidates.
FIT_BYTES = (64 * KIB, 128 * KIB, 256 * KIB)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


class ChunkedPolySumOp(ReduceScanOp):
    """Sum of a degree-6 polynomial over the block, folded chunk by
    chunk with Horner's rule — 7 interpreter-dispatched ufunc calls per
    512-element chunk, so the accumulate phase holds the GIL nearly the
    whole time.  Picklable by construction (module-level, plain state).
    """

    commutative = True
    name = "bench_polysum"
    _coeffs = (0.5, -1.25, 2.0, 0.75, -0.5, 1.5, -2.0)

    def ident(self) -> float:
        return 0.0

    def _poly(self, chunk: np.ndarray) -> np.ndarray:
        acc = np.full_like(chunk, self._coeffs[0])
        for c in self._coeffs[1:]:
            acc = acc * chunk + c
        return acc

    def accum(self, state, x):
        return self.accum_block(state, np.atleast_1d(np.float64(x)))

    def combine(self, s1, s2):
        return s1 + s2

    def accum_block(self, state, values):
        arr = np.asarray(values, dtype=np.float64)
        for lo in range(0, len(arr), CHUNK):
            state = state + float(self._poly(arr[lo : lo + CHUNK]).sum())
        return state


class ColumnPolySumOp(ChunkedPolySumOp):
    """The same polynomial summed per column of a 2-D block (state: one
    float per column).  Elementwise, so a wide block takes the
    overlapped pipeline — whose column chunks are folded strip by strip,
    still under the GIL."""

    elementwise = True
    name = "bench_polysum_columns"

    def accum(self, state, x):
        return state + self._poly(np.asarray(x, dtype=np.float64))

    def accum_block(self, state, values):
        arr = np.asarray(values, dtype=np.float64)
        out = np.zeros(arr.shape[1]) + state
        for lo in range(0, arr.shape[1], CHUNK):
            strip = arr[:, lo : lo + CHUNK]
            out[lo : lo + CHUNK] += self._poly(strip).sum(axis=0)
        return out


class ChunkedHistogramOp(ReduceScanOp):
    """Fixed-bin histogram folded chunk by chunk with ``np.bincount``.
    The state is an ndarray, so the reply frame exercises the shm
    zero-copy path in both directions."""

    commutative = True
    name = "bench_hist"
    BINS = 64

    def ident(self) -> np.ndarray:
        return np.zeros(self.BINS, dtype=np.int64)

    def accum(self, state, x):
        return self.accum_block(state, np.atleast_1d(np.float64(x)))

    def combine(self, s1, s2):
        return s1 + s2

    def accum_block(self, state, values):
        arr = np.asarray(values, dtype=np.float64)
        out = state.copy()
        for lo in range(0, len(arr), CHUNK):
            idx = (arr[lo : lo + CHUNK] * self.BINS).astype(np.int64)
            idx = np.minimum(idx, self.BINS - 1)
            out += np.bincount(idx, minlength=self.BINS)
        return out


def plain_job(comm, blocks):
    return global_reduce(comm, ChunkedPolySumOp(), blocks[comm.rank])


def fused_job(comm, blocks):
    x = blocks[comm.rank]
    ops = (ChunkedPolySumOp(), ChunkedHistogramOp(), ChunkedPolySumOp())
    return global_reduce_many(comm, [(op, x) for op in ops])


def overlapped_job(comm, blocks):
    return global_reduce(comm, ColumnPolySumOp(), blocks[comm.rank])


JOBS = {"plain": plain_job, "fused3": fused_job, "overlapped": overlapped_job}


def _timed(engine, job, blocks, n_jobs: int):
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(n_jobs):
        res = engine.submit(job, args=(blocks,), tracer=NULL_TRACER).result()
    return time.perf_counter() - t0, res


def measure(kind: str, block_bytes: int, nranks: int, forced: bool) -> dict:
    """One cell: ``ROUNDS`` interleaved thread/process timings."""
    n_jobs = 10 if block_bytes >= MIB else 30
    shape = (16, block_bytes // 128) if kind == "overlapped" else block_bytes // 8
    blocks = [np.random.default_rng(1000 + r).random(shape) for r in range(nranks)]
    job = JOBS[kind]
    fitted = procworld.MIN_OFFLOAD_BYTES
    if forced:
        procworld.MIN_OFFLOAD_BYTES = 0
    try:
        # The pool forks before any rank thread exists in this process.
        with Engine(nranks, backend="process") as proc, Engine(nranks) as thread:
            for engine in (thread, proc):
                _timed(engine, job, blocks, 1)  # warm: caches hot, pages mapped
            seconds = {thread: [], proc: []}
            for rnd in range(ROUNDS):
                pair = {}
                for engine in (thread, proc) if rnd % 2 == 0 else (proc, thread):
                    s, pair[engine] = _timed(engine, job, blocks, n_jobs)
                    seconds[engine].append(s)
                # Correctness gate (never skipped): byte-identical
                # returns and virtual clocks across backends.
                a, b = pair[thread], pair[proc]
                assert a.clocks == b.clocks and a.time == b.time
                assert pickle.dumps(a.returns) == pickle.dumps(b.returns), (
                    f"{kind}@{nranks}: backend results differ"
                )
            ipc = proc.stats()["ipc"]
    finally:
        procworld.MIN_OFFLOAD_BYTES = fitted
    # The process run must actually have offloaded (shm, not pipe): a
    # silent threshold regression would make the ratio thread-vs-thread.
    assert ipc["frames"] > 0 and ipc["shm_hits"] > 0, ipc
    ratios = [t / p for t, p in zip(seconds[thread], seconds[proc])]
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {
        "cell": kind, "block_bytes": block_bytes, "nranks": nranks,
        "n_jobs": n_jobs, "forced_offload": forced,
        "ratios": ratios, "min": min(ratios), "q1": q1, "median": med,
        "q3": q3, "max": max(ratios), "wins": sum(r > 1.0 for r in ratios),
        "thread_s": statistics.median(seconds[thread]),
        "process_s": statistics.median(seconds[proc]),
        "frames_per_job": ipc["frames"] / (1 + ROUNDS * n_jobs), "ipc": ipc,
    }


def run() -> dict:
    cores = usable_cores()
    plan = []
    for n in (GATE_RANKS, 8):
        plan += [("plain", b, n, True) for b in FIT_BYTES]
        plan.append(("plain", GATE_BYTES, n, False))
    plan += [("plain", b, n, False) for b in (4 * MIB, 8 * MIB) for n in (4, 8)]
    plan.append(("fused3", MIB, GATE_RANKS, False))
    plan.append(("overlapped", 8 * MIB, GATE_RANKS, False))
    cells = [measure(*cell) for cell in plan]
    # The fit: the smallest candidate that wins >= 4 of 5 rounds at 4
    # ranks (None: no candidate did, the threshold belongs above them).
    winners = [
        c["block_bytes"] for c in cells
        if c["forced_offload"] and c["nranks"] == GATE_RANKS and c["wins"] >= 4
    ]
    gate = cells[plan.index(("plain", GATE_BYTES, GATE_RANKS, False))]
    return {
        "benchmark": "backend_speedup",
        "command": "pytest benchmarks/bench_backend_speedup.py",
        "host": {
            "usable_cores": cores, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
        },
        "rounds": ROUNDS,
        "min_offload_bytes": procworld.MIN_OFFLOAD_BYTES,
        "fitted_threshold_bytes": min(winners, default=None),
        "floor": FLOOR,
        "gate_ratio": gate["median"],
        "gate_active": cores >= MIN_CORES,
        "cells": cells,
    }


def render(report: dict) -> str:
    host = report["host"]
    lines = [
        f"backend speedup: thread / process wall-clock, {report['rounds']} "
        f"interleaved rounds per cell, {host['usable_cores']} usable cores",
        "  cell        block/rank ranks  min    q1   median  q3    max  wins  frames/job",
    ]
    for c in report["cells"]:
        lines.append(
            f"  {c['cell']:<10} {c['block_bytes'] // KIB:>6} KiB {c['nranks']:>5}  "
            f"{c['min']:5.2f} {c['q1']:5.2f} {c['median']:6.2f} {c['q3']:5.2f} "
            f"{c['max']:6.2f}  {c['wins']}/{report['rounds']}  "
            f"{c['frames_per_job']:6.1f}{'  (offload forced)' if c['forced_offload'] else ''}"
        )
    lines.append(
        f"  fitted threshold: {report['fitted_threshold_bytes']} B "
        f"(MIN_OFFLOAD_BYTES = {report['min_offload_bytes']})"
    )
    verdict = (
        "skipped (one usable core: workers have no second core to run on)"
        if not report["gate_active"]
        else "PASS" if report["gate_ratio"] >= report["floor"] else "FAIL"
    )
    lines.append(
        f"  gate: {GATE_BYTES // KIB} KiB at {GATE_RANKS} ranks reads "
        f"{report['gate_ratio']:.2f}x, floor {report['floor']}x: {verdict}"
    )
    return "\n".join(lines)


def test_process_backend_speedup(results_dir):
    report = run()
    (results_dir / "BENCH_backend_speedup.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    write_result(results_dir, "backend_speedup.txt", render(report))
    assert not report["gate_active"] or report["gate_ratio"] >= FLOOR
