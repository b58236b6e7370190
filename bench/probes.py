"""Per-layer probes for the traced run — every layer measured from outside.

Nothing here reaches into the program: each probe times calls into
public functions (``Engine``, ``Communicator.send/recv/barrier``,
``LOCAL_ALLREDUCE``/``LOCAL_XSCAN``, ``accumulate_local``,
``KernelCache``, ``ScheduleCache``, ``compile_operator``), stamps the
clock inside the benchmark's own job functions, or reads public counters
(``Engine.stats()``, ``SpmdResult.summary_trace``).

Inside a job, phase times are **thread-CPU seconds summed over ranks**
(``time.thread_time``): the ranks are threads of one pinned process, so
a rank's wall time is mostly other ranks' work, while its CPU time is
its own.  Times called ``*_us``/``*_ms`` without ``cpu`` in the name are
wall time seen by rank 0 or by the client.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable

import numpy as np

from workloads import I64_MAX, I64_MIN, LISTING_8_SORTED, NPROCS, Runner

__all__ = ["Stamped", "stamped", "run_probes"]

now = time.perf_counter
cpu = time.thread_time


class Stamped:
    """A rank's return value plus its own enter/exit stamps."""

    __slots__ = ("value", "t_in", "t_out", "cpu_s")

    def __init__(self, value: Any, t_in: float, t_out: float, cpu_s: float):
        self.value, self.t_in, self.t_out, self.cpu_s = value, t_in, t_out, cpu_s


def stamped(body: Callable[[Any], Any]) -> Callable[[Any], Stamped]:
    """Wrap a job function so every rank reports when it entered and
    left the body and how much CPU it spent inside."""

    def job(comm):
        t_in, c0 = now(), cpu()
        value = body(comm)
        cpu_s = cpu() - c0
        return Stamped(value, t_in, now(), cpu_s)

    return job


def _median_job(engine, fn, reps: int, pick: Callable[[list[Any]], float], **kw) -> float:
    """Median over ``reps`` jobs of ``pick(result.returns)``."""
    return median(pick(engine.submit(fn, **kw).result().returns) for _ in range(reps))


# -- engine ---------------------------------------------------------------------


def engine_probes(engine, reps: int) -> dict[str, float]:
    from repro import Engine

    def noop(comm):
        return None

    lat = []
    for _ in range(reps * 20):
        t0 = now()
        engine.submit(noop).result()
        lat.append(now() - t0)
    build, retire = [], []
    for _ in range(reps):
        t0 = now()
        fresh = Engine(NPROCS)
        t1 = now()
        fresh.shutdown(drain=False, timeout=5.0)
        build.append(t1 - t0)
        retire.append(now() - t1)
    return {
        "engine.noop_job_us": median(lat) * 1e6,
        "engine.construct_ms": median(build) * 1e3,
        "engine.shutdown_ms": median(retire) * 1e3,
    }


# -- runtime ----------------------------------------------------------------------


def _pingpong(comm, payload, trips):
    if comm.rank == 0:
        t0 = now()
        for _ in range(trips):
            comm.send(payload, 1)
            comm.recv(1)
        return (now() - t0) / trips
    for _ in range(trips):
        comm.send(comm.recv(0), 0)
    return None


def _barriers(comm, trips):
    t0 = now()
    for _ in range(trips):
        comm.barrier()
    return (now() - t0) / trips


def runtime_probes(engine, reps: int) -> dict[str, float]:
    first = lambda returns: returns[0]  # noqa: E731
    small, wide = np.zeros(1), np.zeros(65_536)   # 8 bytes, 512 KiB
    return {
        "runtime.pingpong_us": 1e6 * _median_job(
            engine, _pingpong, reps, first, nprocs=2, args=(small, 200)),
        "runtime.pingpong_512k_us": 1e6 * _median_job(
            engine, _pingpong, reps, first, nprocs=2, args=(wide, 20)),
        "runtime.barrier_us": 1e6 * _median_job(
            engine, _barriers, reps, first, args=(50,)),
    }


# -- mpi ------------------------------------------------------------------------------


def mpi_probes(engine, runner: Runner, reps: int) -> dict[str, float]:
    from repro.core.reduce import wire_op
    from repro.localview import LOCAL_ALLREDUCE, LOCAL_XSCAN
    from repro.mpi import tuning
    from repro.mpi.schedule_cache import ScheduleCache

    op, state = runner.probe_op, runner.inputs.probe_state
    wop = wire_op(op)
    trips = 5 if getattr(state, "nbytes", 0) > 65_536 else 40

    def collective(comm, exclusive_scan):
        w0, c0 = now(), cpu()
        for _ in range(trips):
            # A fresh copy per call: combine may mutate its left operand.
            mine = state.copy()
            if exclusive_scan:
                LOCAL_XSCAN(comm, op.ident, wop, mine, commutative=op.commutative)
            else:
                LOCAL_ALLREDUCE(comm, wop, mine, commutative=op.commutative)
        return (now() - w0) / trips, (cpu() - c0) / trips

    out = {}
    for name, flag in (("allreduce", False), ("xscan", True)):
        walls, cpus = [], []
        for _ in range(reps):
            returns = engine.submit(collective, args=(flag,)).result().returns
            walls.append(max(r[0] for r in returns))   # until the last rank is done
            cpus.append(sum(r[1] for r in returns))
        out[f"mpi.{name}_us"] = median(walls) * 1e6
        out[f"mpi.{name}_cpu_us"] = median(cpus) * 1e6

    splittable = tuning.is_splittable(state, wop, NPROCS)
    nbytes = int(state.nbytes) if splittable else 0
    question = ("allreduce", nbytes, NPROCS, op.commutative, splittable)
    misses = []
    for _ in range(200):
        cold = ScheduleCache()
        t0 = now()
        cold.choose(*question)
        misses.append(now() - t0)
    warm = ScheduleCache()
    warm.choose(*question)
    t0 = now()
    for _ in range(2000):
        warm.choose(*question)
    out["mpi.choose_hit_us"] = (now() - t0) / 2000 * 1e6
    out["mpi.choose_miss_us"] = median(misses) * 1e6
    return out


# -- core ------------------------------------------------------------------------------


def core_probes(engine, runner: Runner, reps: int) -> tuple[dict[str, float], bool]:
    """Drive the workload phase by phase; returns the phase CPU times and
    whether every phase-by-phase result equalled the oracle (which the
    one-call driver's results are checked against job by job)."""
    from repro import global_reduce
    from repro.ops import SumOp

    acc, comb, gen, equal = [], [], [], True
    for _ in range(reps):
        returns = engine.submit(runner.phases).result().returns
        equal = equal and runner.verify([r[0] for r in returns], prefix=True)
        acc.append(sum(r[1][0] for r in returns))
        comb.append(sum(r[1][1] for r in returns))
        gen.append(sum(r[1][2] for r in returns))

    one, total = np.ones(1), SumOp()

    def driver_only(comm, calls):
        t0 = now()
        for _ in range(calls):
            global_reduce(comm, total, one)
        return (now() - t0) / calls

    overhead = _median_job(
        engine, driver_only, reps, lambda r: r[0], nprocs=1, args=(200,))
    return {
        "core.accumulate_ms": median(acc) * 1e3,
        "core.combine_ms": median(comb) * 1e3,
        "core.generate_ms": median(gen) * 1e3,
        "core.driver_overhead_us": overhead * 1e6,
    }, equal


# -- kernels -----------------------------------------------------------------------------


def kernel_probes(elements: int, reps: int) -> dict[str, float]:
    from repro.core.kernels import KernelCache, compile_kernel
    from repro.ops import CountsOp, MaxOp, MinKOp, SumOp

    rng = np.random.default_rng(12)
    ints = rng.integers(0, 1 << 40, elements, dtype=np.int64)
    cases = {
        "sum_f64": (SumOp(), rng.integers(-1000, 1001, elements).astype(np.float64)),
        "max_i64": (MaxOp(I64_MIN), ints),
        "mink_i64": (MinKOp(10, I64_MAX), ints),
        "counts_i64": (CountsOp(8), rng.integers(1, 9, elements, dtype=np.int64)),
    }
    cache = KernelCache()   # private: leaves the program's own counters alone
    out = {}
    for name, (op, values) in cases.items():
        kernel = cache.get(op, values)
        times = []
        for _ in range(reps):
            t0 = now()
            kernel.accumulate(op, op.ident(), values)
            times.append(now() - t0)
        out[f"kernels.fold_melems_per_s.{name}"] = elements / median(times) / 1e6
    compiles = []
    for _ in range(50):
        for op, values in cases.values():
            t0 = now()
            compile_kernel(op, values)
            compiles.append(now() - t0)
    out["kernels.compile_us"] = median(compiles) * 1e6
    return out


# -- rsmpi ---------------------------------------------------------------------------------


def rsmpi_probes(engine, elements: int, reps: int) -> dict[str, float]:
    from repro.rsmpi import RSMPI_Reduceall, compile_operator

    compiles = []
    for _ in range(reps):
        t0 = now()
        listing8 = compile_operator(LISTING_8_SORTED)
        compiles.append(now() - t0)
    keys = np.sort(
        np.random.default_rng(8).integers(0, 1 << 30, NPROCS * elements)
    ).reshape(NPROCS, elements)

    def reduceall(comm):
        c0 = cpu()
        ok = RSMPI_Reduceall(listing8, keys[comm.rank], comm)
        return cpu() - c0, bool(ok)

    def total_cpu(returns):
        if not all(ok for _, ok in returns):
            raise AssertionError("RSMPI_Reduceall said sorted keys are unsorted")
        return sum(c for c, _ in returns)

    return {
        "rsmpi.compile_ms": median(compiles) * 1e3,
        "rsmpi.reduceall_ms": 1e3 * _median_job(engine, reduceall, reps, total_cpu),
    }


# -- all of them ---------------------------------------------------------------------------


def run_probes(runner: Runner, quick: bool) -> tuple[dict[str, float], dict[str, Any], bool]:
    """Run every probe; returns ``(metrics, engine_stats, phases_equal)``.

    Resident workloads are probed on their own warmed engine.  The
    one-shot workload has none, so a probe engine is built for it and —
    before anything else runs on it — serves exactly one job, giving the
    cold-cache counters every ``spmd_run`` call sees."""
    from repro import Engine

    reps = 3 if quick else 7
    engine = runner.engine
    cold_stats = None
    if engine is None:
        engine = Engine(NPROCS)
        engine.submit(runner.body).result()
        cold_stats = engine.stats()
    try:
        metrics = {}
        metrics.update(engine_probes(engine, reps))
        metrics.update(runtime_probes(engine, reps))
        metrics.update(mpi_probes(engine, runner, reps))
        core, equal = core_probes(engine, runner, reps)
        metrics.update(core)
        metrics.update(kernel_probes(20_000 if quick else 500_000, reps))
        metrics.update(rsmpi_probes(engine, 200 if quick else 1_000, reps))
        stats = cold_stats if cold_stats is not None else engine.stats()
    finally:
        if engine is not runner.engine:
            engine.shutdown()
    return metrics, stats, equal
