"""The four workloads: inputs, oracle, job functions and runners.

Each workload stresses a different layer of the accumulate → combine →
generate stack (see ``README.md`` for why each exists and which layer
should carry its latency).  All of them run 8 simulated ranks on the
thread backend and the flat topology with every option at its default.

Inputs and the oracle are plain NumPy: they are generated from the seed
before anything is timed, and the program under test only ever sees the
arrays.  The oracle is the sequential fold of the rank-ordered
concatenation of the blocks, computed here without calling ``repro``,
so a wrong schedule cannot also corrupt the expected answer.  All float
inputs are integer-valued and small enough that every partial sum is
exact in float64: the expected bytes therefore do not depend on the
association order a (present or future) combine schedule uses, and a
byte-for-byte comparison stays valid when a new algorithm lands.

This module must stay importable without ``repro``: the cold set-up
children (``setup_child.py``) generate inputs first and only then start
the clock and ``import repro``.  Everything that needs the package is
imported inside :func:`build`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "NPROCS",
    "WORKLOADS",
    "Expected",
    "Inputs",
    "Runner",
    "expect",
    "matches",
    "make_inputs",
    "build",
]

#: Simulated ranks in every workload (the ROADMAP's reference gang size).
NPROCS = 8

#: The paper's Listing 8, verbatim: the ``sorted`` operator in the RSMPI
#: operator language.  Compiled by ``repro.rsmpi.compile_operator``.
LISTING_8_SORTED = """
rsmpi operator sorted {
  non-commutative
  state { int first, last; int status; }
  void ident(state s)  { s->first = INT_MAX; s->last = INT_MIN; s->status = 1; }
  void pre_accum(state s, int i) { s->first = i; }
  void accum(state s, int i)     { if (s->last > i) s->status = 0; s->last = i; }
  void combine(state s1, state s2) {
    s1->status &= s2->status && (s1->last <= s2->first);
    s1->last = s2->last;
  }
  int generate(state s) { return s->status; }
}
"""

I64_MAX = int(np.iinfo(np.int64).max)
I64_MIN = int(np.iinfo(np.int64).min)

# name -> why, full sizes, quick sizes.  ``quick`` sizes keep every code
# path but finish in milliseconds; they serve the tests only.
WORKLOADS: dict[str, dict[str, Any]] = {
    "small_jobs": {
        "why": (
            "resident Engine(8), global_reduce(SumOp) over 64 float64 per rank: "
            "engine admission/gang/wake/finalize and mailbox hand-offs are "
            "nearly all of the time"
        ),
        "sizes": {"elements": 64},
        "quick": {"elements": 64},
    },
    "accum_heavy": {
        "why": (
            "resident engine, 250k int64 per rank, "
            "global_reduce_many([Sum, Max, MinK(10)]): the kernel tier's folds "
            "carry the job, engine and collectives are a few percent"
        ),
        "sizes": {"elements": 250_000},
        "quick": {"elements": 4_000},
    },
    "wide_combine": {
        "why": (
            "resident engine, 4 x 65,536 float64 per rank summed elementwise "
            "(512 KiB state): segmenting allreduce schedules and payload "
            "copies dominate"
        ),
        "sizes": {"rows": 4, "width": 65_536},
        "quick": {"rows": 4, "width": 32_768},
    },
    "oneshot_scan": {
        "why": (
            "one spmd_run per job (transient engine): counts scan, sum xscan, "
            "SortedOp reduce and Listing-8 RSMPI_Reduceall over 1,000 elements "
            "per rank; scans, generate, RSMPI, construction"
        ),
        "sizes": {"elements": 1_000},
        "quick": {"elements": 200},
    },
}


# --------------------------------------------------------------------------
# Oracle values: dtype, shape and bytes, compared exactly.


@dataclass(frozen=True)
class Expected:
    """One expected output value, held as its exact bytes."""

    dtype: np.dtype
    shape: tuple[int, ...]
    data: bytes


def expect(value: Any) -> Expected:
    """Freeze an oracle value."""
    arr = np.asarray(value)
    return Expected(arr.dtype, arr.shape, arr.tobytes())


def matches(value: Any, exp: Expected) -> bool:
    """True when ``value`` has exactly the expected dtype, shape and
    bytes (lists of scalars compare as the array NumPy makes of them)."""
    arr = np.asarray(value)
    return (
        arr.dtype == exp.dtype
        and arr.shape == exp.shape
        and arr.tobytes() == exp.data
    )


@dataclass
class Inputs:
    """What one run works on: per-rank blocks and the per-rank oracle."""

    workload: str
    sizes: dict[str, int]
    blocks: list[Any]                     # one entry per rank
    expected: list[tuple[Expected, ...]]  # per rank, one per output value
    #: Bytes of input the accumulate phase reads per job, *computed* from
    #: the array sizes (not measured): cache misses are not in it.
    bytes_swept: int = 0
    #: A representative combine-phase state (what one rank contributes to
    #: the allreduce/xscan), for the ``mpi.*`` probes.
    probe_state: Any = None


def _all_ranks(values: tuple[Any, ...]) -> list[tuple[Expected, ...]]:
    exp = tuple(expect(v) for v in values)
    return [exp] * NPROCS


def make_inputs(workload: str, seed: int, quick: bool = False) -> Inputs:
    """Generate the blocks and the oracle for ``workload`` from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
        )
    spec = WORKLOADS[workload]
    sizes = dict(spec["quick"] if quick else spec["sizes"])
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])

    if workload == "small_jobs":
        n = sizes["elements"]
        blocks = [
            rng.integers(-1000, 1001, n).astype(np.float64)
            for _ in range(NPROCS)
        ]
        total = np.float64(np.concatenate(blocks).sum())
        return Inputs(
            workload, sizes, blocks, _all_ranks((total,)),
            bytes_swept=NPROCS * n * 8, probe_state=np.float64(1.0),
        )

    if workload == "accum_heavy":
        n = sizes["elements"]
        blocks = [rng.integers(0, 1 << 40, n, dtype=np.int64) for _ in range(NPROCS)]
        flat = np.concatenate(blocks)
        mink = np.sort(flat)[:10][::-1].copy()   # state order: high to low
        return Inputs(
            workload, sizes, blocks,
            _all_ranks((np.int64(flat.sum()), np.int64(flat.max()), mink)),
            # Sum and Max share one tiled sweep only when every member is
            # tile-exact; MinK is not, so each operator reads the block.
            bytes_swept=3 * NPROCS * n * 8, probe_state=mink,
        )

    if workload == "wide_combine":
        rows, width = sizes["rows"], sizes["width"]
        blocks = [
            rng.integers(-1000, 1001, (rows, width)).astype(np.float64)
            for _ in range(NPROCS)
        ]
        total = np.sum(np.stack(blocks), axis=(0, 1))
        return Inputs(
            workload, sizes, blocks, _all_ranks((total,)),
            bytes_swept=NPROCS * rows * width * 8,
            probe_state=blocks[0][0].copy(),
        )

    # oneshot_scan
    n = sizes["elements"]
    cats = rng.integers(1, 9, (NPROCS, n), dtype=np.int64)
    xs = rng.integers(0, 1000, (NPROCS, n), dtype=np.int64)
    keys = np.sort(rng.integers(0, 1 << 30, NPROCS * n, dtype=np.int64))
    keys = keys.reshape(NPROCS, n)
    flat_cats = cats.ravel()
    ranking = np.zeros(NPROCS * n, dtype=np.int64)
    for c in range(1, 9):
        mask = flat_cats == c
        ranking[mask] = np.cumsum(mask)[mask]    # inclusive rank in category
    prefix = np.concatenate(([0], np.cumsum(xs.ravel())[:-1])).astype(np.int64)
    ranking, prefix = ranking.reshape(NPROCS, n), prefix.reshape(NPROCS, n)
    expected = [
        (expect(ranking[r]), expect(prefix[r]), expect(True), expect(True))
        for r in range(NPROCS)
    ]
    blocks = [(cats[r], xs[r], keys[r]) for r in range(NPROCS)]
    return Inputs(
        workload, sizes, blocks, expected,
        bytes_swept=NPROCS * n * 8 * 4,   # four reductions/scans read a block
        probe_state=np.bincount(cats[0] - 1, minlength=8).astype(np.int64),
    )


# --------------------------------------------------------------------------
# Runners: how a job reaches the program.


class _Ready:
    """A finished one-shot call presented like a ``JobHandle``."""

    def __init__(self, result: Any = None, error: BaseException | None = None):
        self._result, self._error = result, error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._result


class Runner:
    """A built workload: submits jobs, verifies results, probes phases.

    ``resident`` workloads share one :class:`repro.Engine` for the whole
    run and keep ``queue_depth`` jobs queued in throughput windows;
    ``oneshot_scan`` calls :func:`repro.spmd_run` per job (a transient
    engine each), so it is a strict closed loop of depth 1 throughout.
    """

    def __init__(
        self,
        inputs: Inputs,
        body: Callable[[Any], Any],
        phases: Callable[[Any], tuple[Any, tuple[float, float, float]]],
        probe_op: Any,
        resident: bool,
    ):
        from repro import Engine, spmd_run

        self.inputs = inputs
        self.body = body
        self.phases = phases
        self.probe_op = probe_op   # the operator whose state the mpi.* probes combine
        self.queue_depth = NPROCS if resident else 1
        self._Engine, self._spmd_run = Engine, spmd_run
        self.engine = Engine(NPROCS) if resident else None

    # -- the untraced path ---------------------------------------------------

    def submit(self, fn: Callable[[Any], Any] | None = None):
        """Start one job; ``.result()`` on the return value waits for it."""
        fn = self.body if fn is None else fn
        if self.engine is not None:
            return self.engine.submit(fn)
        try:
            return _Ready(self._spmd_run(fn, NPROCS))
        except Exception as exc:   # surfaced by .result(), like a JobHandle
            return _Ready(error=exc)

    # -- the traced path -------------------------------------------------------

    def traced_job(self, fn: Callable[[Any], Any]):
        """Run one job to completion, stamping every boundary the client
        can see.  Returns ``(result_or_exception, marks)``; for the
        one-shot workload the transient engine is built and retired with
        the same public calls ``spmd_run`` makes, so construction and
        shutdown become segments of the job's latency."""
        now = time.perf_counter
        marks = {"call": now()}
        engine = self.engine
        if engine is None:
            engine = self._Engine(NPROCS)
            marks["construct_end"] = now()
        try:
            handle = engine.submit(fn)
            marks["submit_ret"] = now()
            try:
                outcome = handle.result()
            except Exception as exc:
                outcome = exc
            marks["result_ret"] = now()
        finally:
            if engine is not self.engine:
                engine.shutdown(drain=False, timeout=5.0)
                marks["shutdown_end"] = now()
        return outcome, marks

    # -- verification ------------------------------------------------------------

    def verify(self, returns: list[Any], prefix: bool = False) -> bool:
        """Every rank's every output equals the oracle, byte for byte.
        With ``prefix`` a rank may return only its first outputs (the
        phase probes do not produce the RSMPI output)."""
        expected = self.inputs.expected
        if len(returns) != len(expected):
            return False
        for value, exp in zip(returns, expected):
            got = value if isinstance(value, tuple) else (value,)
            if prefix and got:
                exp = exp[:len(got)]
            if len(got) != len(exp):
                return False
            if not all(matches(v, e) for v, e in zip(got, exp)):
                return False
        return True

    def stats(self) -> dict[str, Any] | None:
        """The resident engine's public counters (None for one-shot)."""
        return self.engine.stats() if self.engine is not None else None

    def close(self) -> None:
        if self.engine is not None:
            self.engine.shutdown()
            self.engine = None


def build(inputs: Inputs) -> Runner:
    """Construct the world for ``inputs``: engine (resident workloads),
    operators, the compiled RSMPI operator, and the job functions.

    Returns a :class:`Runner` whose ``body(comm)`` is the job under test
    and whose ``phases(comm)`` drives the same computation phase by phase
    through public functions, returning ``(value, (accumulate, combine,
    generate))`` thread-CPU seconds — the ``core.*`` probes."""
    from repro import global_reduce, global_reduce_many, global_scan, global_xscan
    from repro.core.kernels import default_cache
    from repro.core.reduce import accumulate_local, accumulate_local_many, wire_op
    from repro.localview import LOCAL_ALLREDUCE, LOCAL_XSCAN
    from repro.ops import CountsOp, MaxOp, MinKOp, SortedOp, SumOp

    cpu = time.thread_time
    blocks = inputs.blocks
    name = inputs.workload

    def reduce_phases(comm, ops, values):
        t0 = cpu()
        if len(ops) > 1:
            states = accumulate_local_many(comm, ops, values)
        else:
            states = [accumulate_local(comm, ops[0], values)]
        t1 = cpu()
        totals = [
            LOCAL_ALLREDUCE(comm, wire_op(op), s, commutative=op.commutative)
            for op, s in zip(ops, states)
        ]
        t2 = cpu()
        outs = [op.red_gen(t) for op, t in zip(ops, totals)]
        return outs, (t1 - t0, t2 - t1, cpu() - t2)

    def scan_phases(comm, op, values, exclusive):
        t0 = cpu()
        state = accumulate_local(comm, op, values)
        t1 = cpu()
        prefix = LOCAL_XSCAN(
            comm, op.ident, wire_op(op), state, commutative=op.commutative
        )
        t2 = cpu()
        out, _ = default_cache().get(op, values).scan(
            op, prefix, values, exclusive=exclusive
        )
        return out, (t1 - t0, t2 - t1, cpu() - t2)

    if name in ("small_jobs", "wide_combine"):
        op = SumOp()

        def body(comm):
            return global_reduce(comm, op, blocks[comm.rank])

        def phases(comm):
            outs, times = reduce_phases(comm, [op], blocks[comm.rank])
            return outs[0], times

        return Runner(inputs, body, phases, op, resident=True)

    if name == "accum_heavy":
        ops = [SumOp(), MaxOp(I64_MIN), MinKOp(10, I64_MAX)]

        def body(comm):
            values = blocks[comm.rank]
            return tuple(global_reduce_many(comm, [(o, values) for o in ops]))

        def phases(comm):
            outs, times = reduce_phases(comm, ops, blocks[comm.rank])
            return tuple(outs), times

        return Runner(inputs, body, phases, ops[2], resident=True)

    # oneshot_scan
    from repro.rsmpi import RSMPI_Reduceall, compile_operator

    counts, total, ordered = CountsOp(8), SumOp(), SortedOp()
    listing8 = compile_operator(LISTING_8_SORTED)

    def body(comm):
        cats, xs, keys = blocks[comm.rank]
        return (
            global_scan(comm, counts, cats),
            global_xscan(comm, total, xs),
            bool(global_reduce(comm, ordered, keys)),
            bool(RSMPI_Reduceall(listing8, keys, comm)),
        )

    def phases(comm):
        # The three core-driver calls phase by phase; the RSMPI call is
        # probed on its own (``rsmpi.reduceall_ms``), so its output is
        # not part of this value.
        cats, xs, keys = blocks[comm.rank]
        ranking, t_a = scan_phases(comm, counts, cats, exclusive=False)
        prefix, t_b = scan_phases(comm, total, xs, exclusive=True)
        (flag,), t_c = reduce_phases(comm, [ordered], keys)
        times = tuple(a + b + c for a, b, c in zip(t_a, t_b, t_c))
        return (ranking, prefix, bool(flag)), times

    return Runner(inputs, body, phases, counts, resident=False)
