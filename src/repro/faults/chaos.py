"""Chaos soak-testing: every operator under random seeded fault plans.

The harness behind ``python -m repro chaos``.  For each operator in
``repro.ops`` (via a curated case registry that knows how to build the
operator and generate suitable input data) it runs the global-view
reduction/scan drivers under seeded fault plans and checks the results
against failure-free baselines:

Lossy mode (all operators)
    A plan dropping/duplicating/delaying/reordering messages must leave
    results **bit-identical** to the fault-free run — the reliable
    delivery layer makes lossy links cost virtual time, never
    correctness.  Reductions and scans are both checked.

Fail-stop mode (commutative operators)
    One rank is fail-stopped at its first send — which, under the
    global-view drivers, is inside the combine phase, after its local
    accumulate completed.  Survivors must recover the **survivor-only
    baseline**: the result of a fault-free run over ``p - 1`` ranks
    holding the survivors' data blocks.  Because the recovered combine
    runs the very same schedule over the very same checkpointed states,
    the comparison is exact, not approximate.  Non-commutative
    operators are checked for the documented clean failure instead
    (:class:`~repro.errors.OperatorError` naming the operator).

Determinism
    Each faulted run is executed twice; results, failed-rank sets and
    virtual makespans must match exactly.

Fault activity (retransmits, duplicates, delays, reorders, fail-stops,
recovery rounds) is read off each faulted run's always-on traces
(``SpmdResult.summary_trace.faults``) — no tracer is built — and
included in each case's report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro import ops as _ops
from repro.core.operator import ReduceScanOp
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan
from repro.core.validation import state_equal
from repro.errors import OperatorError, SpmdError
from repro.faults.plan import FailStop, FaultPlan, LinkFaults
from repro.runtime.executor import spmd_run

__all__ = ["ChaosCase", "CHAOS_CASES", "run_chaos", "chaos_report_lines"]


@dataclass(frozen=True)
class ChaosCase:
    """One operator plus a generator of suitable random input data."""

    name: str
    make_op: Callable[[], ReduceScanOp]
    make_data: Callable[[random.Random, int], list]
    scan: bool = True  # some ops only define a meaningful reduction


def _floats(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(-10.0, 10.0) for _ in range(n)]


def _near_one(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.9, 1.1) for _ in range(n)]


def _bools(rng: random.Random, n: int) -> list[bool]:
    return [rng.random() < 0.5 for _ in range(n)]


def _ints(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(0, 256) for _ in range(n)]


def _distinct(rng: random.Random, n: int) -> list[float]:
    # Distinct values keep order-of-equals ambiguity out of k-smallest /
    # location operators, so exact comparison is meaningful.
    return rng.sample([float(v) for v in range(10 * n)], n)


def _val_loc(rng: random.Random, n: int) -> list[tuple[float, int]]:
    vals = _distinct(rng, n)
    locs = rng.sample(range(100 * (n + 1)), n)
    return list(zip(vals, locs))


def _unit(rng: random.Random, n: int) -> list[float]:
    return [rng.random() for _ in range(n)]


def _small_ints(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(1, 9) for _ in range(n)]


def _seg_pairs(rng: random.Random, n: int) -> list[tuple[float, int]]:
    return [(rng.uniform(-5, 5), int(rng.random() < 0.3)) for _ in range(n)]


def _affine_pairs(rng: random.Random, n: int) -> list[tuple[float, float]]:
    return [(rng.uniform(0.5, 1.5), rng.uniform(-1, 1)) for _ in range(n)]


#: Every public operator in ``repro.ops`` appears here exactly once,
#: except pure state/result types (``SortedState`` etc.), the
#: ``linear_recurrence`` convenience function, and
#: ``DishonestCommutativeSortedOp`` — the latter *deliberately* lies
#: about commutativity (it exists to demonstrate operator validation),
#: so no recovery guarantee can hold for it.
CHAOS_CASES: tuple[ChaosCase, ...] = (
    ChaosCase("sum", lambda: _ops.SumOp(), _floats),
    ChaosCase("prod", lambda: _ops.ProdOp(), _near_one),
    ChaosCase("min", lambda: _ops.MinOp(), _floats),
    ChaosCase("max", lambda: _ops.MaxOp(), _floats),
    ChaosCase(
        "ufunc_max",
        lambda: _ops.UfuncOp(np.maximum, -np.inf, "ufunc_max"),
        _floats,
    ),
    ChaosCase("all", lambda: _ops.AllOp(), _bools),
    ChaosCase("any", lambda: _ops.AnyOp(), _bools),
    ChaosCase("xor", lambda: _ops.XorOp(), _bools),
    ChaosCase("band", lambda: _ops.BandOp(), _ints),
    ChaosCase("bor", lambda: _ops.BorOp(), _ints),
    ChaosCase("bxor", lambda: _ops.BxorOp(), _ints),
    ChaosCase("mini", lambda: _ops.MiniOp(), _val_loc),
    ChaosCase("maxi", lambda: _ops.MaxiOp(), _val_loc),
    ChaosCase("mink", lambda: _ops.MinKOp(3), _distinct),
    ChaosCase("maxk", lambda: _ops.MaxKOp(3), _distinct),
    ChaosCase("translate_mink", lambda: _ops.TranslateMinKOp(3), _distinct),
    ChaosCase("counts", lambda: _ops.CountsOp(8), _small_ints),
    ChaosCase("union", lambda: _ops.UnionOp(), _small_ints),
    ChaosCase("distinct_count", lambda: _ops.DistinctCountOp(), _small_ints),
    ChaosCase("concat", lambda: _ops.ConcatOp(), _ints),
    ChaosCase(
        "histogram",
        lambda: _ops.HistogramOp([0.0, 0.25, 0.5, 0.75, 1.0], clip=True),
        _unit,
    ),
    ChaosCase("sorted", lambda: _ops.SortedOp(), _floats),
    ChaosCase("meanvar", lambda: _ops.MeanVarOp(), _floats),
    ChaosCase("extrema_kloc", lambda: _ops.ExtremaKLocOp(3), _val_loc),
    ChaosCase("mink_loc", lambda: _ops.MinKLocOp(3), _val_loc),
    ChaosCase("maxk_loc", lambda: _ops.MaxKLocOp(3), _val_loc),
    ChaosCase(
        "fused",
        lambda: _ops.FusedOp([_ops.SumOp(), _ops.MinKOp(3)]),
        _distinct,
    ),
    ChaosCase(
        "segmented",
        lambda: _ops.SegmentedOp(lambda a, b: a + b, 0.0, name="segsum"),
        _seg_pairs,
    ),
    ChaosCase("topk", lambda: _ops.TopKOp(4), _distinct),
    ChaosCase("affine", lambda: _ops.AffineOp(), _affine_pairs),
    ChaosCase("logsumexp", lambda: _ops.LogSumExpOp(), _floats),
)


@dataclass
class CaseResult:
    """Outcome of one (case, seed, nprocs) chaos trial."""

    case: str
    seed: int
    nprocs: int
    mode: str  # "lossy" or "failstop"
    ok: bool
    detail: str = ""
    #: Fault events injected into the checked faulted runs, by kind.
    faults: dict = field(default_factory=dict)


def _blocks(case: ChaosCase, seed: int, nprocs: int, n_per_rank: int) -> list[list]:
    rng = random.Random(f"chaos-data:{case.name}:{seed}")
    return [case.make_data(rng, n_per_rank) for _ in range(nprocs)]


def _reduce_prog(case: ChaosCase, blocks: list[list]):
    def prog(comm):
        return global_reduce(comm, case.make_op(), blocks[comm.rank])

    return prog


def _scan_prog(case: ChaosCase, blocks: list[list]):
    def prog(comm):
        return global_scan(comm, case.make_op(), blocks[comm.rank])

    return prog


def _add_faults(totals: dict[str, int], result) -> None:
    for k, v in (result.summary_trace.faults or {}).items():
        totals[k] = totals.get(k, 0) + v


def _run_lossy(case: ChaosCase, seed: int, nprocs: int, n_per_rank: int) -> CaseResult:
    blocks = _blocks(case, seed, nprocs, n_per_rank)
    rng = random.Random(f"chaos-lossy:{seed}")
    plan = FaultPlan(
        seed=seed,
        link=LinkFaults(
            drop_rate=rng.uniform(0.05, 0.3),
            dup_rate=rng.uniform(0.05, 0.3),
            delay_rate=rng.uniform(0.0, 0.3),
            delay_seconds=1e-4,
            reorder_rate=rng.uniform(0.0, 0.3),
        ),
    )
    progs = [("reduce", _reduce_prog(case, blocks))]
    if case.scan:
        progs.append(("scan", _scan_prog(case, blocks)))
    faults: dict[str, int] = {}
    for what, prog in progs:
        base = spmd_run(prog, nprocs)
        faulted = spmd_run(prog, nprocs, fault_plan=plan)
        again = spmd_run(prog, nprocs, fault_plan=plan)
        _add_faults(faults, faulted)
        if not state_equal(faulted.returns, base.returns):
            return CaseResult(
                case.name, seed, nprocs, "lossy", False,
                f"{what}: faulted result != fault-free baseline", faults,
            )
        if not state_equal(faulted.returns, again.returns) or (
            faulted.time != again.time
        ):
            return CaseResult(
                case.name, seed, nprocs, "lossy", False,
                f"{what}: faulted run is not deterministic per seed", faults,
            )
    return CaseResult(case.name, seed, nprocs, "lossy", True, "", faults)


def _run_failstop(case: ChaosCase, seed: int, nprocs: int, n_per_rank: int) -> CaseResult:
    blocks = _blocks(case, seed, nprocs, n_per_rank)
    rng = random.Random(f"chaos-failstop:{seed}:{nprocs}")
    victim = rng.randrange(1, nprocs)  # rank 0 survives as reference
    plan = FaultPlan(seed=seed, failstops=(FailStop(rank=victim, at_op=1),))
    op = case.make_op()
    faults: dict[str, int] = {}
    if not op.commutative:
        # Documented clean failure: the combine collapses with an
        # OperatorError naming the operator, not a hang or a wrong answer.
        prog = _reduce_prog(case, blocks)
        try:
            spmd_run(prog, nprocs, fault_plan=plan)
        except SpmdError as e:
            if any(
                isinstance(exc, OperatorError) and op.name in str(exc)
                for exc in e.failures.values()
            ):
                return CaseResult(
                    case.name, seed, nprocs, "failstop", True, "", faults
                )
            return CaseResult(
                case.name, seed, nprocs, "failstop", False,
                f"non-commutative op failed without OperatorError: {e}",
                faults,
            )
        return CaseResult(
            case.name, seed, nprocs, "failstop", False,
            "non-commutative op did not fail cleanly", faults,
        )
    survivor_blocks = [b for q, b in enumerate(blocks) if q != victim]
    progs = [("reduce", _reduce_prog)]
    if case.scan:
        progs.append(("scan", _scan_prog))
    for what, make_prog in progs:
        faulted = spmd_run(make_prog(case, blocks), nprocs, fault_plan=plan)
        again = spmd_run(make_prog(case, blocks), nprocs, fault_plan=plan)
        baseline = spmd_run(make_prog(case, survivor_blocks), nprocs - 1)
        _add_faults(faults, faulted)
        survivors_out = [
            r for q, r in enumerate(faulted.returns) if q != victim
        ]
        if faulted.failed_ranks != {victim}:
            return CaseResult(
                case.name, seed, nprocs, "failstop", False,
                f"{what}: failed_ranks {set(faulted.failed_ranks)} != "
                f"{{{victim}}}", faults,
            )
        if not state_equal(survivors_out, baseline.returns):
            return CaseResult(
                case.name, seed, nprocs, "failstop", False,
                f"{what}: survivors' result != survivor-only baseline",
                faults,
            )
        # Results are deterministic per seed (the re-combine runs from
        # fixed checkpoints over a fixed survivor group); the *virtual
        # time* of recovery is not compared — which survivor detects the
        # failure first depends on detection interleaving (see
        # docs/fault_model.md).
        if not state_equal(faulted.returns, again.returns):
            return CaseResult(
                case.name, seed, nprocs, "failstop", False,
                f"{what}: faulted run is not deterministic per seed", faults,
            )
    return CaseResult(case.name, seed, nprocs, "failstop", True, "", faults)


def run_chaos(
    *,
    seeds: Sequence[int],
    sizes: Sequence[int] = (4, 8, 16),
    n_per_rank: int = 6,
    cases: Sequence[ChaosCase] | None = None,
    modes: Sequence[str] = ("lossy", "failstop"),
    progress: Callable[[CaseResult], None] | None = None,
) -> list[CaseResult]:
    """Run the chaos grid; returns one :class:`CaseResult` per trial."""
    if cases is None:
        cases = CHAOS_CASES
    runners = {"lossy": _run_lossy, "failstop": _run_failstop}
    results: list[CaseResult] = []
    for case in cases:
        for nprocs in sizes:
            for seed in seeds:
                for mode in modes:
                    if mode == "failstop" and nprocs < 2:
                        continue
                    res = runners[mode](case, seed, nprocs, n_per_rank)
                    results.append(res)
                    if progress is not None:
                        progress(res)
    return results


def chaos_report_lines(results: list[CaseResult]) -> list[str]:
    """Human-readable summary: per-case verdicts plus fault totals."""
    lines = []
    by_case: dict[tuple[str, str], list[CaseResult]] = {}
    for r in results:
        by_case.setdefault((r.case, r.mode), []).append(r)
    totals: dict[str, int] = {}
    failures = [r for r in results if not r.ok]
    for (name, mode), rs in sorted(by_case.items()):
        n_ok = sum(1 for r in rs if r.ok)
        lines.append(
            f"  {name:<16} {mode:<9} {n_ok}/{len(rs)} trials ok"
        )
        for r in rs:
            for k, v in r.faults.items():
                totals[k] = totals.get(k, 0) + v
    lines.append("")
    lines.append(
        f"{len(results) - len(failures)}/{len(results)} trials passed"
    )
    if totals:
        lines.append(
            "fault events: " + ", ".join(
                f"{k}={v}" for k, v in sorted(totals.items())
            )
        )
    for r in failures:
        lines.append(
            f"FAIL {r.case}/{r.mode} seed={r.seed} p={r.nprocs}: {r.detail}"
        )
    return lines
