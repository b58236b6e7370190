"""The radix of the doubling schedules is a pure cost decision.

``allreduce_recursive_doubling_plan`` and ``scan_simultaneous_binomial_plan``
take a power-of-two ``radix``: each level exchanges with ``radix - 1``
peers and folds locally in the association the doubling rounds would
have produced.  Three contracts are pinned here:

* **identity** — at every radix, every rank returns the bytes radix 2
  returns, for every operator (non-commutative, inexact, ragged,
  operand-mutating), blocking or nonblocking, over lossy links too;
* **radix 2 is the parent's schedule** — literal clocks and message
  counts recorded before the radix loop existed;
* **closed-form schedule** — per-rank, per-level message counts and
  operator applications read off the trace match the stated bounds.

The radix is ``algorithm="auto"``'s decision alone, so the tests steer
it the way a deployment would: they install a decision table whose
``radix`` dimension is constant, and run under a cost model with free
bytes so the tuner's byte guard admits every payload.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpi
from repro.core.reduce import accumulate_local, wire_op
from repro.core.scan import global_xscan
from repro.faults.chaos import CHAOS_CASES
from repro.faults.plan import FaultPlan, LinkFaults
from repro.mpi import collectives as coll
from repro.mpi.tuning import Band, DecisionTable, set_decision_table
from repro.obs import Tracer
from repro.ops import SumOp
from repro.runtime import spmd_run
from repro.runtime.costmodel import CostModel
from repro.util.sizing import copy_for_transfer

UNBOUNDED = 1 << 62
FREE_BYTES = CostModel(byte_time=0.0)  # lifts the tuner's byte guard
RADICES = (2, 4, 8, 16)
RANKS = range(1, 18)


def _always(value):
    return (Band(UNBOUNDED, ((UNBOUNDED, value),)),)


def run_at_radix(prog, p, radix, **kwargs):
    """``spmd_run`` with ``auto`` pinned to the doubling schedules at
    fan-out ``radix`` for every payload."""
    table = DecisionTable(
        allreduce=_always("recursive_doubling"), reduce=_always("binomial"),
        scan=_always("binomial"), radix=_always(radix),
        source=f"test: radix {radix} everywhere",
    )
    set_decision_table(table)
    try:
        return spmd_run(prog, p, cost_model=FREE_BYTES, **kwargs)
    finally:
        set_decision_table(None)


def six_forms(comm, value, op):
    """allreduce, scan and exscan of ``value`` — blocking, then the
    nonblocking forms issued together and completed in reverse order —
    as picklable bytes.  A combine may mutate its operands, so every
    call gets its own copy."""
    fresh = lambda: copy_for_transfer(value)  # noqa: E731
    out = [
        comm.allreduce(fresh(), op),
        comm.scan(fresh(), op),
        comm.exscan(fresh(), op),
    ]
    reqs = [
        comm.iallreduce(fresh(), op),
        comm.iscan(fresh(), op),
        comm.iexscan(fresh(), op),
    ]
    out.extend(r.wait() for r in reversed(reqs))
    return pickle.dumps(out)


# --------------------------------------------------------------------------
# Identity


def catalogue_prog(comm):
    """Every chaos-catalogue operator's accumulated state through all
    six collective forms."""
    results = []
    for case in CHAOS_CASES:
        op = case.make_op()
        rng = random.Random(f"radix:{case.name}:{comm.rank}")
        state = accumulate_local(comm, op, case.make_data(rng, 5))
        results.append(six_forms(comm, state, wire_op(op)))
    return results


@pytest.fixture(scope="module")
def catalogue_baseline():
    return {p: run_at_radix(catalogue_prog, p, 2) for p in RANKS}


class TestIdentityAcrossRadices:
    @pytest.mark.parametrize("radix", RADICES[1:])
    @pytest.mark.parametrize("p", RANKS)
    def test_operator_catalogue(self, catalogue_baseline, p, radix):
        base = catalogue_baseline[p]
        got = run_at_radix(catalogue_prog, p, radix)
        for rank, (mine, ref) in enumerate(zip(got.returns, base.returns)):
            for case, a, b in zip(CHAOS_CASES, mine, ref):
                assert a == b, (case.name, p, radix, rank)
        if p >= 4:  # the wider schedule really ran: more messages
            assert got.summary_trace.n_sends > base.summary_trace.n_sends

    @pytest.mark.parametrize("radix", (4, 8))
    @pytest.mark.parametrize("p", (5, 8, 13))
    def test_operator_catalogue_over_lossy_links(
        self, catalogue_baseline, p, radix
    ):
        plan = FaultPlan(
            seed=11,
            link=LinkFaults(
                drop_rate=0.2, dup_rate=0.2, delay_rate=0.2,
                delay_seconds=1e-4, reorder_rate=0.2,
            ),
        )
        got = run_at_radix(catalogue_prog, p, radix, fault_plan=plan).returns
        assert got == catalogue_baseline[p].returns

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(1, 17),
        radix=st.sampled_from(RADICES[1:]),
        seed=st.integers(0, 2**16),
    )
    def test_generated_states(self, p, radix, seed):
        """Operators whose result depends on the association itself:
        inexact float addition, ragged non-commutative concatenation,
        non-commutative inexact 2x2 products, and an operator that
        extends its left operand in place."""
        rng = np.random.default_rng(seed)
        floats = rng.standard_normal(p) * 10.0 ** rng.integers(-8, 9, p)
        words = ["".join(chr(97 + c) for c in rng.integers(0, 26, n))
                 for n in rng.integers(0, 9, p)]
        mats = rng.standard_normal((p, 2, 2))

        def extend(a, b):
            a.extend(b)
            return a

        cases = [
            (mpi.op_create(lambda a, b: a + b, name="fadd"),
             lambda r: float(floats[r])),
            (mpi.op_create(lambda a, b: a + b, commute=False, name="cat"),
             lambda r: words[r]),
            (mpi.op_create(lambda a, b: a @ b, commute=False, name="mm"),
             lambda r: mats[r].copy()),
            (mpi.op_create(extend, commute=False, name="extend"),
             lambda r: [r] * (r % 3)),
        ]

        def prog(comm):
            return [six_forms(comm, make(comm.rank), op) for op, make in cases]

        assert (
            run_at_radix(prog, p, radix).returns
            == run_at_radix(prog, p, 2).returns
        )


# --------------------------------------------------------------------------
# Radix 2 is the parent's schedule


class TestRadixTwoIsTheParentSchedule:
    """Literal values recorded at the parent commit (plain doubling)."""

    XSCAN_CLOCKS_US = [3.0, 9.016, 10.016, 15.032, 15.032, 15.032, 16.032, 21.048]

    def test_explicit_allreduce_8_ranks_8_bytes(self):
        res = spmd_run(
            lambda c: c.allreduce(
                np.zeros(1), mpi.SUM, algorithm="recursive_doubling"
            ),
            8,
        )
        assert res.time * 1e6 == pytest.approx(21.048, abs=1e-9)
        assert res.summary_trace.n_sends == 24

    def test_explicit_xscan_per_rank_clocks(self):
        res = spmd_run(
            lambda c: global_xscan(
                c, SumOp(), np.arange(4) + c.rank, algorithm="binomial"
            ),
            8,
        )
        assert [t * 1e6 for t in res.clocks] == pytest.approx(
            self.XSCAN_CLOCKS_US, abs=1e-9
        )
        assert res.summary_trace.n_sends == 17

    def test_auto_under_a_table_without_radix_bands(self):
        """A table fitted before the dimension existed keeps ``auto`` on
        the parent's schedule too."""
        from repro.mpi.tuning import DEFAULT_TABLE

        doc = DEFAULT_TABLE.to_dict()
        del doc["radix"]
        set_decision_table(DecisionTable.from_dict(doc))
        try:
            ar = spmd_run(lambda c: c.allreduce(np.zeros(1), mpi.SUM), 8)
            xs = spmd_run(
                lambda c: global_xscan(c, SumOp(), np.arange(4) + c.rank), 8
            )
        finally:
            set_decision_table(None)
        assert ar.time * 1e6 == pytest.approx(21.048, abs=1e-9)
        assert ar.summary_trace.n_sends == 24
        assert [t * 1e6 for t in xs.clocks] == pytest.approx(
            self.XSCAN_CLOCKS_US, abs=1e-9
        )


# --------------------------------------------------------------------------
# Closed-form schedule, read off the message trace


def _plan_trace(kind, p, radix):
    """Drive one plan at ``radix`` with a counting operator; returns the
    per-rank ``(send destinations, operator applications)``."""

    def prog(comm):
        applied = [0]

        def fold(a, b):
            applied[0] += 1
            return a + b

        ch = comm._channel(kind)
        if kind == "allreduce":
            plan = coll.allreduce_recursive_doubling_plan(
                ch, 1, fold, radix=radix
            )
        else:
            plan = coll.scan_simultaneous_binomial_plan(
                ch, 1, fold, radix=radix
            )
        coll.run_plan(ch, plan)
        return applied[0]

    res = spmd_run(prog, p, tracer=Tracer())
    dests = [[edge.dest for edge in rt.sends] for rt in res.profile.ranks]
    return dests, res.returns


def _levels(p, radix):
    out = []
    while p > 1:
        out.append(min(radix, p))
        p //= out[-1]
    return out


class TestClosedFormSchedule:
    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", (2, 4, 8, 16, 32))
    def test_allreduce_levels_messages_and_folds(self, p, radix):
        """Power-of-two p with level radices r_1..r_m: every rank sends
        r_i - 1 messages in level i — all inside its level-i digit group
        — and applies the operator sum(r_i - 1) times."""
        levels = _levels(p, radix)
        dests, applied = _plan_trace("allreduce", p, radix)
        for rank in range(p):
            per_level = [0] * len(levels)
            for dest in dests[rank]:
                differ = rank ^ dest
                stride = 1
                for i, r in enumerate(levels):
                    if differ // stride < r and differ % stride == 0:
                        per_level[i] += 1
                        break
                    stride *= r
                else:
                    pytest.fail(f"rank {rank} -> {dest} crosses two digits")
            assert per_level == [r - 1 for r in levels]
            assert applied[rank] == sum(r - 1 for r in levels)

    @pytest.mark.parametrize("radix", RADICES)
    @pytest.mark.parametrize("p", (3, 7, 8, 9, 16, 17))
    def test_scan_levels_and_messages(self, p, radix):
        """Level l has stride s = radix**l; rank r sends to r + i*s for
        i = 1 .. min(radix - 1, (p - 1 - r) // s), in that order."""
        dests, _ = _plan_trace("scan", p, radix)
        for rank in range(p):
            expected, s = [], 1
            while s < p:
                n = min(radix - 1, (p - 1 - rank) // s)
                expected.extend(rank + i * s for i in range(1, n + 1))
                s *= radix
            assert dests[rank] == expected

    @pytest.mark.parametrize("radix", (3, 6, 0, 1))
    def test_radix_must_be_a_power_of_two(self, radix):
        from repro.errors import SpmdError

        for kind in ("allreduce", "scan"):
            with pytest.raises(SpmdError, match="power of two"):
                _plan_trace(kind, 4, radix)
