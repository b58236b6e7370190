"""The schedule registry (``repro.mpi.collectives.SCHEDULES``) end to end.

One suite driven by the registry itself, so a newly registered schedule
is covered the moment it is added — and fails here until it states its
closed-form message count:

* every registered schedule x ranks 1-17 x {commutative, non-commutative
  where the schedule declares ``order_preserving``} x {blocking, ``i*``
  where it declares ``resumable``} returns the sequential fold, and
  sends exactly its closed-form number of messages;
* the tuner's guards, now derived from the declared properties, answer
  exactly what the hand-written ``choose_*`` functions answered;
* an unknown ``algorithm=`` name is rejected with exactly the registry's
  names for that kind.
"""

import functools

import numpy as np
import pytest

from repro import mpi
from repro.core.operator import state_equal
from repro.errors import CommunicatorError, SpmdError
from repro.mpi import collectives as coll
from repro.mpi import tuning
from repro.runtime import spmd_run

ALL_SCHEDULES = [s for kind in coll.SCHEDULES for s in coll.schedules(kind)]
RANKS = range(1, 18)


def _affine(left, right):
    """Row-wise composition of affine maps x -> a*x + b ("left, then
    right"): associative, elementwise over rows, not commutative."""
    out = np.empty_like(left)
    out[:, 0] = left[:, 0] * right[:, 0]
    out[:, 1] = left[:, 1] * right[:, 0] + right[:, 1]
    return out


AFFINE = mpi.op_create(_affine, commute=False, elementwise=True, name="affine")


def _value(op, rank, p):
    if op is mpi.SUM:  # exact, and long enough for every rank to own a piece
        return np.arange(2 * p + 3, dtype=np.int64) * (rank + 1)
    # Slopes 1..3 keep 17 compositions far inside int64.
    return np.array(
        [[1 + (rank + i) % 3, rank * 7 + i] for i in range(p + 2)],
        dtype=np.int64,
    )


#: The public entry points of each kind (default: the kind's own name).
ENTRY_POINTS = {"scan": ("scan", "exscan")}
IDENTITY = "identity-slot"


def _pof2(p):
    return 1 << (p.bit_length() - 1)


def _log2(n):
    return n.bit_length() - 1


def _doubling(p, rounds_per_level=1):
    core = _pof2(p)
    return rounds_per_level * core * _log2(core) + 2 * (p - core)


#: Messages one call sends in total over ``p`` ranks (root 0).
CLOSED_FORM = {
    ("reduce", "binomial"): lambda p: p - 1,
    ("reduce", "pipelined_ring"): lambda p: p - 1,  # one segment below 64 KiB
    ("reduce", "kary"): lambda p: p - 1,
    ("allreduce", "recursive_doubling"): _doubling,
    ("allreduce", "ring"): lambda p: 2 * p * (p - 1),
    ("allreduce", "rabenseifner"): lambda p: _doubling(p, 2),
    # No node partition on the flat fabric: singleton groups, whose
    # leader allreduce is Rabenseifner for a commutative splittable
    # operand (recursive doubling otherwise, see _sends).
    ("allreduce", "hierarchical"): lambda p: _doubling(p, 2),
    ("scan", "binomial"): lambda p: sum(
        p - (1 << k) for k in range(p.bit_length()) if (1 << k) < p
    ),
    ("scan", "chain"): lambda p: p - 1,
    ("reduce_scatter", "ring"): lambda p: p * (p - 1),
    ("bcast", "binomial"): lambda p: p - 1,
    ("gather", "binomial"): lambda p: p - 1,
    ("scatter", "binomial"): lambda p: p - 1,
    ("allgather", "gather_bcast"): lambda p: 2 * (p - 1),
    ("alltoall", "pairwise"): lambda p: p * (p - 1),
    ("barrier", "dissemination"): lambda p: p * (p - 1).bit_length(),
}


def _sends(sched, p, op):
    form = CLOSED_FORM[sched.kind, sched.name]
    if sched.groups and op is AFFINE:
        form = _doubling
    return form(p)


def _operands(entry, comm, op):
    rank, p = comm.rank, comm.size
    if op is not None:
        return (_value(op, rank, p), op)
    if entry in ("bcast", "gather"):
        return (("item", rank), p // 2)
    if entry == "scatter":
        items = [("item", i) for i in range(p)] if rank == p // 2 else None
        return (items, p // 2)
    if entry == "allgather":
        return (("item", rank),)
    if entry == "alltoall":
        return ([rank * 100 + i for i in range(p)],)
    return ()  # barrier


def _expected(entry, rank, p, op):
    """What the sequential fold (or plain data movement) says ``rank``
    gets from ``entry``."""
    if op is not None:
        values = [_value(op, r, p) for r in range(p)]
        fold = functools.partial(functools.reduce, op)
    root = p // 2
    if entry == "reduce":
        return fold(values) if rank == 0 else None
    if entry == "allreduce":
        return fold(values)
    if entry == "scan":
        return fold(values[: rank + 1])
    if entry == "exscan":
        return fold(values[:rank]) if rank else IDENTITY
    if entry == "reduce_scatter":
        total = fold(values)
        bounds = np.linspace(0, len(total), p + 1).astype(int)
        lo, hi = int(bounds[rank]), int(bounds[rank + 1])
        return (total[lo:hi], (lo, hi))
    if entry == "bcast":
        return ("item", root)
    if entry == "gather":
        return [("item", r) for r in range(p)] if rank == root else None
    if entry == "scatter":
        return ("item", rank)
    if entry == "allgather":
        return [("item", r) for r in range(p)]
    if entry == "alltoall":
        return [src * 100 + rank for src in range(p)]
    return None  # barrier


def _call(comm, sched, entry, op, nonblocking):
    """One call of ``sched`` through the communicator: the public method
    where there is one, else the request form the public ``i*`` methods
    are themselves written in."""
    operands = _operands(entry, comm, op)
    options = {"identity": lambda: IDENTITY} if entry == "exscan" else {}
    method = getattr(comm, ("i" if nonblocking else "") + entry, None)
    if method is None:
        return comm._collective(
            "i" + entry, sched.kind, *operands, request=True
        ).wait()
    if sched.kind in tuning.TUNED_KINDS:
        options["algorithm"] = sched.name
    out = method(*operands, **options)
    return out.wait() if nonblocking else out


def _variants(sched):
    """``(op, nonblocking)`` combinations the declared properties admit;
    the first — blocking, commutative — always exists."""
    has_op = sched.kind in ("reduce", "allreduce", "scan", "reduce_scatter")
    ops = [mpi.SUM if has_op else None]
    if has_op and sched.order_preserving:
        ops.append(AFFINE)
    return [
        (op, nonblocking)
        for nonblocking in ((False, True) if sched.resumable else (False,))
        for op in ops
    ]


def test_every_schedule_states_its_closed_form():
    assert set(CLOSED_FORM) == {(s.kind, s.name) for s in ALL_SCHEDULES}


@pytest.mark.parametrize(
    "sched", ALL_SCHEDULES, ids=lambda s: f"{s.kind}-{s.name}"
)
def test_fold_and_message_count(sched):
    entries = ENTRY_POINTS.get(sched.kind, (sched.kind,))
    first, *rest = _variants(sched)

    def run(variants, p):
        def prog(comm):
            return [
                _call(comm, sched, entry, op, nonblocking)
                for op, nonblocking in variants
                for entry in entries
            ]

        res = spmd_run(prog, p)
        for rank, got in enumerate(res.returns):
            want = [
                _expected(entry, rank, p, op)
                for op, _ in variants
                for entry in entries
            ]
            assert state_equal(got, want), (sched, p, rank, variants)
        return res.summary_trace.n_sends

    for p in RANKS:
        for variants in filter(None, ([first], rest)):
            # the same count blocking or not
            want = len(entries) * sum(
                _sends(sched, p, op) for op, _ in variants
            )
            assert run(variants, p) == want, (sched, p, variants)


# ---------------------------------------------------------------------------
# Derived guards == the hand-written ones they replaced
# ---------------------------------------------------------------------------


def _old_choose(kind, nbytes, nprocs, commutative, splittable, table):
    """The three ``choose_*`` bodies as they were written by hand."""
    if kind == "allreduce":
        if nprocs <= 2 or not (commutative and splittable):
            return "recursive_doubling"
    elif kind == "reduce":
        if nprocs <= 2 or not splittable:
            return "binomial"
    elif nprocs <= 2:
        return "chain" if nprocs == 2 else "binomial"
    return table.lookup(kind, nbytes, nprocs)


_EVERYWHERE_RING = tuning.DecisionTable(
    allreduce=(tuning.Band(1 << 62, ((1 << 62, "ring"),)),),
    reduce=(tuning.Band(1 << 62, ((1 << 62, "pipelined_ring"),)),),
    scan=(tuning.Band(1 << 62, ((1 << 62, "chain"),)),),
)


@pytest.mark.parametrize(
    "table", [tuning.DEFAULT_TABLE, _EVERYWHERE_RING], ids=["default", "ring"]
)
def test_derived_guards_match_hand_written(table):
    for kind in tuning.TUNED_KINDS:
        choose = getattr(tuning, f"choose_{kind}")
        for nbytes in (1, 8, 4096, 10**4, 16384, 65536, 262144, 10**7, 10**8):
            for p in (1, 2, 3, 4, 8, 9, 16, 17, 32, 64, 100):
                for commutative in (True, False):
                    for splittable in (True, False):
                        args = (nbytes, p, commutative, splittable)
                        want = _old_choose(kind, *args, table)
                        assert choose(*args, table=table) == want, (kind, args)
                        lo, hi, got = tuning.constant_span(
                            kind, *args, table=table
                        )
                        assert got == want and lo <= nbytes <= hi


def test_candidate_pools_come_from_the_registry():
    assert tuning.candidates("allreduce") == (
        "recursive_doubling", "ring", "rabenseifner",
    )
    assert tuning.candidates("allreduce", fabric=True) == (
        *tuning.candidates("allreduce"), "hierarchical",
    )
    assert tuning.candidates("reduce") == ("binomial", "pipelined_ring")
    # No fabric-only scan: the pool on a multi-tier fabric is the flat one.
    assert (
        tuning.candidates("scan", fabric=True)
        == tuning.candidates("scan")
        == ("binomial", "chain")
    )
    assert tuning.RADIX_SCHEDULES == {
        "allreduce": "recursive_doubling", "scan": "binomial",
    }


# ---------------------------------------------------------------------------
# Error lists are generated from the registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry,kind",
    [
        ("reduce", "reduce"), ("ireduce", "reduce"),
        ("allreduce", "allreduce"), ("iallreduce", "allreduce"),
        ("scan", "scan"), ("exscan", "scan"),
        ("iscan", "scan"), ("iexscan", "scan"),
    ],
)
def test_unknown_algorithm_lists_the_registry(entry, kind):
    def prog(comm):
        getattr(comm, entry)(1.0, mpi.SUM, algorithm="bogus")

    with pytest.raises(SpmdError) as ei:
        spmd_run(prog, 2, timeout=10)
    err = ei.value.failures[0]
    assert isinstance(err, CommunicatorError)
    names = ["auto"] + [
        s.name for s in coll.schedules(kind)
        if s.resumable or not entry.startswith("i")
    ]
    listed = ", ".join(map(repr, names[:-1])) + f" or {names[-1]!r}"
    assert str(err) == (
        f"unknown {entry} algorithm 'bogus'; choose {listed}"
    )
