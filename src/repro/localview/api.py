"""The paper's local-view abstraction (Section 2).

In the local-view model each processor contributes *one already-computed
value per result* and the abstraction covers only the combine phase of
Figure 1.  Four routines support it:

* :func:`LOCAL_ALLREDUCE` / :func:`LOCAL_REDUCE` — take a combine
  function and one value per processor; leave the result on all
  processors or a single root.
* :func:`LOCAL_XSCAN` / :func:`LOCAL_SCAN` — take an identity function,
  a combine function and one value per processor; the identity function
  is required by the exclusive scan (it defines the first slot MPI
  leaves undefined).

**Aggregation** (paper §2.1): to compute many reductions at once and
amortize message overhead, pass a NumPy array of values; the combine
function is applied to whole arrays (element-wise for the built-in ops),
exactly like MPI's ``count`` argument.

The combine function follows the mutation contract of the whole library:
it may mutate and return its left (lower-rank) operand; it must never
mutate its right operand.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.mpi.comm import Communicator
from repro.mpi.op import Op
from repro.obs.tracer import NULL_SPAN
from repro.util.sizing import payload_nbytes

__all__ = [
    "LOCAL_REDUCE",
    "LOCAL_ALLREDUCE",
    "LOCAL_SCAN",
    "LOCAL_XSCAN",
]

CombineFn = Callable[[Any, Any], Any]
IdentFn = Callable[[], Any]


def _as_op(combine: CombineFn | Op, commutative: bool, identity: IdentFn | None) -> Op:
    if isinstance(combine, Op):
        if identity is not None and combine.identity is None:
            return Op(
                combine.fn,
                commutative=combine.commutative,
                identity=identity,
                elementwise=combine.elementwise,
                name=combine.name,
            )
        return combine
    return Op(combine, commutative=commutative, identity=identity)


def _local_view(
    comm: Communicator, name: str, collective: Callable[..., Any],
    value: Any, op: Op, **options: Any,
) -> Any:
    """Run the communicator's ``collective`` on one value per processor,
    under the routine's combine-phase span when tracing is on."""
    tr = comm.tracer
    with (
        tr.span(name, phase="combine", op=op.name, nbytes=payload_nbytes(value))
        if tr.enabled else NULL_SPAN
    ):
        return collective(value, op, **options)


def LOCAL_REDUCE(
    comm: Communicator,
    combine: CombineFn | Op,
    value: Any,
    *,
    root: int = 0,
    commutative: bool = True,
    fanout: int = 2,
    combine_seconds: float = 0.0,
    algorithm: str = "auto",
) -> Any:
    """Reduce one value per processor; the result lands on ``root``.

    Parameters mirror the paper: the combine function and the value.
    ``commutative`` (ignored when ``combine`` is an :class:`Op`, which
    carries its own flag) selects between order-preserving and
    as-available combining schedules; ``fanout`` widens the tree for
    commutative operators (§1).  ``algorithm`` is forwarded to
    :meth:`~repro.mpi.comm.Communicator.reduce`; the default ``"auto"``
    lets the tuned decision table pick the schedule.
    """
    return _local_view(
        comm, "LOCAL_REDUCE", comm.reduce,
        value, _as_op(combine, commutative, None), root=root, fanout=fanout,
        combine_seconds=combine_seconds, algorithm=algorithm,
    )


def LOCAL_ALLREDUCE(
    comm: Communicator,
    combine: CombineFn | Op,
    value: Any,
    *,
    commutative: bool = True,
    combine_seconds: float = 0.0,
    algorithm: str = "auto",
) -> Any:
    """Reduce one value per processor; every processor gets the result.

    ``algorithm`` is forwarded to
    :meth:`~repro.mpi.comm.Communicator.allreduce`; the default
    ``"auto"`` lets the tuned decision table pick the schedule.
    """
    return _local_view(
        comm, "LOCAL_ALLREDUCE", comm.allreduce,
        value, _as_op(combine, commutative, None),
        combine_seconds=combine_seconds, algorithm=algorithm,
    )


def LOCAL_SCAN(
    comm: Communicator,
    ident: IdentFn | None,
    combine: CombineFn | Op,
    value: Any,
    *,
    commutative: bool = True,
    combine_seconds: float = 0.0,
    algorithm: str = "auto",
) -> Any:
    """Inclusive prefix over processors: rank r gets v_0 ⊕ ... ⊕ v_r.

    The identity function is accepted for symmetry with LOCAL_XSCAN but
    is not needed by the inclusive scan (paper §2: the inclusive scan can
    be computed from the exclusive one without communication, not vice
    versa).
    """
    return _local_view(
        comm, "LOCAL_SCAN", comm.scan,
        value, _as_op(combine, commutative, ident),
        combine_seconds=combine_seconds, algorithm=algorithm,
    )


def LOCAL_XSCAN(
    comm: Communicator,
    ident: IdentFn,
    combine: CombineFn | Op,
    value: Any,
    *,
    commutative: bool = True,
    combine_seconds: float = 0.0,
    algorithm: str = "auto",
) -> Any:
    """Exclusive prefix over processors: rank r gets v_0 ⊕ ... ⊕ v_{r-1};
    rank 0 gets ``ident()``.  The identity function is mandatory — it is
    exactly what makes the exclusive scan's first slot well-defined."""
    if ident is None and not (isinstance(combine, Op) and combine.identity):
        raise TypeError("LOCAL_XSCAN requires an identity function")
    return _local_view(
        comm, "LOCAL_XSCAN", comm.exscan,
        value, _as_op(combine, commutative, ident),
        combine_seconds=combine_seconds, algorithm=algorithm,
    )


def exclusive_from_inclusive_shift(
    comm: Communicator,
    inclusive_local: Any,
    ident: IdentFn,
) -> Any:
    """Derive the exclusive scan from the inclusive one **by shifting**.

    Paper §2: "Given the inclusive scan, it is impossible to compute the
    exclusive scan without communication if the combine function cannot
    be inverted ... the exclusive scan can only be computed from the
    inclusive scan by shifting the values across the processors."  This
    is that shift: every rank sends its inclusive value one rank to the
    right; rank 0 takes the identity.  One neighbor message per rank —
    cheaper than re-scanning, dearer than the local inclusive-from-
    exclusive direction, which needs no communication at all.

    Works per-rank on the local-view values (one value per rank); for
    element sequences apply it to the last local element and shift
    locally.
    """
    r, p = comm.rank, comm.size
    if r < p - 1:
        comm.send(inclusive_local, dest=r + 1, tag=11)
    if r > 0:
        return comm.recv(source=r - 1, tag=11)
    return ident()
