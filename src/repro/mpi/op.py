"""Reduction operations for the simulated MPI layer.

MPI defines twelve built-in operations (MPI-1 §4.9.2): ``MAX``, ``MIN``,
``SUM``, ``PROD``, ``LAND``, ``BAND``, ``LOR``, ``BOR``, ``LXOR``,
``BXOR``, ``MAXLOC`` and ``MINLOC`` — the paper cites exactly this set —
plus user-defined operations created from a combine function and a
commutativity flag (``MPI_Op_create``).  This module reproduces both.

Aggregation (the ``count`` argument of ``MPI_Reduce``) is expressed by
passing NumPy arrays: every built-in operation applies element-wise to
arrays, exactly as MPI applies the operation to each of ``count``
elements.  ``MAXLOC``/``MINLOC`` operate on ``(value, index)`` pairs or on
arrays of pairs (shape ``(n, 2)``), mirroring MPI's pair datatypes.

A combine function ``fn(a, b)`` receives the operand from the *lower*
group rank as ``a`` (MPI's ``inoutvec`` ordering), which is what makes
non-commutative user operations well-defined.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro import _lazy
from repro.errors import OperatorError

__all__ = [
    "Op",
    "op_create",
    "MAX",
    "MIN",
    "SUM",
    "PROD",
    "LAND",
    "BAND",
    "LOR",
    "BOR",
    "LXOR",
    "BXOR",
    "MAXLOC",
    "MINLOC",
    "BUILTIN_OPS",
]


class Op:
    """A binary reduction operation with MPI-like metadata.

    Parameters
    ----------
    fn:
        ``fn(a, b) -> combined`` where ``a`` comes from the lower rank.
        Mutation contract (the Chapel/RSMPI ``combine(s1, s2)`` contract):
        ``fn`` may mutate and return its *left* operand, but must never
        mutate its right operand.  The collective algorithms isolate
        operands accordingly.
    commutative:
        If False, the runtime restricts itself to order-preserving
        combining schedules.
    identity:
        Optional zero-argument callable producing the operation's
        identity element; required only by exclusive scans.
    elementwise:
        True when ``fn`` applies independently per array element, so a
        NumPy-array operand may be *segmented* and the operation applied
        to each slice (MPI's derived "splittable payload" property).
        Segmenting algorithms (ring, Rabenseifner, pipelined ring) and
        the ``algorithm="auto"`` tuner only ever split payloads whose op
        declares this.  A combine over whole states (mink, meanvar, ...)
        must leave it False.
    name:
        Diagnostic name.
    """

    __slots__ = ("fn", "commutative", "identity", "elementwise", "name")

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        *,
        commutative: bool = True,
        identity: Callable[[], Any] | None = None,
        elementwise: bool = False,
        name: str = "user_op",
    ):
        if not callable(fn):
            raise OperatorError(f"Op function must be callable, got {fn!r}")
        if identity is not None and not callable(identity):
            raise OperatorError(
                f"Op identity must be a zero-argument callable, got {identity!r}"
            )
        self.fn = fn
        self.commutative = bool(commutative)
        self.identity = identity
        self.elementwise = bool(elementwise)
        self.name = name

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        kind = "commutative" if self.commutative else "non-commutative"
        return f"Op({self.name}, {kind})"


# --------------------------------------------------------------------------
# Built-in element-wise operations.
# --------------------------------------------------------------------------


def _elementwise(np_fn, py_fn):
    def apply(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np_fn(a, b)
        return py_fn(a, b)

    return apply


def _logical(np_fn, py_fn):
    def apply(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np_fn(a, b)
        return py_fn(bool(a), bool(b))

    return apply


# The logical ops (LAND/LOR/LXOR) are semantically elementwise but return
# fresh bool arrays: a segmenting algorithm's in-place writeback would
# coerce the result dtype, so they do not declare ``elementwise``.
MAX = Op(_elementwise(np.maximum, max), elementwise=True, name="MAX")
MIN = Op(_elementwise(np.minimum, min), elementwise=True, name="MIN")
SUM = Op(_elementwise(np.add, lambda a, b: a + b), elementwise=True, name="SUM")
PROD = Op(_elementwise(np.multiply, lambda a, b: a * b), elementwise=True, name="PROD")
LAND = Op(_logical(np.logical_and, lambda a, b: a and b), name="LAND")
BAND = Op(_elementwise(np.bitwise_and, lambda a, b: a & b), elementwise=True, name="BAND")
LOR = Op(_logical(np.logical_or, lambda a, b: a or b), name="LOR")
BOR = Op(_elementwise(np.bitwise_or, lambda a, b: a | b), elementwise=True, name="BOR")
LXOR = Op(_logical(np.logical_xor, lambda a, b: bool(a) != bool(b)), name="LXOR")
BXOR = Op(_elementwise(np.bitwise_xor, lambda a, b: a ^ b), elementwise=True, name="BXOR")


# The pair ops, the table of all twelve and ``MPI_Op_create``.
__getattr__, __dir__, _ = _lazy.attach(
    __name__, {"op_cold": ("BUILTIN_OPS", "MAXLOC", "MINLOC", "op_create")}
)
