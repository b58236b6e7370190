"""The MPI op surface no global-view driver uses — ``MAXLOC`` /
``MINLOC`` (MPI-1 §4.9.3), :data:`BUILTIN_OPS` and :func:`op_create` —
exported by :mod:`repro.mpi.op` on first touch."""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import OperatorError
from repro.mpi.op import BAND, BOR, BXOR, LAND, LOR, LXOR, MAX, MIN, PROD, SUM, Op

__all__ = ["op_create", "MAXLOC", "MINLOC", "BUILTIN_OPS"]


def op_create(
    fn: Callable[[Any, Any], Any],
    commute: bool = True,
    *,
    identity: Callable[[], Any] | None = None,
    elementwise: bool = False,
    name: str = "user_op",
) -> Op:
    """Create a user-defined operation (the analogue of ``MPI_Op_create``)."""
    return Op(
        fn, commutative=commute, identity=identity,
        elementwise=elementwise, name=name,
    )


def _pair_rows(x) -> np.ndarray:
    """Normalize MAXLOC/MINLOC operands to an (n, 2) float view."""
    arr = np.asarray(x)
    if arr.ndim == 1 and arr.shape[0] == 2:
        return arr.reshape(1, 2)
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr
    raise OperatorError(
        "MAXLOC/MINLOC operands must be (value, index) pairs or (n, 2) "
        f"arrays of pairs, got shape {arr.shape}"
    )


def _loc_combine(a, b, *, want_max: bool):
    """MPI MAXLOC/MINLOC semantics: pick the extreme value; on ties pick
    the smaller index (MPI-1 §4.9.3)."""
    scalar = not (
        (isinstance(a, np.ndarray) and np.asarray(a).ndim == 2)
        or (isinstance(b, np.ndarray) and np.asarray(b).ndim == 2)
    )
    ra, rb = _pair_rows(a), _pair_rows(b)
    if ra.shape != rb.shape:
        raise OperatorError(
            f"MAXLOC/MINLOC operand shapes differ: {ra.shape} vs {rb.shape}"
        )
    va, ia = ra[:, 0], ra[:, 1]
    vb, ib = rb[:, 0], rb[:, 1]
    if want_max:
        take_a = (va > vb) | ((va == vb) & (ia <= ib))
    else:
        take_a = (va < vb) | ((va == vb) & (ia <= ib))
    out = np.where(take_a[:, None], ra, rb)
    if scalar:
        v, i = out[0]
        if isinstance(a, tuple):
            # preserve tuple form; non-finite "no location" markers
            # (e.g. +inf padding on non-participating ranks) stay floats
            return (float(v), int(i) if np.isfinite(i) else float(i))
        return out[0]
    return out


MAXLOC = Op(lambda a, b: _loc_combine(a, b, want_max=True), name="MAXLOC")
MINLOC = Op(lambda a, b: _loc_combine(a, b, want_max=False), name="MINLOC")

#: The twelve MPI built-ins, by name.
BUILTIN_OPS: dict[str, Op] = {
    op.name: op
    for op in (MAX, MIN, SUM, PROD, LAND, BAND, LOR, BOR, LXOR, BXOR, MAXLOC, MINLOC)
}
