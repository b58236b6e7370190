"""Functional construction of global-view operators.

Not every operator deserves a class.  :func:`make_op` assembles a
:class:`~repro.core.operator.ReduceScanOp` from plain functions — the
closest Python analogue to RSMPI's "build up a library of operators"
workflow — and :func:`from_binary` wraps an ordinary binary function
(e.g. ``operator.add``) into a degenerate global-view operator whose
input, state and output types coincide, which is exactly the case where
"the global-view abstraction reduces to the local-view abstraction"
(paper §3).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError

__all__ = ["make_op", "from_binary"]


class _FunctionalOp(ReduceScanOp):
    """A ReduceScanOp assembled from user-supplied callables."""

    def __init__(
        self,
        *,
        ident: Callable[[], Any],
        accum: Callable[[Any, Any], Any],
        combine: Callable[[Any, Any], Any],
        pre_accum: Callable[[Any, Any], Any] | None = None,
        post_accum: Callable[[Any, Any], Any] | None = None,
        gen: Callable[[Any], Any] | None = None,
        red_gen: Callable[[Any], Any] | None = None,
        scan_gen: Callable[[Any, Any], Any] | None = None,
        commutative: bool = True,
        name: str = "op",
        accum_rate: str | None = None,
        combine_seconds: float = 0.0,
    ):
        self._ident = ident
        self._accum = accum
        self._combine = combine
        self._pre_accum = pre_accum
        self._post_accum = post_accum
        self._gen = gen
        self._red_gen = red_gen
        self._scan_gen = scan_gen
        self.commutative = bool(commutative)
        self._name = name
        self.accum_rate = accum_rate
        self.combine_seconds = float(combine_seconds)

    # required
    def ident(self):
        return self._ident()

    def accum(self, state, x):
        return self._accum(state, x)

    def combine(self, s1, s2):
        return self._combine(s1, s2)

    # optional
    def pre_accum(self, state, x):
        return self._pre_accum(state, x) if self._pre_accum else state

    def post_accum(self, state, x):
        return self._post_accum(state, x) if self._post_accum else state

    def gen(self, state):
        return self._gen(state) if self._gen else state

    def red_gen(self, state):
        return self._red_gen(state) if self._red_gen else self.gen(state)

    def scan_gen(self, state, x):
        return self._scan_gen(state, x) if self._scan_gen else self.gen(state)

    @property
    def name(self) -> str:
        return self._name


class _BlockFunctionalOp(_FunctionalOp):
    """A functional operator that also brings its own block fold.  A
    class of its own because the kernel tier classifies an operator by
    which class's ``accum_block`` it has: one built without a block
    function keeps the base-class loop as the base class's method."""

    def __init__(self, *, accum_block: Callable[[Any, Any], Any], **functions):
        super().__init__(**functions)
        self._accum_block = accum_block

    def accum_block(self, state, values):
        return self._accum_block(state, values)


def make_op(
    *,
    ident: Callable[[], Any],
    accum: Callable[[Any, Any], Any],
    combine: Callable[[Any, Any], Any],
    pre_accum: Callable[[Any, Any], Any] | None = None,
    post_accum: Callable[[Any, Any], Any] | None = None,
    gen: Callable[[Any], Any] | None = None,
    red_gen: Callable[[Any], Any] | None = None,
    scan_gen: Callable[[Any, Any], Any] | None = None,
    accum_block: Callable[[Any, Any], Any] | None = None,
    commutative: bool = True,
    name: str = "op",
    accum_rate: str | None = None,
    combine_seconds: float = 0.0,
) -> ReduceScanOp:
    """Build a global-view operator from plain functions.

    Required: ``ident``, ``accum``, ``combine`` (the paper's minimum:
    "Every class that defines an operator ... must define at least the
    three functions accum, combine, and gen" — ``gen`` defaults to the
    identity mapping on states here, matching operators whose state *is*
    their output).
    """
    for fname, f in (("ident", ident), ("accum", accum), ("combine", combine)):
        if not callable(f):
            raise OperatorError(f"make_op: {fname} must be callable, got {f!r}")
    functions = dict(
        ident=ident,
        accum=accum,
        combine=combine,
        pre_accum=pre_accum,
        post_accum=post_accum,
        gen=gen,
        red_gen=red_gen,
        scan_gen=scan_gen,
        commutative=commutative,
        name=name,
        accum_rate=accum_rate,
        combine_seconds=combine_seconds,
    )
    if accum_block is None:
        return _FunctionalOp(**functions)
    return _BlockFunctionalOp(accum_block=accum_block, **functions)


def from_binary(
    fn: Callable[[Any, Any], Any],
    identity: Callable[[], Any],
    *,
    commutative: bool = True,
    name: str = "binary_op",
    vectorized: bool = False,
) -> ReduceScanOp:
    """Wrap a plain binary function into a degenerate global-view operator
    (input type == state type == output type).

    With ``vectorized=True`` the accumulate phase folds a NumPy block with
    ``fn.reduce`` if available (NumPy ufuncs), else pairwise over the
    block; without it the operator has no block function at all.
    """

    def accum_block(state, values):
        if len(values) == 0:
            return state
        if isinstance(values, np.ndarray):
            reducer = getattr(fn, "reduce", None)
            block = reducer(values) if reducer is not None else _fold(values)
            return fn(state, block)
        for x in values:
            state = fn(state, x)
        return state

    def _fold(values: Sequence[Any]):
        acc = values[0]
        for x in values[1:]:
            acc = fn(acc, x)
        return acc

    return make_op(
        ident=identity,
        accum=fn,
        combine=fn,
        accum_block=accum_block if vectorized else None,
        commutative=commutative,
        name=name,
    )
