"""The ``mink`` operator: the k smallest values (paper Listings 1 and 4).

The global-view formulation (Listing 4) is the paper's flagship example:
the *input* type is a single integer, the *state* is a vector of k
values kept sorted from high to low (so ``v[0]`` is the largest retained
minimum and the cheapest to evict), and the *output* is the state vector.
In the local-view formulation (Listing 1) the user had to build those
sorted vectors by hand before calling into the reduction — the exact
boilerplate the global view absorbs.

Two accumulate styles are provided for the paper's §3 performance note
("Alternative functions that translate the input values into state
values rather than accumulate the input values into state values would
result in worse performance"):

* :class:`MinKOp` — accumulate style (per-element ``accum``; the block
  fold compares each cache tile once against the running k-th value and
  merges only the survivors);
* :class:`TranslateMinKOp` — translate style: every input becomes a full
  k-state that is then ``combine``-d.  Same results, deliberately the
  slower design; benchmarked by EX-ACC.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.operator import TILE_ELEMS, ReduceScanOp
from repro.errors import OperatorError

__all__ = ["MinKOp", "MaxKOp", "TranslateMinKOp", "survivors"]


def survivors(
    keys: np.ndarray, k: int, cut: Any, *, largest: bool = False, ties: bool = False
) -> Any:
    """Which entries of a tile can still enter a k-state: an index
    (boolean mask, or ``slice(None)`` for all) into 1-D ``keys``, so
    what it selects stays in arrival order.

    One compare pass against ``cut``, the state's current k-th best key
    (NaN: no k-th yet, every entry is a candidate; ``ties`` keeps keys
    equal to it, for operators that break ties on a second column), and
    — only while more than k survive, which after a block's first tile
    is almost never — one ``partition`` for their k-th best, then the
    compare again against that: the k best plus every tie with the
    k-th, so a stable sort of the few that remain decides exactly as
    the per-element insertion would.  Shared by the whole selection
    family (``repro.ops.extrema`` folds rows with it)."""
    keep: Any = slice(None)
    if cut == cut:
        if largest:
            keep = keys >= cut if ties else keys > cut
        else:
            keep = keys <= cut if ties else keys < cut
    left = keys[keep]
    n = len(left)
    if n > k:
        pos = n - k if largest else k - 1
        kth = np.partition(left, pos)[pos]
        # The k-th best survivor is within the cut-off, so comparing
        # with it alone selects; a NaN k-th means fewer than k
        # comparable keys: everything stays.
        if kth == kth:
            keep = keys >= kth if largest else keys <= kth
    return keep


class MinKOp(ReduceScanOp):
    """Keep the k smallest values; state sorted high-to-low (Listing 4).

    Parameters
    ----------
    k:
        How many minima to keep.
    sentinel:
        The "no value yet" filler, Listing 4's ``in_t.max``.  Defaults to
        +inf; pass ``np.iinfo(...).max`` to stay in integer dtype.  The
        sentinel's dtype is the state's: values that cannot be cast to it
        ``same_kind`` (floats into an integer state) are refused.

    The per-element ``accum`` is Listing 4's insertion and the identity
    oracle: among values that compare equal (``0.0`` and ``-0.0``) the
    earlier arrival is the one kept.  ``accum_block`` and ``combine``
    select the same k under that same order, so the state does not
    depend on how a block is cut into tiles.
    """

    commutative = True
    tile_exact = True
    _largest = False

    def __init__(self, k: int, sentinel: Any = np.inf):
        if k < 1:
            raise OperatorError(f"mink needs k >= 1, got {k}")
        self.k = int(k)
        self.sentinel = sentinel

    @property
    def name(self) -> str:
        return f"mink(k={self.k})"

    def ident(self) -> np.ndarray:
        dtype = np.asarray(self.sentinel).dtype
        return np.full(self.k, self.sentinel, dtype=dtype)

    def _check_cast(self, state: np.ndarray, dtype: np.dtype) -> None:
        if not np.can_cast(dtype, state.dtype, "same_kind"):
            raise OperatorError(
                f"{self.name}: {dtype} values cannot be kept in the "
                f"{state.dtype} state its sentinel {self.sentinel!r} makes "
                "(they would be truncated); pass a sentinel of the values' "
                "kind"
            )

    def _insert(self, state: np.ndarray, x: Any) -> np.ndarray:
        """Listing 4's insertion: evict the largest kept minimum (v[0]),
        bubble the new value down to restore high-to-low order.  (The
        dtype is checked where the value would be stored, so the common
        rejected element costs one compare, as in the listing.)"""
        if x < state[0]:
            self._check_cast(state, np.result_type(x))
            state[0] = x
            for i in range(1, self.k):
                if state[i - 1] < state[i]:
                    state[i - 1], state[i] = state[i], state[i - 1]
        return state

    def _merge(self, state: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Fold 1-D ``values`` (a tile, or another k-state) into
        ``state``: one compare against the cut-off ``state[0]``, then a
        stable sort of the state, earliest arrivals first, followed by
        the survivors."""
        best = values[survivors(values, self.k, state[0], largest=self._largest)]
        if len(best):
            pool = np.concatenate(
                [state[::-1], best.astype(state.dtype, copy=False)]
            )
            if self._largest:
                state[:] = np.sort(pool[::-1], kind="stable")[-self.k :]
            else:
                state[:] = np.sort(pool, kind="stable")[self.k - 1 :: -1]
        return state

    def accum(self, state: np.ndarray, x: Any) -> np.ndarray:
        return self._insert(state, x)

    def combine(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        return self._merge(s1, s2)

    def accum_block(self, state: np.ndarray, values) -> np.ndarray:
        if len(values) == 0:
            return state
        flat = np.asarray(values).reshape(-1)
        self._check_cast(state, flat.dtype)
        for lo in range(0, flat.size, TILE_ELEMS):
            self._merge(state, flat[lo : lo + TILE_ELEMS])
        return state

    def gen(self, state: np.ndarray) -> np.ndarray:
        # Copy: scan outputs must not alias the still-mutating state.
        return state.copy()


class MaxKOp(MinKOp):
    """Keep the k largest values; state sorted low-to-high."""

    _largest = True

    def __init__(self, k: int, sentinel: Any = -np.inf):
        super().__init__(k, sentinel)

    @property
    def name(self) -> str:
        return f"maxk(k={self.k})"

    def _insert(self, state: np.ndarray, x: Any) -> np.ndarray:
        if x > state[0]:
            self._check_cast(state, np.result_type(x))
            state[0] = x
            for i in range(1, self.k):
                if state[i - 1] > state[i]:
                    state[i - 1], state[i] = state[i], state[i - 1]
        return state


class TranslateMinKOp(MinKOp):
    """The translate-style mink: each input element is first *translated*
    into a full k-element state, then combined by Listing 4's insertion
    loop — the design the paper warns against.  Results are identical to
    :class:`MinKOp`."""

    #: ``MinKOp``'s declaration describes ``MinKOp.accum_block``; this
    #: class replaces that fold and makes no claim for its own.
    tile_exact = False

    def accum(self, state: np.ndarray, x: Any) -> np.ndarray:
        self._check_cast(state, np.result_type(x))
        singleton = self.ident()  # translate: input -> state ...
        singleton[0] = x
        return self.combine(state, singleton)  # ... then combine states

    def combine(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        # Listing 4's combine: insert the other state's elements.
        for x in s2:
            s1 = self._insert(s1, x)
        return s1

    def accum_block(self, state: np.ndarray, values) -> np.ndarray:
        # Deliberately per-element: the whole point is the overhead of
        # building and combining a k-state per input value.
        for x in values:
            state = self.accum(state, x)
        return state

    @property
    def name(self) -> str:
        return f"translate_mink(k={self.k})"
