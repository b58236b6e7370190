"""Generic top-k over arbitrary (keyed) items.

Where :class:`~repro.ops.mink.MinKOp` mirrors the paper's integer
listing, ``TopKOp`` is the library-grade generalization: any items, an
optional key function, largest or smallest, deterministic tie-breaking
by the items' own ordering.  It demonstrates that the state type can be
a rich container (a sorted list of items) unrelated to the input type.
"""

from __future__ import annotations

import heapq
from itertools import chain
from typing import Any, Callable, Sequence

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError

__all__ = ["TopKOp"]


class TopKOp(ReduceScanOp):
    """Keep the k extreme items by key.

    Parameters
    ----------
    k:
        Number of items to keep.
    key:
        Ranking key; defaults to the item itself.
    largest:
        True for top-k (default), False for bottom-k.

    Notes
    -----
    Ties on the key resolve by the items' own ordering (smallest item
    wins), making results independent of the distribution; items must
    therefore be totally ordered among themselves.  The state is the
    sorted list of kept items (best first).
    """

    commutative = True

    def __init__(
        self,
        k: int,
        *,
        key: Callable[[Any], Any] | None = None,
        largest: bool = True,
    ):
        if k < 1:
            raise OperatorError(f"topk needs k >= 1, got {k}")
        self.k = int(k)
        self.key = key if key is not None else (lambda item: item)
        self.largest = bool(largest)

    @property
    def name(self) -> str:
        kind = "top" if self.largest else "bottom"
        return f"{kind}k(k={self.k})"

    def _sort_key(self, item: Any):
        # best-first ordering with deterministic tie-break on the item
        k = self.key(item)
        return (_Neg(k), item) if self.largest else (k, item)

    def ident(self) -> list:
        return []

    def accum(self, state: list, x: Any) -> list:
        state.append(x)
        state.sort(key=self._sort_key)
        del state[self.k :]
        return state

    def combine(self, s1: list, s2: list) -> list:
        merged = list(heapq.merge(s1, s2, key=self._sort_key))
        del merged[self.k :]
        s1[:] = merged
        return s1

    def accum_block(self, state: list, values: Sequence[Any]) -> list:
        if len(values) == 0:
            return state
        # Equal to ``sorted(chain(state, values), key=...)[:k]``, tie-break
        # included, at O(n log k) key comparisons and O(k) extra space.
        state[:] = heapq.nsmallest(
            self.k, chain(state, values), key=self._sort_key
        )
        return state

    def gen(self, state: list) -> list:
        return list(state)


class _Neg:
    """Order-reversing wrapper for arbitrary comparable keys."""

    __slots__ = ("v",)

    def __init__(self, v: Any):
        self.v = v

    def __lt__(self, other: "_Neg") -> bool:
        return other.v < self.v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Neg) and other.v == self.v

    def __hash__(self) -> int:  # pragma: no cover - completeness
        return hash(("_Neg", self.v))
