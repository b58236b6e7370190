"""The ``counts`` operator (paper Listing 6 and §3.1.3).

Given elements that each carry a category in ``base..base+k-1`` (the
paper's particles in octants 1..8), the *reduction* returns the count of
elements per category and the *scan* returns each element's rank within
its category — the paper's worked example: scanning octants
``[6,7,6,3,8,2,8,4,8,3]`` yields counts ``[0,1,2,1,0,2,1,3]`` and
rankings ``[1,1,2,1,1,1,2,1,3,2]``.

This operator is the paper's showcase for *different generate functions
for reduce and scan* (``red_gen`` returns the whole count vector;
``scan_gen`` returns only the current element's category count).
"""

from __future__ import annotations

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError

__all__ = ["CountsOp"]


class CountsOp(ReduceScanOp):
    """Count elements per category; scan ranks elements within categories.

    Parameters
    ----------
    k:
        Number of categories.
    base:
        Smallest category label (the paper's octants start at 1).
    """

    commutative = True
    elementwise = True  # count vectors combine per category
    tile_exact = True  # integer counts add exactly, however the block is cut

    def __init__(self, k: int, base: int = 1):
        if k < 1:
            raise OperatorError(f"counts needs k >= 1 categories, got {k}")
        self.k = int(k)
        self.base = int(base)

    @property
    def name(self) -> str:
        return f"counts(k={self.k})"

    def _index(self, x) -> int:
        i = int(x) - self.base
        if not 0 <= i < self.k:
            raise OperatorError(
                f"counts: category {x} outside [{self.base}, "
                f"{self.base + self.k - 1}]"
            )
        return i

    def ident(self) -> np.ndarray:
        return np.zeros(self.k, dtype=np.int64)

    def accum(self, state: np.ndarray, x) -> np.ndarray:
        state[self._index(x)] += 1
        return state

    def combine(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        s1 += s2
        return s1

    def accum_block(self, state: np.ndarray, values) -> np.ndarray:
        if len(values) == 0:
            return state
        arr = np.asarray(values, dtype=np.int64) - self.base
        if arr.min() < 0 or arr.max() >= self.k:
            bad = values[int(np.argmax((arr < 0) | (arr >= self.k)))]
            raise OperatorError(
                f"counts: category {bad} outside [{self.base}, "
                f"{self.base + self.k - 1}]"
            )
        state += np.bincount(arr, minlength=self.k)
        return state

    def scan_block(self, state: np.ndarray, values, *, exclusive: bool):
        # Each element's rank within its category: a stable sort groups
        # the categories in block order; the offset into its group,
        # plus the carried count, is what the per-element loop emits.
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.dtype.kind not in "biu" or len(arr) == 0:
            return super().scan_block(state, values, exclusive=exclusive)
        idx = arr.astype(np.int64) - self.base
        bad = (idx < 0) | (idx >= self.k)
        if bad.any():
            self._index(values[int(np.argmax(bad))])  # raises, as accum would
        order = np.argsort(idx, kind="stable")
        counts = np.bincount(idx, minlength=self.k)
        group_start = np.cumsum(counts) - counts
        rank = np.empty(len(idx), dtype=np.int64)
        rank[order] = np.arange(len(idx)) - group_start[idx[order]]
        out = state[idx] + rank + (0 if exclusive else 1)
        state += counts
        return out.tolist(), state

    def red_gen(self, state: np.ndarray) -> np.ndarray:
        return state.copy()

    def scan_gen(self, state: np.ndarray, x) -> int:
        # The element's rank within its own category (Listing 6:
        # ``return v[x]``): inclusive scans count the element itself,
        # exclusive scans count strictly-earlier same-category elements.
        return int(state[self._index(x)])
