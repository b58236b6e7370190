"""Histogram over real-valued data: ``counts`` generalized to bin edges.

Same shape as Listing 6's counts operator, but the category of an
element is computed from bin edges (half-open bins, NumPy ``histogram``
convention) — the kind of "library of operators" RSMPI anticipates users
building.
"""

from __future__ import annotations

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.errors import OperatorError

__all__ = ["HistogramOp"]


class HistogramOp(ReduceScanOp):
    """Count elements into bins delimited by ``edges``.

    Bins follow ``np.histogram``: ``edges[i] <= x < edges[i+1]``, last
    bin closed.  Out-of-range elements raise unless ``clip=True``, which
    clamps them into the end bins.
    """

    commutative = True
    elementwise = True  # bin-count vectors combine per bin
    tile_exact = True  # integer counts add exactly, however the block is cut

    def __init__(self, edges, *, clip: bool = False):
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) < 2:
            raise OperatorError(
                f"histogram needs at least 2 bin edges, got {edges.shape}"
            )
        if not np.all(np.diff(edges) > 0):
            raise OperatorError("histogram edges must be strictly increasing")
        self.edges = edges
        self.nbins = len(edges) - 1
        self.clip = bool(clip)

    @property
    def name(self) -> str:
        return f"histogram(nbins={self.nbins})"

    def _bin(self, x: float) -> int:
        if x == self.edges[-1]:
            return self.nbins - 1  # last bin is closed
        i = int(np.searchsorted(self.edges, x, side="right")) - 1
        if not 0 <= i < self.nbins:
            if self.clip:
                return min(max(i, 0), self.nbins - 1)
            raise OperatorError(
                f"histogram: value {x} outside "
                f"[{self.edges[0]}, {self.edges[-1]}]"
            )
        return i

    def ident(self) -> np.ndarray:
        return np.zeros(self.nbins, dtype=np.int64)

    def accum(self, state: np.ndarray, x) -> np.ndarray:
        state[self._bin(float(x))] += 1
        return state

    def combine(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        s1 += s2
        return s1

    def accum_block(self, state: np.ndarray, values) -> np.ndarray:
        if len(values) == 0:
            return state
        arr = np.asarray(values, dtype=np.float64)
        if not self.clip:
            if arr.min() < self.edges[0] or arr.max() > self.edges[-1]:
                raise OperatorError(
                    "histogram: values outside "
                    f"[{self.edges[0]}, {self.edges[-1]}]"
                )
        else:
            arr = np.clip(arr, self.edges[0], self.edges[-1])
        counts, _ = np.histogram(arr, bins=self.edges)
        state += counts
        return state

    def red_gen(self, state: np.ndarray) -> np.ndarray:
        return state.copy()

    def scan_gen(self, state: np.ndarray, x) -> int:
        """Rank of the element within its bin (counts-style scan)."""
        return int(state[self._bin(float(x))])
