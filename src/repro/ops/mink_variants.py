"""The k-selection variants no workload builds — :class:`MaxKOp` and
the translate-style :class:`TranslateMinKOp` (EX-ACC) — exported by
``repro.ops`` and ``repro.ops.mink`` on first touch."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ops.mink import MinKOp

__all__ = ["MaxKOp", "TranslateMinKOp"]


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
