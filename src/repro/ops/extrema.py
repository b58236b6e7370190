"""The ``extrema`` operator: k largest **and** k smallest values with
their global locations, in one reduction.

This is the operator the paper's NAS MG case study calls for (§4.2):
ZRAN3 needs "the ten largest numbers and their locations ... along with
the ten smallest numbers and their locations", which the F+MPI original
computes with *forty* reductions and the F+RSMPI version with *one*
user-defined reduction "similar to the mink and mini reductions".

Input elements are ``(value, location)`` pairs; ``accum_block`` also
accepts an ``(n, 2)`` array and folds it one cache tile at a time: a
compare of the tile's values against the state's k-th, then a
``lexsort`` of the few rows that survive (the selection fold of
``repro.ops.mink``, ties kept).  Ties on value resolve to the smaller
location, so results are independent of the data distribution — and of
how a block is cut into tiles, which the operators declare with
``tile_exact``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.operator import TILE_ELEMS, ReduceScanOp
from repro.errors import OperatorError
from repro.ops.mink import survivors
from repro.util.sizing import TransferSized

__all__ = ["ExtremaState", "ExtremaKLocOp", "MinKLocOp", "MaxKLocOp"]


class ExtremaState(TransferSized):
    """Up to k (value, loc) rows for each extreme, kept canonically
    sorted: top by (-value, loc), bottom by (value, loc)."""

    __slots__ = ("top", "bot")

    def __init__(self, top: np.ndarray, bot: np.ndarray):
        self.top = top  # shape (<=k, 2): k largest
        self.bot = bot  # shape (<=k, 2): k smallest

    def transfer_nbytes(self) -> int:
        return int(self.top.nbytes + self.bot.nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"ExtremaState(top={self.top.tolist()}, bot={self.bot.tolist()})"


def _select_top(rows: np.ndarray, k: int) -> np.ndarray:
    """The k largest rows, sorted by (-value, loc)."""
    if len(rows) == 0:
        return rows.reshape(0, 2)
    order = np.lexsort((rows[:, 1], -rows[:, 0]))
    return rows[order[:k]]


def _select_bot(rows: np.ndarray, k: int) -> np.ndarray:
    """The k smallest rows, sorted by (value, loc)."""
    if len(rows) == 0:
        return rows.reshape(0, 2)
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    return rows[order[:k]]


def _fold_rows(
    state: np.ndarray, rows: np.ndarray, k: int, *, largest: bool
) -> np.ndarray:
    """The k best of ``state`` plus an ``(n, 2)`` float64 tile of rows
    (or another k-state), canonically sorted: one compare of the tile's
    values against the state's k-th, ties kept so the smaller location
    can still win, then a ``lexsort`` of the state and the survivors."""
    # Largest-first is smallest-first on the negated value, as in
    # ``_select_top`` (so a NaN value ranks last on both sides).
    keys = -rows[:, 0] if largest else rows[:, 0]
    cut = np.nan  # fewer than k rows yet: everything is a candidate
    if len(state) == k:
        cut = -state[-1, 0] if largest else state[-1, 0]
    best = rows[survivors(keys, k, cut, ties=True)]
    if len(best) == 0:
        return state
    pool = np.concatenate([state, best])
    return _select_top(pool, k) if largest else _select_bot(pool, k)


def _pair_tiles(values: Any, what: str):
    """The ``(value, loc)`` block as float64 ``(<=tile, 2)`` slices —
    converted tile by tile, so a fold's temporaries are bounded by the
    tile whatever the block's dtype."""
    arr = values if isinstance(values, np.ndarray) else np.asarray(values)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise OperatorError(
            f"{what} expects (value, loc) pairs; got shape {arr.shape}"
        )
    for lo in range(0, len(arr), TILE_ELEMS):
        yield arr[lo : lo + TILE_ELEMS].astype(np.float64, copy=False)


class ExtremaKLocOp(ReduceScanOp):
    """k largest and k smallest values with locations, in one reduction.

    The output is a pair of ``(k, 2)`` arrays ``(top, bot)``:
    ``top[j] = (j-th largest value, its location)`` and
    ``bot[j] = (j-th smallest value, its location)``.
    """

    commutative = True
    tile_exact = True

    def __init__(self, k: int):
        if k < 1:
            raise OperatorError(f"extrema needs k >= 1, got {k}")
        self.k = int(k)

    @property
    def name(self) -> str:
        return f"extrema(k={self.k})"

    def ident(self) -> ExtremaState:
        empty = np.empty((0, 2), dtype=np.float64)
        return ExtremaState(empty, empty.copy())

    def accum(self, state: ExtremaState, x: Any) -> ExtremaState:
        row = np.asarray([[x[0], x[1]]], dtype=np.float64)
        state.top = _select_top(np.concatenate([state.top, row]), self.k)
        state.bot = _select_bot(np.concatenate([state.bot, row]), self.k)
        return state

    def combine(self, s1: ExtremaState, s2: ExtremaState) -> ExtremaState:
        s1.top = _fold_rows(s1.top, s2.top, self.k, largest=True)
        s1.bot = _fold_rows(s1.bot, s2.bot, self.k, largest=False)
        return s1

    def accum_block(self, state: ExtremaState, values) -> ExtremaState:
        if len(values) == 0:
            return state
        for tile in _pair_tiles(values, "extrema"):
            state.top = _fold_rows(state.top, tile, self.k, largest=True)
            state.bot = _fold_rows(state.bot, tile, self.k, largest=False)
        return state

    def gen(self, state: ExtremaState) -> tuple[np.ndarray, np.ndarray]:
        return state.top.copy(), state.bot.copy()


class _OneSidedKLocOp(ReduceScanOp):
    """Shared machinery for MinKLocOp/MaxKLocOp: k extreme (value, loc)
    rows on one side only (half the state traffic of ExtremaKLocOp)."""

    commutative = True
    tile_exact = True
    _largest: bool

    def __init__(self, k: int):
        if k < 1:
            raise OperatorError(f"k-extrema needs k >= 1, got {k}")
        self.k = int(k)

    def _select(self, rows: np.ndarray) -> np.ndarray:
        if self._largest:
            return _select_top(rows, self.k)
        return _select_bot(rows, self.k)

    def ident(self) -> np.ndarray:
        return np.empty((0, 2), dtype=np.float64)

    def accum(self, state: np.ndarray, x: Any) -> np.ndarray:
        row = np.asarray([[x[0], x[1]]], dtype=np.float64)
        return self._select(np.concatenate([state, row]))

    def combine(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        return _fold_rows(s1, s2, self.k, largest=self._largest)

    def accum_block(self, state: np.ndarray, values) -> np.ndarray:
        if len(values) == 0:
            return state
        for tile in _pair_tiles(values, "k-extrema"):
            state = _fold_rows(state, tile, self.k, largest=self._largest)
        return state

    def gen(self, state: np.ndarray) -> np.ndarray:
        return state.copy()


class MinKLocOp(_OneSidedKLocOp):
    """The k smallest values with their locations, sorted ascending —
    ``mink`` and ``mini`` merged, as the paper's §4.2 suggests
    ("a single user-defined reduction, similar to the mink and mini
    reductions")."""

    _largest = False

    @property
    def name(self) -> str:
        return f"minkloc(k={self.k})"


class MaxKLocOp(_OneSidedKLocOp):
    """The k largest values with their locations, sorted descending."""

    _largest = True

    @property
    def name(self) -> str:
        return f"maxkloc(k={self.k})"
