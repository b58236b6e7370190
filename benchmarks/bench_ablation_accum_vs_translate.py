"""EX-ACC — accumulate-style vs translate-style operators (paper §3).

"The accumulate function often has a substantially faster implementation
than the combine function, and it should be optimized at the combine
function's expense. ...  Alternative functions that translate the input
values into state values rather than accumulate the input values into
state values would result in worse performance."

Measures real wall time of the two mink designs on identical data (this
ablation is about *local* compute, so wall time — not the virtual
clock — is the honest metric), plus the vectorized accumulate for scale.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result
from repro.ops import MinKOp, TranslateMinKOp

K = 10
N = 20_000


def _data():
    return np.random.default_rng(3).integers(0, 1_000_000, N)


def _accumulate_style_loop(data):
    """Per-element accum (interpreted, but one insert per element)."""
    op = MinKOp(K, np.iinfo(np.int64).max)
    state = op.ident()
    for x in data:
        state = op.accum(state, x)
    return state


def _translate_style_loop(data):
    """Translate each element to a k-state, then combine k-states."""
    op = TranslateMinKOp(K, np.iinfo(np.int64).max)
    state = op.ident()
    for x in data:
        state = op.accum(state, x)
    return state


def _accumulate_style_block(data):
    op = MinKOp(K, np.iinfo(np.int64).max)
    return op.accum_block(op.ident(), data)


def test_translate_style_slower(results_dir):
    data = _data()
    expected = np.sort(data)[:K][::-1]

    t0 = time.perf_counter()
    s_acc = _accumulate_style_loop(data)
    t_acc = time.perf_counter() - t0

    t0 = time.perf_counter()
    s_tr = _translate_style_loop(data)
    t_tr = time.perf_counter() - t0

    t0 = time.perf_counter()
    s_blk = _accumulate_style_block(data)
    t_blk = time.perf_counter() - t0

    # identical results
    assert np.array_equal(s_acc, expected)
    assert np.array_equal(s_tr, expected)
    assert np.array_equal(s_blk, expected)

    lines = [
        f"EX-ACC — mink(k={K}) over {N} values, single rank, wall time",
        f"  accumulate (per-element)   {t_acc:10.4f} s",
        f"  translate  (per-element)   {t_tr:10.4f} s"
        f"   ({t_tr / t_acc:.1f}x slower)",
        f"  accumulate (vectorized)    {t_blk:10.4f} s"
        f"   ({t_acc / max(t_blk, 1e-9):.0f}x faster than per-element)",
        "paper: translate-style 'would result in worse performance'",
    ]
    write_result(results_dir, "ablation_accum_vs_translate.txt",
                 "\n".join(lines))

    # the paper's claim, on this machine:
    assert t_tr > t_acc * 1.5
    assert t_blk < t_acc
