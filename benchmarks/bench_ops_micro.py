"""EX-KERNELS — the operators' block methods, and the kernel tier's
shared sweep (wall time).

Times each elementwise operator's block method (``UfuncOp.accum_block``,
reached through the operator's kernel as the drivers reach it) against
the scalar ``accum`` loop at 1M int64 elements and asserts a 5x floor;
beside it, report only, the kernel tier's shared sweep of K tile-exact
operators against K whole-block passes.  Both land in
``results/BENCH_ops_micro_kernels.json``, re-measured on every run.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.kernels import KernelCache, batched_accumulate, compile_kernel
from repro.ops import (
    AllOp, BandOp, BorOp, BxorOp, MaxOp, MinKOp, MinOp, ProdOp, SumOp,
)

N = 1_000_000
#: The scalar loop is timed on this prefix and scaled linearly (it is
#: O(n) per-element dispatch; timing all 1M in Python would only make
#: the run slower, not the comparison fairer).
SCALAR_PROBE = 65_536
FLOOR = 5.0
INT64_MAX = np.iinfo(np.int64).max


def _elementwise_ops():
    """The timed operators, with int64-friendly identities (so scalar
    and kernel paths share dtypes exactly)."""
    return (
        ("sum", SumOp()),
        ("min", MinOp(INT64_MAX)),
        ("max", MaxOp(np.iinfo(np.int64).min)),
        ("band", BandOp()),
        ("bor", BorOp()),
        ("bxor", BxorOp()),
    )


def _time_best(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def block_rows() -> list[dict]:
    """Block method vs scalar loop, one row per elementwise operator."""
    data = np.random.default_rng(33).integers(1, 1 << 30, N, dtype=np.int64)
    probe = data[:SCALAR_PROBE]
    rows = []
    for name, op in _elementwise_ops():
        kern = compile_kernel(op, data)

        def scalar_run(op=op):
            s = op.ident()
            for x in probe:
                s = op.accum(s, x)
            return s

        def kernel_run(op=op, kern=kern):
            return kern.accumulate(op, op.ident(), data)

        want = np.asarray(op.accum_block(op.ident(), data)).tobytes()
        assert np.asarray(kernel_run()).tobytes() == want, name
        scalar_s = _time_best(scalar_run) * N / SCALAR_PROBE
        kernel_s = _time_best(kernel_run)
        rows.append({
            "op": name, "kernel_kind": kern.kind, "scalar_s": scalar_s,
            "kernel_s": kernel_s, "speedup": scalar_s / kernel_s,
        })
    return rows


def sweep_rows(ks=(2, 3, 8), ns=(250_000, 1_000_000)) -> list[dict]:
    """What the kernel tier itself buys: ``batched_accumulate`` walking
    one int64 block once for K tile-exact operators, against K
    whole-block passes (the fold ``accumulate_local`` runs, once per
    operator).  Bytes are asserted equal; times are reported, not gated.
    The last row per size is the ``accum_heavy`` job of ``bench/``:
    sum, max and the selection fold ``MinKOp(10)``."""
    pool = [op for _, op in _elementwise_ops()] + [ProdOp(np.int64(1)), AllOp()]
    batches = [pool[:k] for k in ks]
    batches.append([pool[0], pool[2], MinKOp(10, INT64_MAX)])
    rng = np.random.default_rng(34)
    cache = KernelCache()
    rows = []
    for n in ns:
        data = rng.integers(1, 1 << 30, n, dtype=np.int64)
        for ops in batches:

            def passes(ops=ops, data=data):
                return [
                    cache.get(op, data).accumulate(op, op.ident(), data)
                    for op in ops
                ]

            def sweep(ops=ops, data=data):
                return batched_accumulate(ops, data, cache=cache)

            for a, b in zip(passes(), sweep()):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            passes_s = _time_best(passes, repeats=9)
            sweep_s = _time_best(sweep, repeats=9)
            rows.append({
                "k": len(ops), "n_elements": n,
                "ops": [op.name for op in ops], "passes_s": passes_s,
                "sweep_s": sweep_s, "speedup": passes_s / sweep_s,
            })
    return rows


def test_block_methods_and_shared_sweep(results_dir):
    ops = block_rows()
    report = {
        "n_elements": N,
        "dtype": "int64",
        "scalar_probe_elements": SCALAR_PROBE,
        "floor": FLOOR,
        "ops": ops,
        "min_speedup": min(row["speedup"] for row in ops),
        "shared_sweep": sweep_rows(),
    }
    (results_dir / "BENCH_ops_micro_kernels.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    assert report["min_speedup"] >= FLOOR, ops
