"""EX-OPS — micro-benchmarks of the operator machinery itself.

Wall-time measurements (pytest-benchmark) of the pieces the figure
benchmarks charge for: vectorized accumulate phases of the paper's
operators, combine functions, the DSL-compiled operator vs. the
hand-written one, and a whole in-process global reduction.

Also runnable directly as ``python benchmarks/bench_ops_micro.py
--smoke``: measures the elementwise operators' block methods (reached
through their kernels) against the scalar ``accum`` loop at 1M elements
and asserts the 5x floor, then measures — report only — the kernel
tier's shared sweep against K whole-block passes, and writes both into
``results/BENCH_ops_micro_kernels.json``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import global_reduce
from repro.ops import CountsOp, ExtremaKLocOp, MinKOp, SortedOp, SumOp
from repro.rsmpi import compile_operator
from repro.runtime import spmd_run

N = 100_000
INT_MAX = np.iinfo(np.int64).max


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    return rng.integers(0, 1_000_000, N)


@pytest.fixture(scope="module")
def sorted_data(data):
    return np.sort(data)


class TestAccumulatePhase:
    def test_sum_accum_block(self, benchmark, data):
        op = SumOp()
        total = benchmark(lambda: op.accum_block(0, data))
        assert total == data.sum()

    def test_mink_accum_block(self, benchmark, data):
        op = MinKOp(10, INT_MAX)
        out = benchmark(lambda: op.accum_block(op.ident(), data))
        assert out[-1] == data.min()

    def test_counts_accum_block(self, benchmark, data):
        op = CountsOp(1024, base=0)
        small = data % 1024
        out = benchmark(lambda: op.accum_block(op.ident(), small))
        assert out.sum() == N

    def test_sorted_accum_block(self, benchmark, sorted_data):
        op = SortedOp()
        out = benchmark(lambda: op.accum_block(op.ident(), sorted_data))
        assert out.status

    def test_extrema_accum_block(self, benchmark, data):
        op = ExtremaKLocOp(10)
        pairs = np.column_stack([data.astype(float), np.arange(float(N))])
        state = benchmark(lambda: op.accum_block(op.ident(), pairs))
        assert state.top[0, 0] == data.max()


class TestCombinePhase:
    def test_mink_combine(self, benchmark, data):
        op = MinKOp(10, INT_MAX)
        s1 = op.accum_block(op.ident(), data[: N // 2])
        s2 = op.accum_block(op.ident(), data[N // 2 :])
        benchmark(lambda: op.combine(s1.copy(), s2))

    def test_extrema_combine(self, benchmark, data):
        op = ExtremaKLocOp(10)
        pairs = np.column_stack([data.astype(float), np.arange(float(N))])
        s1 = op.accum_block(op.ident(), pairs[: N // 2])
        s2 = op.accum_block(op.ident(), pairs[N // 2 :])
        import copy

        benchmark(lambda: op.combine(copy.deepcopy(s1), s2))


class TestDSLOverhead:
    """The DSL-compiled sorted operator vs the hand-written class, on
    the per-element (interpreted) path where overhead would show."""

    SRC = """
    rsmpi operator sorted {
      non-commutative
      state { int first, last; int status; int seen; }
      void ident(state s) { s->first = 0; s->last = 0; s->status = 1;
                            s->seen = 0; }
      void accum(state s, int i) {
        if (!s->seen) { s->first = i; s->seen = 1; }
        else if (s->last > i) s->status = 0;
        s->last = i;
      }
      void combine(state s1, state s2) {
        if (s2->seen) {
          if (s1->seen) {
            s1->status &= s2->status && (s1->last <= s2->first);
            s1->last = s2->last;
          } else {
            s1->first = s2->first; s1->last = s2->last;
            s1->status = s2->status; s1->seen = 1;
          }
        }
      }
      int generate(state s) { return s->status; }
    }
    """

    def test_dsl_sorted_per_element(self, benchmark, sorted_data):
        op = compile_operator(self.SRC)
        chunk = sorted_data[:2000].tolist()

        def run():
            s = op.ident()
            for x in chunk:
                s = op.accum(s, x)
            return op.red_gen(s)

        assert benchmark(run) == 1

    def test_native_sorted_per_element(self, benchmark, sorted_data):
        op = SortedOp()
        chunk = sorted_data[:2000].tolist()

        def run():
            s = op.ident()
            for x in chunk:
                s = op.accum(s, x)
            return op.red_gen(s)

        assert benchmark(run) is True


class TestEndToEnd:
    @pytest.mark.parametrize("p", [1, 4])
    def test_global_reduce_wall(self, benchmark, data, p):
        op = MinKOp(10, INT_MAX)
        blocks = np.array_split(data, p)

        def run():
            return spmd_run(
                lambda comm: global_reduce(comm, op, blocks[comm.rank]), p
            ).returns[0]

        out = benchmark(run)
        assert out[-1] == data.min()


# ---------------------------------------------------------------------------
# Block-method and shared-sweep smoke (CLI entry point; no pytest needed)
# ---------------------------------------------------------------------------

#: The elementwise operators the smoke gate times, with int64-friendly
#: identities (so scalar and kernel paths share dtypes exactly).
def _smoke_ops():
    from repro.ops import BandOp, BorOp, BxorOp, MaxOp, MinOp, SumOp

    return (
        ("sum", SumOp()),
        ("min", MinOp(np.iinfo(np.int64).max)),
        ("max", MaxOp(np.iinfo(np.int64).min)),
        ("band", BandOp()),
        ("bor", BorOp()),
        ("bxor", BxorOp()),
    )


def _time_best(fn, repeats=5):
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_smoke(
    n: int = 1_000_000,
    floor: float = 5.0,
    scalar_probe: int = 65_536,
    out_path: str | None = "results/BENCH_ops_micro_kernels.json",
) -> dict:
    """Time each elementwise op's block method (``UfuncOp.accum_block``,
    called through the op's kernel as the drivers call it) vs the scalar
    accum loop at ``n`` elements.  The scalar loop is timed on a
    ``scalar_probe``-element prefix and scaled linearly (it is O(n)
    per-element dispatch; timing the full 1M in pure Python would just
    make CI slower, not the comparison fairer).  The report also carries
    the rows of :func:`run_shared_sweep`, which no floor gates."""
    import json
    from pathlib import Path

    from repro.core.kernels import compile_kernel

    rng = np.random.default_rng(33)
    data = rng.integers(1, 1 << 30, n, dtype=np.int64)
    probe = data[: min(scalar_probe, n)]
    scale = n / len(probe)

    per_op = []
    for name, op in _smoke_ops():
        kern = compile_kernel(op, data)
        state0 = op.ident()

        def scalar_run(op=op, state0=state0):
            s = state0
            for x in probe:
                s = op.accum(s, x)
            return s

        def kernel_run(op=op, kern=kern, state0=state0):
            return kern.accumulate(op, state0, data)

        expected = op.accum_block(op.ident(), data)
        got = kern.accumulate(op, op.ident(), data)
        assert np.asarray(expected).tobytes() == np.asarray(got).tobytes(), (
            f"{name}: kernel result diverges from accum_block"
        )

        scalar_s = _time_best(scalar_run) * scale
        kernel_s = _time_best(kernel_run)
        per_op.append(
            {
                "op": name,
                "kernel_kind": kern.kind,
                "scalar_s": scalar_s,
                "kernel_s": kernel_s,
                "speedup": scalar_s / kernel_s,
            }
        )

    report = {
        "n_elements": n,
        "dtype": "int64",
        "scalar_probe_elements": int(len(probe)),
        "floor": floor,
        "ops": per_op,
        "min_speedup": min(e["speedup"] for e in per_op),
        "shared_sweep": run_shared_sweep(),
    }
    if out_path is not None:
        out = Path(out_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def run_shared_sweep(
    ks: tuple[int, ...] = (2, 3, 8),
    ns: tuple[int, ...] = (250_000, 1_000_000),
) -> list[dict]:
    """What the kernel tier itself buys: ``batched_accumulate`` walking
    one int64 block once for K tile-exact operators, against K
    whole-block passes (the fold ``accumulate_local`` runs, once per
    operator).  Bytes are asserted equal; times are reported, not gated.
    The last row per size is the ``accum_heavy`` job of ``bench/``:
    sum, max and the selection fold ``MinKOp(10)``."""
    from repro.core.kernels import KernelCache, batched_accumulate
    from repro.ops import AllOp, MinKOp, ProdOp

    # Tile-exact on int64, all eight: the smoke gate's six plus two.
    pool = [op for _, op in _smoke_ops()] + [ProdOp(np.int64(1)), AllOp()]
    batches = [pool[:k] for k in ks]
    batches.append([pool[0], pool[2], MinKOp(10, np.iinfo(np.int64).max)])
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
            rows.append(
                {
                    "k": len(ops),
                    "n_elements": n,
                    "ops": [op.name for op in ops],
                    "passes_s": passes_s,
                    "sweep_s": sweep_s,
                    "speedup": passes_s / sweep_s,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Operator micro-benchmarks (block-method smoke gate)."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the block-vs-scalar smoke comparison, assert the "
        "speedup floor, and report the shared-sweep rows",
    )
    parser.add_argument(
        "--n", type=int, default=1_000_000, metavar="ELEMS",
        help="elements per operator (default: 1M)",
    )
    parser.add_argument(
        "--floor", type=float, default=5.0, metavar="X",
        help="minimum acceptable block-method speedup over the scalar "
        "loop (default: 5.0)",
    )
    parser.add_argument(
        "--out", default="results/BENCH_ops_micro_kernels.json",
        metavar="PATH", help="JSON report destination",
    )
    ns = parser.parse_args(argv)
    if not ns.smoke:
        parser.error(
            "this entry point only implements --smoke; run the full "
            "suite via pytest benchmarks/bench_ops_micro.py"
        )
    report = run_kernel_smoke(n=ns.n, floor=ns.floor, out_path=ns.out)
    for entry in report["ops"]:
        print(
            f"  {entry['op']:>5}: scalar {entry['scalar_s'] * 1e3:9.1f} ms  "
            f"block {entry['kernel_s'] * 1e3:7.3f} ms  "
            f"{entry['speedup']:8.1f}x ({entry['kernel_kind']})"
        )
    print(
        f"block-method smoke: min speedup {report['min_speedup']:.1f}x "
        f"over {len(report['ops'])} ops at n={report['n_elements']} "
        f"(floor {report['floor']}x)"
    )
    for row in report["shared_sweep"]:
        print(
            f"  shared sweep K={row['k']} n={row['n_elements']:>7}: "
            f"{row['k']} passes {row['passes_s'] * 1e3:7.3f} ms  "
            f"one sweep {row['sweep_s'] * 1e3:7.3f} ms  "
            f"{row['speedup']:5.2f}x (report only; {'+'.join(row['ops'])})"
        )
    if report["min_speedup"] < ns.floor:
        print(f"FAIL: below the {ns.floor}x floor")
        return 1
    print(f"OK: wrote {ns.out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
