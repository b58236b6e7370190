#!/usr/bin/env python3
"""Multidimensional scans: a distributed summed-area table.

The paper singles out the exclusive scan because it "enables the elegant
recursive definitions of multidimensional scans".  This example makes
that concrete: a synthetic "image" (2048x1024 by default) is distributed
by row blocks over 8 ranks, and its summed-area table (2-D inclusive
prefix) is computed with exactly ONE exclusive scan collective — the
per-rank column-sum vectors are exscan-ed (aggregated: every column in
each message) and folded back in locally.

The summed-area table then answers arbitrary box-sum queries in O(1),
which we verify against direct summation; a running 2-D maximum and
column statistics round out the tour.

Usage:  python examples/summed_area_table.py [ROWS COLS]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import spmd_run
from repro.arrays import GlobalMatrix
from repro.ops import MaxOp, MeanVarOp, SumOp
from repro.core import global_reduce
from repro.util.rng import randlc_array

ROWS = int(sys.argv[1]) if len(sys.argv) > 1 else 2048
COLS = int(sys.argv[2]) if len(sys.argv) > 2 else 1024
NPROCS = 8


def box_sum(sat: np.ndarray, r0: int, c0: int, r1: int, c1: int) -> float:
    """Inclusive box [r0..r1] x [c0..c1] from the summed-area table."""
    total = sat[r1, c1]
    if r0 > 0:
        total -= sat[r0 - 1, c1]
    if c0 > 0:
        total -= sat[r1, c0 - 1]
    if r0 > 0 and c0 > 0:
        total += sat[r0 - 1, c0 - 1]
    return float(total)


def program(comm):
    # Build this rank's rows of the image from the shared randlc stream.
    def image_rows(rows, cols):
        out = np.empty((rows.shape[0], COLS))
        for i, r in enumerate(rows[:, 0]):
            out[i] = randlc_array(COLS, skip=int(r) * COLS)
        return out * 100.0

    g = GlobalMatrix.from_function(comm, ROWS, COLS, image_rows)

    sat = g.prefix2d(SumOp(0.0))          # ONE exscan collective
    run_max = g.prefix2d(MaxOp(-np.inf))  # same trick, different monoid
    col_max = g.reduce_cols(MaxOp(-np.inf))
    stats = global_reduce(comm, MeanVarOp(), g.local.ravel())

    # to_global() is collective: every rank participates, rank 0 keeps it
    sat_full = sat.to_global()
    image_full = g.to_global()
    run_max_full = run_max.to_global()
    keep = comm.rank == 0
    return {
        "sat": sat_full if keep else None,
        "image": image_full if keep else None,
        "run_max_last": run_max_full[-1, -1] if keep else None,
        "col_max": col_max,
        "stats": stats,
        "exscan_calls": comm.trace.collective_calls.get("exscan", 0),
    }


def main():
    res = spmd_run(program, NPROCS)
    out = res.returns[0]
    sat, image = out["sat"], out["image"]

    print(f"{ROWS}x{COLS} image over {NPROCS} ranks")
    print(f"exclusive-scan collectives per 2-D prefix: "
          f"{out['exscan_calls'] // 2} (aggregated over {COLS} columns)\n")

    rng = np.random.default_rng(1)
    print("random box-sum queries, SAT vs direct:")
    for _ in range(5):
        r0, r1 = sorted(rng.integers(0, ROWS, 2))
        c0, c1 = sorted(rng.integers(0, COLS, 2))
        direct = image[r0 : r1 + 1, c0 : c1 + 1].sum()
        via_sat = box_sum(sat, r0, c0, r1, c1)
        ok = "ok" if abs(direct - via_sat) < 1e-6 * max(1.0, abs(direct)) else "MISMATCH"
        print(f"  [{r0:4d}..{r1:4d}] x [{c0:4d}..{c1:4d}]  "
              f"direct={direct:14.3f}  sat={via_sat:14.3f}  {ok}")

    st = out["stats"]
    print(f"\nglobal running max (corner of 2-D max-prefix): "
          f"{out['run_max_last']:.4f}")
    print(f"column-max vector head: {np.round(out['col_max'][:5], 3)}")
    print(f"pixel stats: n={st.n}, mean={st.mean:.4f}, std={st.std:.4f}")
    print(f"\nsimulated time: {res.time * 1e3:.3f} ms, "
          f"{res.summary_trace.n_sends} messages")


if __name__ == "__main__":
    main()
