"""EX-COMM — the paper's §4.1 commutative-flag experiment.

"In an experiment to see whether any gains would be made if the
user-defined reduction were commutative, we flagged the reduction as
commutative.  This resulted in no speedup, though the program did fail
to verify that the array was sorted (as expected)."

We flag ``sorted`` commutative, run the IS verification across processor
counts, and measure (a) the virtual time relative to the honest
non-commutative reduction and (b) whether verification still succeeds.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis import format_table
from repro.nas import is_class
from repro.nas.intsort import (
    generate_keys,
    verify_rsmpi,
    verify_rsmpi_commutative,
)
from repro.runtime import spmd_run

PROCS = [2, 4, 8, 16, 32]
CLS = is_class("A")


def record(cost_model) -> list[tuple[int, float, float, bool, bool]]:
    """(p, t_honest, t_flagged, honest verifies, flagged verifies)."""
    whole = np.sort(generate_keys(CLS))
    rows = []
    for p in PROCS:
        bounds = [r * len(whole) // p for r in range(p + 1)]
        blocks = [whole[bounds[r] : bounds[r + 1]] for r in range(p)]
        honest, flagged = (
            spmd_run(
                lambda comm: verify(
                    comm, blocks[comm.rank], check_rate="is_check_scalar"
                ),
                p,
                cost_model=cost_model,
            )
            for verify in (verify_rsmpi, verify_rsmpi_commutative)
        )
        rows.append((p, honest.time, flagged.time,
                     all(honest.returns), all(flagged.returns)))
    return rows


def check(rows) -> None:
    for p, th, tf, okh, okf in rows:
        assert okh, f"honest verification must pass (p={p})"
        # "no speedup": the flag buys < 20% even where it is licensed to
        # reorder (and the honest run must not be slower than ~that).
        assert tf > th * 0.8, (p, th, tf)
        if p >= 8:  # deep enough combining tree to actually reorder
            assert not okf, (
                f"p={p}: flagged-commutative verification unexpectedly "
                "passed — the reordered combine should break it"
            )


def test_commutative_flag_no_speedup_and_misverify(cost_model, results_dir):
    rows = record(cost_model)
    table = format_table(
        ["p", "t_honest", "t_flagged", "speedup", "honest_ok", "flagged_ok"],
        [[p, f"{th:.3e}", f"{tf:.3e}", f"{th / tf:.2f}", okh, okf]
         for p, th, tf, okh, okf in rows],
        title="EX-COMM — sorted reduction flagged commutative (class A)",
    )
    write_result(results_dir, "ablation_commutative.txt",
                 table + "\npaper: 'no speedup, though the program did "
                 "fail to verify'")
    check(rows)
