"""FIG2 — NAS IS verification phase: C+MPI vs scalar-optimized C+MPI vs
C+RSMPI (paper Figure 2).

For classes A, B and C, sweeps the processor count and reports the
speedup of the verification phase for the three variants:

* ``MPI (2-ref)`` — the provided NAS idiom: boundary exchange + local
  check making two memory references per element + sum all-reduce;
* ``MPI (scalar)`` — same message structure, the scalar-optimized local
  check (one reference per element);
* ``RSMPI`` — the one-line non-commutative ``sorted`` reduction.

Paper-claimed shape (§4.1): RSMPI beats the original MPI "based on a
scalar improvement"; the scalar-optimized MPI "closed the performance
gap entirely"; the parallel structures are otherwise comparable.
:func:`check` pins exactly that shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import PROC_GRID, write_result
from repro.analysis import Series, format_series_csv, format_table
from repro.nas import is_class
from repro.nas.intsort import generate_keys, verify_mpi, verify_rsmpi
from repro.runtime import spmd_run

CLASSES = ["A", "B", "C"]

#: label -> (verification routine, rate its local check is charged at)
VARIANTS = {
    "MPI (2-ref)": (verify_mpi, "is_check_tworef"),
    "MPI (scalar)": (verify_mpi, "is_check_scalar"),
    "RSMPI": (verify_rsmpi, "is_check_scalar"),
}

_WHOLE_CACHE: dict[str, np.ndarray] = {}


def _sorted_blocks(cls, p):
    whole = _WHOLE_CACHE.get(cls.name)
    if whole is None:
        whole = _WHOLE_CACHE[cls.name] = np.sort(generate_keys(cls))
    bounds = [r * len(whole) // p for r in range(p + 1)]
    return [whole[bounds[r] : bounds[r + 1]] for r in range(p)]


def record(cls_name, cost_model) -> list[Series]:
    """Verification-phase time of each variant (one Series per variant)."""
    cls = is_class(cls_name)
    series = [Series(label) for label in VARIANTS]
    for p in PROC_GRID:
        blocks = _sorted_blocks(cls, p)
        for s, (verify, rate) in zip(series, VARIANTS.values()):
            def prog(comm):
                ok = verify(comm, blocks[comm.rank], check_rate=rate)
                assert ok
                return ok

            s.add(p, spmd_run(prog, p, cost_model=cost_model).time)
    return series


def check(series: list[Series]) -> None:
    mpi2, mpis, rsm = series
    # (1) RSMPI never slower than the original 2-ref MPI.
    for t_r, t_m in zip(rsm.times, mpi2.times):
        assert t_r <= t_m * 1.05
    # (2) the scalar optimization closes the gap ("closed the performance
    #     gap entirely"): RSMPI and scalar-MPI within 15% wherever local
    #     compute dominates (small p).  At large p the message structures
    #     differ (RSMPI has no neighbor exchange), so only require RSMPI
    #     to stay at least as good.
    for p, t_r, t_m in zip(rsm.procs, rsm.times, mpis.times):
        if p <= 8:
            assert abs(t_r - t_m) / max(t_r, t_m) < 0.15
        else:
            assert t_r <= t_m * 1.10
    # (3) at p=1 the 2-ref variant is measurably slower (the scalar
    #     improvement is real at the recorded rates).
    assert mpi2.t1 > rsm.t1 * 1.1
    # (4) everything still parallelizes: time at the largest p beats p=1.
    assert rsm.times[-1] < rsm.t1
    assert mpi2.times[-1] < mpi2.t1


@pytest.mark.parametrize("cls_name", CLASSES)
def test_fig2_class(cls_name, cost_model, results_dir):
    series = record(cls_name, cost_model)
    base = series[0].t1  # common base: the original NAS code on 1 processor
    rows = [
        [p, *(f"{s.times[i]:.3e}" for s in series),
         *(f"{base / s.times[i]:.2f}" for s in series)]
        for i, p in enumerate(series[0].procs)
    ]
    table = format_table(
        ["p", "MPI(2-ref)", "MPI(scalar)", "RSMPI", "S_2ref", "S_scal", "S_rsmpi"],
        rows,
        title=f"Figure 2 — class {cls_name}: verification-phase times and "
        f"speedups (base = MPI 2-ref at p=1)",
    )
    write_result(results_dir, f"fig2_class{cls_name}.txt", table)
    write_result(results_dir, f"fig2_class{cls_name}.csv", format_series_csv(series))
    check(series)
