"""EX-SORT — two parallel sorts from this library's primitives
(extension): IS's bucket sort vs. scan-based radix sort.

Same keys (a scaled NAS IS class), same verification (the paper's sorted
reduction), radically different communication budgets: bucket sort pays
one aggregated allreduce plus ONE all-to-all; radix sort pays one
aggregated exscan + allreduce + all-to-all PER BIT.  The comparison
quantifies how far "scan is enough" is from "scan is optimal" — the
practical footnote to Blelloch's thesis that the paper's NAS IS case
study embodies.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.algorithms import radix_sort, sample_sort
from repro.analysis import format_table
from repro.nas import is_class
from repro.nas.intsort import bucket_sort, local_key_block, verify_rsmpi
from repro.runtime import spmd_run

PROCS = [2, 4, 8, 16]
CLS = is_class("S")  # 2^16 keys in [0, 2^11): 11 radix passes


def _bucket(comm):
    return bucket_sort(comm, CLS, sort_rate="np_check").local_sorted


def _radix(comm):
    out = radix_sort(comm, local_key_block(comm, CLS)[0])
    comm.charge_elements("np_check", len(out) * 11, "radix:passes")
    return out


def _sample(comm):
    out = sample_sort(comm, local_key_block(comm, CLS)[0])
    comm.charge_elements("np_check", len(out) * 2, "sample:sorts")
    return out


def _run(sort, p, cost_model):
    def prog(comm):
        assert verify_rsmpi(comm, sort(comm))

    return spmd_run(prog, p, cost_model=cost_model, timeout=600)


def test_bucket_vs_radix_vs_sample(cost_model, results_dir):
    runs = {p: [_run(s, p, cost_model) for s in (_bucket, _radix, _sample)]
            for p in PROCS}
    table = format_table(
        ["p", "bucket", "radix", "sample", "msgs_b", "msgs_r", "msgs_s"],
        [[p, *(f"{r.time:.3e}" for r in rs),
          *(r.summary_trace.n_sends for r in rs)] for p, rs in runs.items()],
        title=f"EX-SORT — bucket vs scan-based radix vs sample sort, class "
        f"{CLS.name} ({CLS.n_keys} keys, {CLS.max_key.bit_length() - 1}-bit)",
    )
    write_result(results_dir, "sorting_comparison.txt", table + "\nall "
                 "verified sorted by the paper's non-commutative reduction")

    for bucket, radix, sample in runs.values():
        # single-pass sorts beat the per-bit scans, in time and messages
        assert bucket.time < radix.time and sample.time < radix.time
        m_radix = radix.summary_trace.n_sends
        assert bucket.summary_trace.n_sends < m_radix / 3
        assert sample.summary_trace.n_sends < m_radix / 3
