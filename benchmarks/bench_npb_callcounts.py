"""TAB-NPB — the paper's motivating statistic: "In the NAS Parallel
Benchmarks (NPB) version 3.2, nearly 9% of the MPI calls are
reductions."

Reproduced methodology over our NAS kernels with their *real*
communication profiles:

* IS end-to-end: keygen + bucket sort (alltoall + aggregated allreduce)
  + MPI-style verification (neighbor exchange + allreduce);
* MG: ZRAN3 initialization (the 40-reduction MPI idiom) followed by 20
  V-cycle communication rounds — each ~10 ``comm3`` halo exchanges (6
  face sendrecvs apiece) plus the two ``norm2u3`` all-reduces.

The halo traffic dominates, reductions land in the single-digit-percent
range of all calls — the paper's point: reductions are few but worth
abstracting well.
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import write_result
from repro.nas import ep_class, is_class, mg_class
from repro.nas.callcounts import CallCensus, census
from repro.nas.intsort import run_is
from repro.nas.ep import ep_mpi
from repro.nas.mg import Block3D, vcycle_communication_round, zran3_mpi
from repro.runtime import spmd_run

P = 8
MG_ITERATIONS = 20  # NPB MG class A runs niter = 4..20 depending on class


def _mg_full_profile(comm):
    cls = mg_class("S")
    res = zran3_mpi(comm, cls)
    block = Block3D.create(cls.nx, cls.ny, cls.nz, comm.size, comm.rank)
    for _ in range(MG_ITERATIONS):
        vcycle_communication_round(comm, block, res.local)
    return None


def _combined_census(cost_model):
    is_res = spmd_run(
        lambda comm: run_is(comm, is_class("S"), verifier="mpi"),
        P,
        cost_model=cost_model,
    )
    mg_res = spmd_run(_mg_full_profile, P, cost_model=cost_model, timeout=600)
    ep_res = spmd_run(
        lambda comm: ep_mpi(comm, ep_class("S")), P, cost_model=cost_model
    )
    c_is = census(is_res.traces)
    c_mg = census(mg_res.traces)
    c_ep = census(ep_res.traces)
    coll = Counter(c_is.collective_calls)
    coll.update(c_mg.collective_calls)
    coll.update(c_ep.collective_calls)
    p2p = Counter(c_is.p2p_calls)
    p2p.update(c_mg.p2p_calls)
    p2p.update(c_ep.p2p_calls)
    red = Counter(c_is.reduction_calls)
    red.update(c_mg.reduction_calls)
    red.update(c_ep.reduction_calls)
    return c_is, c_mg, c_ep, CallCensus(dict(coll), dict(p2p), dict(red))


def test_npb_reduction_fraction(benchmark, cost_model, results_dir):
    c_is, c_mg, c_ep, combined = benchmark.pedantic(
        _combined_census, args=(cost_model,), rounds=1, iterations=1
    )
    text = "\n\n".join(
        [
            c_is.format(f"NAS IS (class S, p={P}) — MPI call census"),
            c_mg.format(
                f"NAS MG (class S, p={P}, zran3 + {MG_ITERATIONS} "
                "V-cycle comm rounds) — MPI call census"
            ),
            c_ep.format(f"NAS EP (class S, p={P}) — MPI call census"),
            combined.format("Combined (IS + MG + EP)"),
            "paper claim (NPB 3.2, all benchmarks): reductions ~ 9% of "
            "MPI calls",
        ]
    )
    write_result(results_dir, "npb_callcounts.txt", text)

    # The MG ZRAN3 idiom alone contributes its 40 reductions...
    assert c_mg.collective_calls["allreduce"] >= 40 + 2 * MG_ITERATIONS
    # ...yet halo exchanges dominate MG's call profile.
    assert sum(c_mg.p2p_calls.values()) > c_mg.n_reductions
    # IS's reductions: bucket-count allreduce + verification allreduce.
    assert c_is.n_reductions >= 2
    # EP: three reductions and nothing else (embarrassingly parallel).
    assert c_ep.n_reductions == 3
    assert sum(c_ep.p2p_calls.values()) == 0
    # Combined fraction lands in the paper's "nearly 9%" ballpark
    # (single-digit to low-double-digit percent).
    assert 0.03 <= combined.reduction_fraction <= 0.30
