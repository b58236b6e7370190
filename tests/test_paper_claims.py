"""The paper's claims, pinned on sampled configurations.

Each check below is the function the full reproduction in
``benchmarks/`` calls on its whole sweep — one statement of each claim —
run here on a few processor counts under the committed
``results/rates.json``.  A change that moves a claim therefore fails the
unit suite, not only the next regeneration of the figures.
"""

import pytest

from benchmarks import (
    bench_ablation_aggregation as ex_agg,
    bench_ablation_commutative as ex_comm,
    bench_fig2_is_verify as fig2,
    bench_fig3_mg_zran3 as fig3,
    bench_npb_callcounts as tab_npb,
)
from benchmarks.rates import load_model


@pytest.fixture(scope="module")
def model():
    return load_model()


def test_fig2_rsmpi_matches_scalar_mpi_and_beats_two_ref(model):
    fig2.check(fig2.record("A", model))


def test_fig3_single_reduction_wins_more_sharply_on_small_classes(model):
    a = fig3.record("A", model, procs=[1, 2, 16, 64])
    b = fig3.record("B", model, procs=[2])
    fig3.check(*a)
    fig3.check(*b)
    fig3.check_saturates(a[0])
    fig3.check_cross_class(a, b)


def test_npb_reductions_are_a_few_percent_of_calls(model):
    tab_npb.check(*tab_npb.record(model))


def test_commutative_flag_buys_nothing_and_misverifies(model):
    ex_comm.check(ex_comm.record(model))


def test_aggregation_saves_messages(model):
    ex_agg.check(ex_agg.record(model, ks=[1, 4, 16, 64]))
