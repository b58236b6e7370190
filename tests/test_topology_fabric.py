"""Acceptance tests for the pluggable network fabric (docs/topology.md).

Three contracts, in order of importance:

1. **Flat bit-identity** — the default :class:`FlatTopology` reproduces
   the pre-fabric wire times exactly: same makespans, same clocks, same
   message counts.  The fabric layer must be invisible until a
   multi-tier topology is opted into.
2. **Hierarchy identity grid** — every chaos-catalogue operator at
   {4, 8, 16} ranks produces results identical (``state_equal``) on a
   multi-node fabric to the flat baseline: reduce under
   ``algorithm="hierarchical"``, scan under the flat schedules ``auto``
   picks there (the hierarchical scan schedule was removed — it never
   beat them).  Only virtual time may differ.
3. **Topology semantics** — tier pricing, congestion counters, rack
   fault domains, locality-aware gang placement, and per-fabric tuning
   tables behave as documented.
"""

import random
import threading

import numpy as np
import pytest

from repro.core.fusion import global_reduce_many
from repro.core.operator import state_equal
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan
from repro.engine import Engine
from repro.faults.chaos import CHAOS_CASES
from repro.faults.plan import (
    FailStop,
    FaultPlan,
    RackFailure,
    expand_rack_failures,
)
from repro.mpi import tuning as _tuning
from repro.mpi.op import SUM
from repro.mpi.schedule_cache import ScheduleCache
from repro.ops import SumOp
from repro.runtime import spmd_run
from repro.runtime.costmodel import CostModel
from repro.runtime.fabric import (
    FLAT,
    FlatTopology,
    HierarchicalTopology,
    contiguous_node_groups,
    fat_tree,
    multi_node,
    parse_topology,
)

SIZES = (4, 8, 16)
N_PER_RANK = 5


# ---------------------------------------------------------------------------
# Fabric unit semantics
# ---------------------------------------------------------------------------


class TestFabricUnits:
    def test_flat_path_cost_is_wire_time_bit_for_bit(self):
        cm = CostModel()
        topo = FlatTopology()
        for nbytes in (0, 1, 8, 1024, 1 << 20):
            assert topo.path_cost(0, 3, nbytes, cm) == cm.wire_time(nbytes)
            assert topo.path_cost(2, 2, nbytes, cm) == 0.0
        assert topo.is_flat
        assert topo.signature == "flat"
        assert topo.stats() == {}

    def test_flat_singleton(self):
        from repro.runtime.fabric import Topology, flat

        assert flat() is FLAT
        assert Topology.flat() is FLAT

    def test_node_and_rack_mapping(self):
        topo = fat_tree(4, 2)  # 4 ranks/node, 2 nodes/rack
        assert [topo.node_of(r) for r in (0, 3, 4, 8)] == [0, 0, 1, 2]
        assert [topo.rack_of(r) for r in (0, 7, 8, 15, 16)] == [0, 0, 1, 1, 2]
        assert topo.nodes_spanned((0, 1, 2, 3)) == 1
        assert topo.nodes_spanned((0, 4, 8)) == 3

    def test_tier_ordering(self):
        cm = CostModel()
        topo = fat_tree(4, 2)
        n = 1 << 16
        same_node = topo.path_cost(0, 1, n, cm)
        same_rack = topo.path_cost(0, 4, n, cm)
        cross_rack = topo.path_cost(0, 8, n, cm)
        assert same_node < same_rack < cross_rack
        # Same-rack inter-node traffic defaults to the cost model's own
        # parameters: the flat model *is* the inter-node tier.
        assert same_rack == cm.wire_time(n)

    def test_oversubscription_charges_extra_serialization(self):
        cm = CostModel()
        fair = fat_tree(2, 2, oversubscription=1.0)
        congested = fat_tree(2, 2, oversubscription=2.0)
        n = 1 << 16
        delta = congested.path_cost(0, 4, n, cm) - fair.path_cost(0, 4, n, cm)
        assert delta == pytest.approx(n * cm.byte_time)

    def test_congestion_counters(self):
        cm = CostModel()
        topo = fat_tree(2, 2, oversubscription=2.0)
        topo.path_cost(0, 1, 100, cm)  # intra-node
        topo.path_cost(0, 2, 100, cm)  # inter-node, same rack
        topo.path_cost(0, 4, 100, cm)  # cross-rack (spine)
        s = topo.stats()
        assert s["intra_msgs"] == 1 and s["intra_bytes"] == 100
        assert s["uplink_msgs"] == 2 and s["uplink_bytes"] == 200
        assert s["spine_msgs"] == 1 and s["spine_bytes"] == 100
        assert s["extra_seconds"] == pytest.approx(100 * cm.byte_time)
        topo.reset_stats()
        assert topo.stats()["intra_msgs"] == 0

    def test_parse_topology(self):
        assert parse_topology("flat").is_flat
        assert parse_topology("multi_node:4").signature == "multi_node:4"
        ft = parse_topology("fat_tree:4x2")
        assert ft.signature == "fat_tree:4x2:o2"
        assert parse_topology("fat_tree:4x2x1.5").oversubscription == 1.5
        with pytest.raises(ValueError):
            parse_topology("torus:3")
        with pytest.raises(ValueError):
            parse_topology("multi_node:0")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HierarchicalTopology(0)
        with pytest.raises(ValueError):
            fat_tree(2, 2, oversubscription=0.5)

    def test_contiguous_node_groups(self):
        topo = multi_node(2)
        # Six contiguous world ranks on 2-rank nodes: three groups, in
        # group-rank coordinates.
        assert contiguous_node_groups(topo, (0, 1, 2, 3, 4, 5)) == (
            (0, 1), (2, 3), (4, 5),
        )
        # A scattered placement still groups by node as long as members
        # sharing a node are adjacent in the member tuple.
        assert contiguous_node_groups(topo, (0, 1, 4, 5)) == ((0, 1), (2, 3))
        # Flat topology / single node: no grouping.
        assert contiguous_node_groups(FLAT, (0, 1, 2, 3)) is None
        assert contiguous_node_groups(None, (0, 1)) is None
        assert contiguous_node_groups(topo, (0, 1)) is None


# ---------------------------------------------------------------------------
# Flat regression: Topology.flat() reproduces today's makespans exactly
# ---------------------------------------------------------------------------


def _collective_workout(comm):
    arr = np.linspace(0.0, 1.0, 64) * (comm.rank + 1)
    total = comm.allreduce(arr, SUM)
    pref = comm.scan(float(comm.rank + 1), SUM)
    return float(np.sum(total)) + pref


class TestFlatRegression:
    @pytest.mark.parametrize("p", SIZES)
    def test_flat_topology_makespans_exact(self, p):
        baseline = spmd_run(_collective_workout, p)
        explicit = spmd_run(
            _collective_workout, p, topology=FlatTopology()
        )
        assert explicit.returns == baseline.returns
        assert explicit.clocks == baseline.clocks
        assert explicit.time == baseline.time
        assert (
            explicit.summary_trace.n_sends == baseline.summary_trace.n_sends
        )

    def test_global_view_drivers_unchanged_under_flat(self):
        blocks = [[float(q * 5 + i) for i in range(5)] for q in range(8)]

        def prog(comm):
            from repro.ops import SumOp

            return global_reduce(comm, SumOp(), blocks[comm.rank])

        baseline = spmd_run(prog, 8)
        explicit = spmd_run(prog, 8, topology=FLAT)
        assert explicit.returns == baseline.returns
        assert explicit.clocks == baseline.clocks


# ---------------------------------------------------------------------------
# Hierarchy identity grid: results byte-identical to flat, per operator
# ---------------------------------------------------------------------------


def _shards(case, nprocs):
    return [
        case.make_data(random.Random(1000 * nprocs + r), N_PER_RANK)
        for r in range(nprocs)
    ]


def hier_reduce_program(comm, case, shards):
    return global_reduce(
        comm, case.make_op(), shards[comm.rank], algorithm="hierarchical"
    )


def flat_reduce_program(comm, case, shards):
    return global_reduce(comm, case.make_op(), shards[comm.rank])


def flat_scan_program(comm, case, shards):
    return global_scan(comm, case.make_op(), shards[comm.rank])


def _assert_results_identical(case, flat_prog, hier_prog, nprocs):
    shards = _shards(case, nprocs)
    baseline = spmd_run(flat_prog, nprocs, args=(case, shards))
    hier = spmd_run(
        hier_prog, nprocs, args=(case, shards), topology=multi_node(2)
    )
    for g in range(nprocs):
        assert state_equal(hier.returns[g], baseline.returns[g]), (
            f"{case.name} rank {g}: {hier.returns[g]!r} != "
            f"{baseline.returns[g]!r}"
        )


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
def test_hierarchical_reduce_identity(case, nprocs):
    _assert_results_identical(
        case, flat_reduce_program, hier_reduce_program, nprocs
    )


@pytest.mark.parametrize("nprocs", SIZES)
@pytest.mark.parametrize(
    "case",
    [c for c in CHAOS_CASES if c.scan],
    ids=lambda c: c.name,
)
def test_hierarchical_scan_identity(case, nprocs):
    """Scans have no topology-aware schedule (the hierarchical one lost
    to flat binomial on every recorded cell and was removed), so on a
    hierarchical fabric the same flat program must return flat's bytes."""
    _assert_results_identical(
        case, flat_scan_program, flat_scan_program, nprocs
    )


def test_removed_hierarchical_scan_says_so():
    from repro.errors import CommunicatorError, SpmdError

    def prog(comm):
        comm.scan(1.0, SUM, algorithm="hierarchical")

    with pytest.raises(SpmdError) as ei:
        spmd_run(prog, 4, topology=multi_node(2), timeout=10)
    (err,) = set(map(str, ei.value.failures.values()))
    assert isinstance(ei.value.failures[0], CommunicatorError)
    assert "removed" in err and "'binomial' or 'chain'" in err


# ---------------------------------------------------------------------------
# The performance claim the hierarchy exists for
# ---------------------------------------------------------------------------


class TestHierarchicalAdvantage:
    def test_beats_flat_ring_and_rabenseifner_at_1mib(self):
        n = (1 << 20) // 8  # 1 MiB of float64
        topo = multi_node(4)

        def prog(algorithm):
            def run(comm):
                arr = np.ones(n, dtype=np.float64) * (comm.rank + 1)
                return comm.allreduce(arr, SUM, algorithm=algorithm)

            return run

        times = {}
        results = {}
        for algo in ("ring", "rabenseifner", "hierarchical"):
            res = spmd_run(prog(algo), 16, topology=topo)
            times[algo] = res.time
            results[algo] = res.returns[0]
        assert times["hierarchical"] < times["ring"]
        assert times["hierarchical"] < times["rabenseifner"]
        np.testing.assert_allclose(
            results["hierarchical"], results["ring"]
        )


# ---------------------------------------------------------------------------
# Rack-scoped fault domains
# ---------------------------------------------------------------------------


class TestRackFailures:
    def test_expand_lowers_to_per_rank_failstops(self):
        topo = fat_tree(2, 2)  # rack 0 = world ranks 0..3
        plan = FaultPlan(rack_failures=(RackFailure(0, at_time=1e-3),))
        lowered = expand_rack_failures(plan, topo, (0, 1, 2, 3, 4, 5, 6, 7))
        assert {f.rank for f in lowered.failstops} == {0, 1, 2, 3}
        assert all(f.at_time == 1e-3 for f in lowered.failstops)

    def test_expand_respects_placement(self):
        # A 4-rank job placed on world ranks 4..7 (rack 1): the plan's
        # group-rank failstops cover the whole gang, not rack 0.
        topo = fat_tree(2, 2)
        plan = FaultPlan(rack_failures=(RackFailure(1),))
        lowered = expand_rack_failures(plan, topo, (4, 5, 6, 7))
        assert {f.rank for f in lowered.failstops} == {0, 1, 2, 3}
        lowered0 = expand_rack_failures(plan, topo, (0, 1, 2, 3))
        assert lowered0.failstops == ()

    def test_expand_never_duplicates_explicit_failstops(self):
        topo = fat_tree(2, 2)
        plan = FaultPlan(
            failstops=(FailStop(rank=1, at_op=1),),
            rack_failures=(RackFailure(0),),
        )
        lowered = expand_rack_failures(plan, topo, tuple(range(8)))
        ranks = [f.rank for f in lowered.failstops]
        assert sorted(ranks) == [0, 1, 2, 3]
        assert len(ranks) == len(set(ranks))

    def test_empty_rack_is_a_noop(self):
        plan = FaultPlan(rack_failures=(RackFailure(7),))
        assert (
            expand_rack_failures(plan, fat_tree(2, 2), (0, 1)).failstops
            == ()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            RackFailure(rack=-1)
        with pytest.raises(ValueError):
            RackFailure(rack=0, at_time=-1.0)

    def test_rack_failure_kills_whole_rack_in_run(self):
        # at_time=0.0 models the switch dying before the job's first
        # message — the whole rack is gone from the start, the cleanest
        # (and most common) rack-outage shape.  Mid-protocol
        # simultaneous multi-rank deaths can desync the existing ULFM
        # recovery rounds (reproducible with plain FailStops on the
        # flat topology, independent of the fabric layer).
        topo = fat_tree(2, 2)
        plan = FaultPlan(rack_failures=(RackFailure(0),))
        blocks = [[float(q)] for q in range(8)]

        def prog(comm):
            from repro.ops import SumOp

            return global_reduce(comm, SumOp(), blocks[comm.rank])

        res = spmd_run(prog, 8, fault_plan=plan, topology=topo)
        assert res.failed_ranks == {0, 1, 2, 3}
        expected = float(sum(range(4, 8)))
        for q in range(8):
            if q < 4:
                assert res.returns[q] is None
            else:
                assert res.returns[q] == expected

    @pytest.mark.parametrize("at_time", [1e-7, 1e-6, 3e-6, 1e-5])
    def test_mid_protocol_rack_failure_recovers(self, at_time):
        # Regression: several ranks dying at once used to desync the
        # agree protocol's re-election rounds (attempt-stamped control
        # tags never matched between survivors with different failure
        # knowledge), deadlocking recovery.  Rack failures make this
        # the common case, so sweep deaths across the whole protocol.
        topo = fat_tree(2, 2)
        plan = FaultPlan(rack_failures=(RackFailure(0, at_time=at_time),))
        blocks = [[float(q)] for q in range(8)]

        def prog(comm):
            from repro.ops import SumOp

            return global_reduce(comm, SumOp(), blocks[comm.rank])

        res = spmd_run(prog, 8, fault_plan=plan, topology=topo)
        assert res.failed_ranks == {0, 1, 2, 3}
        # Depending on when the rack dies relative to the combine, the
        # survivors see either the survivor-only sum (22.0) or the full
        # pre-death result (28.0) — but always the *same* value.
        survivor_values = set(res.returns[4:])
        assert len(survivor_values) == 1
        assert survivor_values <= {22.0, 28.0}

    def test_describe_mentions_rack(self):
        plan = FaultPlan(rack_failures=(RackFailure(2, at_time=0.5),))
        assert "rack" in plan.describe()
        assert plan.can_fail


# ---------------------------------------------------------------------------
# Locality-aware gang placement
# ---------------------------------------------------------------------------


class TestPlacement:
    def _run_fragmented(self):
        """Hold a 2-rank job on node 0, then place a 4-rank job: the
        engine must route it to the fully-free node 1 instead of
        splitting it across the fragment."""
        engine = Engine(8, topology=multi_node(4))
        try:
            hold = threading.Event()
            release = threading.Event()

            def blocker(comm):
                if comm.rank == 0:
                    hold.set()
                    release.wait(timeout=30)
                comm.barrier()
                return "blocked-job"

            def worker(comm):
                return comm.allreduce(float(comm.rank + 1), SUM)

            h1 = engine.submit(blocker, nprocs=2, block=True)
            assert hold.wait(timeout=30)
            h2 = engine.submit(worker, nprocs=4, block=True)
            r2 = h2.result()
            release.set()
            h1.result()
            stats = engine.stats()
            return r2, stats
        finally:
            release.set()
            engine.shutdown(drain=False)

    def test_locality_packs_gang_into_one_node(self):
        result, stats = self._run_fragmented()
        assert result.returns == [10.0] * 4
        # Both gangs sit on one node each; lowest-free-rank would have
        # put the 4-rank gang on ranks 2..5, across the node boundary
        # (mean spread 1.5, one single-node gang).
        assert stats["placement"] == {
            "gangs_placed": 2,
            "mean_gang_spread": 1.0,
            "single_node_gangs": 2,
        }

    def test_flat_engine_placement_is_historical(self):
        engine = Engine(4)
        try:
            res = engine.submit(
                lambda comm: comm.rank, nprocs=4
            ).result()
            assert res.returns == [0, 1, 2, 3]
            stats = engine.stats()
            assert stats["topology"] == "flat"
            # Flat worlds never report fabric traffic.
            assert stats["fabric"] == {}
        finally:
            engine.shutdown(drain=False)

    def test_engine_reports_fabric_congestion(self):
        engine = Engine(8, topology=multi_node(2))
        try:
            engine.submit(
                lambda comm: comm.allreduce(float(comm.rank), SUM),
                nprocs=8,
            ).result()
            fabric = engine.stats()["fabric"]
            assert fabric["intra_msgs"] > 0
            assert fabric["uplink_msgs"] > 0
        finally:
            engine.shutdown(drain=False)


# ---------------------------------------------------------------------------
# Per-fabric tuning tables and cache keying
# ---------------------------------------------------------------------------


def _hier_table(topology_sig, *, everything=False):
    """A table that sends every large commutative allreduce (with
    ``everything``, every one the guards leave to the table) to the
    hierarchical schedule on one fabric, and fuses up to 256 KiB —
    sixteen times the flat default."""
    B = _tuning.Band
    U = 1 << 62
    cutoffs = ((U, "hierarchical"),)
    if not everything:
        cutoffs = ((65536, "recursive_doubling"),) + cutoffs
    return _tuning.DecisionTable(
        allreduce=(B(U, cutoffs),),
        reduce=_tuning.DEFAULT_TABLE.reduce,
        scan=_tuning.DEFAULT_TABLE.scan,
        source="test",
        fusion=(B(U, ((262144, "fuse"), (U, "flush"))),),
        topology=topology_sig,
    )


class TestTopologyTuning:
    def test_per_fabric_table_registry(self):
        sig = "multi_node:4"
        table = _hier_table(sig)
        prev_gen = _tuning.table_generation()
        _tuning.set_decision_table(table)
        try:
            assert _tuning.table_generation() > prev_gen
            assert _tuning.get_decision_table(sig) is table
            # The flat table is untouched.
            assert _tuning.get_decision_table() is _tuning.DEFAULT_TABLE
            assert (
                _tuning.choose_allreduce(
                    1 << 20, 16, True, True, topology=sig
                )
                == "hierarchical"
            )
            assert (
                _tuning.choose_allreduce(1 << 20, 16, True, True)
                == "rabenseifner"
            )
            # Unfitted fabrics fall back to the flat table, so
            # "hierarchical" is never auto-chosen without a fit.
            assert (
                _tuning.choose_allreduce(
                    1 << 20, 16, True, True, topology="fat_tree:8x4:o2"
                )
                == "rabenseifner"
            )
        finally:
            _tuning.set_decision_table(None, topology=sig)
        assert _tuning.get_decision_table(sig) is _tuning.DEFAULT_TABLE

    def test_schedule_cache_keys_on_topology(self):
        sig = "multi_node:4"
        _tuning.set_decision_table(_hier_table(sig))
        try:
            cache = ScheduleCache()
            flat_choice = cache.choose("allreduce", 1 << 20, 16, True, True)
            hier_choice = cache.choose(
                "allreduce", 1 << 20, 16, True, True, topology=sig
            )
            assert flat_choice == "rabenseifner"
            assert hier_choice == "hierarchical"
            # Cached spans must not cross-contaminate either direction.
            assert (
                cache.choose("allreduce", 1 << 20, 16, True, True)
                == "rabenseifner"
            )
        finally:
            _tuning.set_decision_table(None, topology=sig)

    def test_auto_selects_hierarchical_on_fitted_fabric(self):
        sig = "multi_node:4"
        n = (1 << 20) // 8
        topo = multi_node(4)

        def auto_prog(comm):
            return comm.allreduce(
                np.ones(n, dtype=np.float64), SUM
            )

        def explicit_prog(comm):
            return comm.allreduce(
                np.ones(n, dtype=np.float64), SUM,
                algorithm="hierarchical",
            )

        _tuning.set_decision_table(_hier_table(sig))
        try:
            auto = spmd_run(auto_prog, 16, topology=topo)
            explicit = spmd_run(explicit_prog, 16, topology=topo)
            # Same schedule ⇒ same virtual makespan and message count.
            assert auto.time == explicit.time
            assert (
                auto.summary_trace.n_sends
                == explicit.summary_trace.n_sends
            )
        finally:
            _tuning.set_decision_table(None, topology=sig)

    # The drivers that must know auto's answer before they issue (the
    # overlapped reduce, a fusion bucket) ask the communicator, so on a
    # fabric with its own table they agree with the blocking call.

    def test_overlapped_reduce_matches_unpipelined_on_fitted_fabric(self):
        def prog(comm, overlap):
            block = np.random.default_rng(comm.rank).standard_normal(
                (4, 65536)
            )
            return global_reduce(comm, SumOp(), block, overlap=overlap)

        sig = "multi_node:4"
        _tuning.set_decision_table(_hier_table(sig))
        try:
            auto, off = (
                spmd_run(prog, 8, args=(overlap,), topology=multi_node(4))
                for overlap in ("auto", "off")
            )
        finally:
            _tuning.set_decision_table(None, topology=sig)
        for a, b in zip(auto.returns, off.returns):
            assert a.tobytes() == b.tobytes()
        # The table routes the 512 KiB state to "hierarchical", which is
        # not cut-invariant: the pipeline stood down rather than differ.
        assert auto.time == off.time
        assert auto.summary_trace.n_sends == off.summary_trace.n_sends

    @pytest.mark.parametrize("p", [8, 12, 16])
    def test_fused_matches_sequential_on_fitted_fabric(self, p):
        def blocks(rank):
            rng = np.random.default_rng(100 + rank)
            return [rng.standard_normal((16, 32)) for _ in range(4)]

        def fused(comm):
            return global_reduce_many(
                comm, [(SumOp(), b) for b in blocks(comm.rank)]
            )

        def sequential(comm):
            return [global_reduce(comm, SumOp(), b) for b in blocks(comm.rank)]

        sig = "multi_node:4"
        _tuning.set_decision_table(_hier_table(sig, everything=True))
        try:
            got = spmd_run(fused, p, topology=multi_node(4)).returns
            want = spmd_run(sequential, p, topology=multi_node(4)).returns
        finally:
            _tuning.set_decision_table(None, topology=sig)
        for g, w in zip(got, want):
            assert [x.tobytes() for x in g] == [x.tobytes() for x in w]

    def test_bucket_flushes_at_the_fabric_tables_threshold(self):
        def prog(comm):
            with comm.fused() as bucket:
                # 3 x 8 KiB crosses the flat 16 KiB watermark, not the
                # fabric table's 256 KiB: nothing flushes before exit.
                for _ in range(3):
                    bucket.allreduce(np.ones(1024), SUM)
                queued = len(bucket._queue)
            return bucket._max_bytes, queued

        sig = "multi_node:4"
        _tuning.set_decision_table(_hier_table(sig))
        try:
            on_fabric = spmd_run(prog, 8, topology=multi_node(4)).returns[0]
            on_flat = spmd_run(prog, 8).returns[0]
        finally:
            _tuning.set_decision_table(None, topology=sig)
        assert on_fabric == (262144, 3)
        assert on_flat == (_tuning.fusion_flush_bytes(8), 0)

    def test_table_roundtrip_preserves_topology(self):
        table = _hier_table("multi_node:4")
        clone = _tuning.DecisionTable.from_dict(table.to_dict())
        assert clone.topology == "multi_node:4"
        assert clone.allreduce == table.allreduce
        # Pre-fabric serialized tables load as flat tables.
        legacy = dict(table.to_dict())
        del legacy["topology"]
        assert _tuning.DecisionTable.from_dict(legacy).topology == "flat"

    def test_fit_adds_hierarchical_candidates_only_when_non_flat(self):
        payloads = (64, 4096)
        ranks = (4,)
        _flat_table, flat_report = _tuning.fit_decision_table(
            rank_grid=ranks, payload_grid=payloads
        )
        hier_table, hier_report = _tuning.fit_decision_table(
            rank_grid=ranks, payload_grid=payloads, topology=multi_node(2)
        )
        flat_algos = {
            cell["winner"]
            for cell in flat_report["grid"]["allreduce"]
        }
        assert "hierarchical" not in flat_algos
        hier_candidates = set(
            hier_report["grid"]["allreduce"][0]["times"]
        )
        assert "hierarchical" in hier_candidates
        assert hier_table.topology == "multi_node:2"


# ---------------------------------------------------------------------------
# Telemetry: placement + congestion gauges (docs/observability.md)
# ---------------------------------------------------------------------------


class TestFabricTelemetry:
    def test_snapshot_exports_placement_and_congestion_gauges(self):
        engine = Engine(8, topology=multi_node(2), telemetry=True)
        try:
            engine.submit(
                lambda comm: comm.allreduce(float(comm.rank), SUM),
                nprocs=4,
            ).result()
            frame = engine.telemetry.snapshot()
            gauges = frame["metrics"]["gauges"]
            assert gauges["engine.placement.gangs"] >= 1
            assert gauges["engine.placement.gang_spread"] >= 1.0
            assert "engine.placement.single_node_gangs" in gauges
            assert gauges["fabric.congestion.intra_msgs"] > 0
            assert frame["engine"]["topology"] == "multi_node:2"
        finally:
            engine.shutdown(drain=False)

    def test_flat_snapshot_has_no_congestion_gauges(self):
        engine = Engine(4, telemetry=True)
        try:
            engine.submit(lambda comm: comm.rank).result()
            gauges = engine.telemetry.snapshot()["metrics"]["gauges"]
            assert not any(
                name.startswith("fabric.congestion.") for name in gauges
            )
        finally:
            engine.shutdown(drain=False)
