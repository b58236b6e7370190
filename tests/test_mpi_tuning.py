"""Tests for the collective algorithm tuning layer (repro.mpi.tuning).

The contract under test: ``algorithm="auto"`` is a pure *performance*
choice — for any operator and any payload it must produce exactly the
result the explicit baseline algorithm produces, and it must never route
a non-commutative operator to a commutative-only schedule.
"""

import json

import numpy as np
import pytest

from repro import mpi
from repro.core.operator import state_equal
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan, global_xscan
from repro.mpi.collectives import SCHEDULES
from repro.mpi.tuning import (
    DEFAULT_TABLE,
    Band,
    DecisionTable,
    candidates,
    choose_allreduce,
    choose_reduce,
    choose_scan,
    fit_decision_table,
    is_splittable,
    load_decision_table,
    set_decision_table,
)
from repro.ops import (
    AllOp,
    AnyOp,
    BandOp,
    BorOp,
    BxorOp,
    ConcatOp,
    CountsOp,
    HistogramOp,
    MaxiOp,
    MaxKOp,
    MaxOp,
    MeanVarOp,
    MiniOp,
    MinKOp,
    MinOp,
    ProdOp,
    SortedOp,
    SumOp,
    TopKOp,
    UnionOp,
    XorOp,
)
from repro.runtime import spmd_run
from tests.conftest import block_split, run_all

INT_MAX = np.iinfo(np.int64).max

#: Payload element counts (int64) spanning the decision-table byte
#: crossovers: 8 B (scalar regime), 4 KiB (below every cutoff), 16 KiB
#: (the p<=8 allreduce cutoff), 128 KiB (above the allreduce cutoffs,
#: below the large-p reduce cutoff) and 320 KB (above everything).
CROSSOVER_LENGTHS = [1, 512, 2048, 16384, 40000]

NPROCS = [1, 2, 3, 8, 16]


class TestChoosers:
    def test_non_commutative_never_segmenting(self):
        for nbytes in (8, 10**4, 10**8):
            for p in (2, 4, 16, 64):
                assert (
                    choose_allreduce(nbytes, p, commutative=False, splittable=True)
                    == "recursive_doubling"
                )

    def test_non_splittable_never_segmenting(self):
        for nbytes in (8, 10**4, 10**8):
            for p in (2, 4, 16, 64):
                assert (
                    choose_allreduce(nbytes, p, commutative=True, splittable=False)
                    == "recursive_doubling"
                )
                assert choose_reduce(nbytes, p, True, False) == "binomial"

    def test_allreduce_crossover(self):
        # Small payloads keep the latency-optimal schedule; large
        # commutative splittable ones get a bandwidth-optimal one.
        assert choose_allreduce(8, 16, True, True) == "recursive_doubling"
        big = SCHEDULES["allreduce"][choose_allreduce(10**7, 16, True, True)]
        assert big.segments and not big.groups

    def test_reduce_crossover(self):
        assert choose_reduce(8, 16, True, True) == "binomial"
        assert choose_reduce(10**7, 16, True, True) == "pipelined_ring"

    def test_scan_choice_is_order_preserving(self):
        for nbytes in (8, 10**7):
            for p in (1, 2, 3, 8, 16, 64):
                choice = choose_scan(nbytes, p, False, False)
                assert SCHEDULES["scan"][choice].order_preserving

    def test_is_splittable(self):
        assert is_splittable(np.zeros(16), mpi.SUM, 16)
        assert not is_splittable(np.zeros(15), mpi.SUM, 16)  # too short
        assert not is_splittable(np.zeros((4, 4)), mpi.SUM, 4)  # not 1-D
        assert not is_splittable([0.0] * 16, mpi.SUM, 16)  # not ndarray
        # MAXLOC is not elementwise (pair semantics)
        assert not is_splittable(np.zeros(16), mpi.MAXLOC, 16)
        # plain callables carry no elementwise declaration
        assert not is_splittable(np.zeros(16), lambda a, b: a + b, 16)


class TestAutoMatchesExplicitWire:
    """comm-level: auto == explicit bit-for-bit on exact (int64) data."""

    @pytest.mark.parametrize("p", NPROCS)
    @pytest.mark.parametrize("n", CROSSOVER_LENGTHS)
    def test_allreduce_sum(self, p, n, rng):
        data = rng.integers(-(2**40), 2**40, size=(p, n), dtype=np.int64)

        def prog(comm):
            auto = comm.allreduce(data[comm.rank].copy(), mpi.SUM)
            explicit = comm.allreduce(
                data[comm.rank].copy(), mpi.SUM,
                algorithm="recursive_doubling",
            )
            return bool(np.array_equal(auto, explicit))

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("p", NPROCS)
    @pytest.mark.parametrize("n", CROSSOVER_LENGTHS)
    def test_reduce_sum(self, p, n, rng):
        data = rng.integers(-(2**40), 2**40, size=(p, n), dtype=np.int64)

        def prog(comm):
            auto = comm.reduce(data[comm.rank].copy(), mpi.SUM)
            explicit = comm.reduce(
                data[comm.rank].copy(), mpi.SUM, algorithm="binomial"
            )
            if comm.rank == 0:
                return bool(np.array_equal(auto, explicit))
            return auto is None and explicit is None

        assert all(run_all(prog, p))

    @pytest.mark.parametrize(
        "op", [mpi.MIN, mpi.MAX, mpi.PROD, mpi.BAND, mpi.BOR, mpi.BXOR],
        ids=lambda op: op.name,
    )
    def test_allreduce_elementwise_builtins(self, op, rng):
        p, n = 8, 16384  # right at the p<=8 crossover
        data = rng.integers(1, 7, size=(p, n), dtype=np.int64)

        def prog(comm):
            auto = comm.allreduce(data[comm.rank].copy(), op)
            explicit = comm.allreduce(
                data[comm.rank].copy(), op, algorithm="recursive_doubling"
            )
            return bool(np.array_equal(auto, explicit))

        assert all(run_all(prog, p))

    @pytest.mark.parametrize(
        "op", [mpi.LAND, mpi.LOR, mpi.LXOR], ids=lambda op: op.name
    )
    def test_allreduce_logical_builtins(self, op, rng):
        # Logical ops are deliberately not elementwise (fresh bool
        # arrays); auto must fall back to recursive doubling and match.
        p = 8
        data = rng.integers(0, 2, size=(p, 64), dtype=np.int64)

        def prog(comm):
            auto = comm.allreduce(data[comm.rank].copy(), op)
            explicit = comm.allreduce(
                data[comm.rank].copy(), op, algorithm="recursive_doubling"
            )
            return bool(np.array_equal(auto, explicit))

        assert all(run_all(prog, p))

    def test_allreduce_maxloc_pairs(self, rng):
        p = 8
        vals = rng.normal(size=(p, 32))

        def prog(comm):
            pairs = np.stack(
                [vals[comm.rank], np.full(32, float(comm.rank))], axis=1
            )
            auto = comm.allreduce(pairs.copy(), mpi.MAXLOC)
            explicit = comm.allreduce(
                pairs.copy(), mpi.MAXLOC, algorithm="recursive_doubling"
            )
            return bool(np.array_equal(auto, explicit))

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("p", NPROCS)
    def test_scan_and_exscan(self, p, rng):
        data = rng.integers(-(2**40), 2**40, size=(p, 256), dtype=np.int64)

        def prog(comm):
            mine = data[comm.rank]
            a = comm.scan(mine.copy(), mpi.SUM)
            b = comm.scan(mine.copy(), mpi.SUM, algorithm="binomial")
            ok = bool(np.array_equal(a, b))
            xa = comm.exscan(
                mine.copy(), mpi.SUM,
                identity=lambda: np.zeros(256, dtype=np.int64),
            )
            xb = comm.exscan(
                mine.copy(), mpi.SUM,
                identity=lambda: np.zeros(256, dtype=np.int64),
                algorithm="binomial",
            )
            return ok and bool(np.array_equal(xa, xb))

        assert all(run_all(prog, p))

    def test_non_commutative_auto_never_rejected(self):
        """A non-commutative elementwise op over a huge array must sail
        through auto (routed to an order-preserving schedule) instead of
        hitting a commutative-only algorithm's guard."""
        p, n = 16, 100_000
        take_right = mpi.op_create(
            lambda a, b: b, commute=False, elementwise=True, name="project"
        )

        def prog(comm):
            out = comm.allreduce(
                np.full(n, float(comm.rank)), take_right
            )
            return bool(np.all(out == p - 1))

        assert all(run_all(prog, p))


#: Representative instances of every operator family in repro.ops,
#: paired with a data generator (global int sequence keeps exact ops
#: bit-exact; state_equal gives float ops merge tolerance).
def _int_data(n=40):
    return [int(v) for v in np.random.default_rng(7).integers(0, 50, n)]


GLOBAL_VIEW_OPS = [
    pytest.param(SumOp(), _int_data(), id="SumOp"),
    pytest.param(ProdOp(), [1, 2, 1, 3, 1, 2, 1, 1, 2, 1], id="ProdOp"),
    pytest.param(MinOp(), _int_data(), id="MinOp"),
    pytest.param(MaxOp(), _int_data(), id="MaxOp"),
    pytest.param(AllOp(), [1, 1, 0, 1] * 10, id="AllOp"),
    pytest.param(AnyOp(), [0, 0, 1, 0] * 10, id="AnyOp"),
    pytest.param(XorOp(), [1, 0, 1, 1] * 10, id="XorOp"),
    pytest.param(BandOp(), _int_data(), id="BandOp"),
    pytest.param(BorOp(), _int_data(), id="BorOp"),
    pytest.param(BxorOp(), _int_data(), id="BxorOp"),
    pytest.param(
        MiniOp(), [(v, i) for i, v in enumerate(_int_data())], id="MiniOp"
    ),
    pytest.param(
        MaxiOp(), [(v, i) for i, v in enumerate(_int_data())], id="MaxiOp"
    ),
    pytest.param(MinKOp(3, INT_MAX), _int_data(), id="MinKOp"),
    pytest.param(MaxKOp(3, -INT_MAX), _int_data(), id="MaxKOp"),
    pytest.param(
        CountsOp(8, base=0), [v % 8 for v in _int_data()], id="CountsOp"
    ),
    pytest.param(UnionOp(), [v % 11 for v in _int_data()], id="UnionOp"),
    pytest.param(ConcatOp(), _int_data(), id="ConcatOp"),
    pytest.param(
        HistogramOp([0.0, 10.0, 25.0, 50.0]), _int_data(), id="HistogramOp"
    ),
    pytest.param(SortedOp(), sorted(_int_data()), id="SortedOp"),
    pytest.param(MeanVarOp(), [float(v) for v in _int_data()], id="MeanVarOp"),
    pytest.param(TopKOp(4), _int_data(), id="TopKOp"),
]


class TestAutoMatchesExplicitGlobalView:
    """Driver-level: every repro.ops operator, auto == explicit."""

    @pytest.mark.parametrize("p", NPROCS)
    @pytest.mark.parametrize("op,data", GLOBAL_VIEW_OPS)
    def test_global_reduce(self, p, op, data):
        def prog(comm):
            local = block_split(data, comm.size, comm.rank)
            auto = global_reduce(comm, op, local)
            explicit = global_reduce(
                comm, op, local, algorithm="recursive_doubling"
            )
            return state_equal(auto, explicit)

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("op,data", GLOBAL_VIEW_OPS)
    def test_global_reduce_rooted(self, op, data):
        p = 8

        def prog(comm):
            local = block_split(data, comm.size, comm.rank)
            auto = global_reduce(comm, op, local, root=0)
            explicit = global_reduce(
                comm, op, local, root=0, algorithm="binomial"
            )
            if comm.rank == 0:
                return state_equal(auto, explicit)
            return auto is None and explicit is None

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("op,data", GLOBAL_VIEW_OPS)
    def test_global_scan(self, op, data):
        p = 8

        def prog(comm):
            local = block_split(data, comm.size, comm.rank)
            auto = global_scan(comm, op, local)
            explicit = global_scan(comm, op, local, algorithm="binomial")
            return state_equal(auto, explicit)

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("op,data", GLOBAL_VIEW_OPS[:6])
    def test_global_xscan(self, op, data):
        p = 8

        def prog(comm):
            local = block_split(data, comm.size, comm.rank)
            auto = global_xscan(comm, op, local)
            explicit = global_xscan(comm, op, local, algorithm="binomial")
            return state_equal(auto, explicit)

        assert all(run_all(prog, p))


class TestDecisionTable:
    def test_lookup_bands_and_cutoffs(self):
        table = DecisionTable(
            allreduce=(
                Band(8, ((100, "a"), (1 << 62, "b"))),
                Band(1 << 62, ((1 << 62, "c"),)),
            ),
            reduce=(Band(1 << 62, ((1 << 62, "r"),)),),
            scan=(Band(1 << 62, ((1 << 62, "s"),)),),
        )
        assert table.lookup("allreduce", 50, 4) == "a"
        assert table.lookup("allreduce", 100, 4) == "a"  # inclusive
        assert table.lookup("allreduce", 101, 4) == "b"
        assert table.lookup("allreduce", 50, 9) == "c"
        assert table.lookup("reduce", 10**9, 10**6) == "r"

    def test_json_roundtrip(self, tmp_path):
        blob = json.dumps(DEFAULT_TABLE.to_dict())
        back = DecisionTable.from_dict(json.loads(blob))
        for kind in ("allreduce", "reduce", "scan"):
            for p in (2, 4, 8, 16, 32, 100):
                for nbytes in (1, 4096, 16384, 65536, 262144, 10**8):
                    assert back.lookup(kind, nbytes, p) == DEFAULT_TABLE.lookup(
                        kind, nbytes, p
                    )

    def test_load_and_restore(self, tmp_path):
        custom = DecisionTable(
            allreduce=(Band(1 << 62, ((1 << 62, "ring"),)),),
            reduce=(Band(1 << 62, ((1 << 62, "binomial"),)),),
            scan=(Band(1 << 62, ((1 << 62, "binomial"),)),),
            source="test",
        )
        path = tmp_path / "table.json"
        path.write_text(json.dumps(custom.to_dict()))
        try:
            loaded = load_decision_table(path)
            assert loaded.source == "test"
            assert choose_allreduce(8, 16, True, True) == "ring"
        finally:
            set_decision_table(None)
        assert choose_allreduce(8, 16, True, True) == "recursive_doubling"

    @pytest.mark.parametrize(
        "kind,entry,expected",
        [
            ("allreduce", "rabenseifer", "'rabenseifner'"),
            ("reduce", "kary", "'binomial', 'pipelined_ring'"),
            ("scan", "hierarchical", "removed"),
            ("radix", 3, "power of two"),
            ("radix", "4", "power of two"),
            ("fusion", "fuze", "'fuse', 'flush'"),
        ],
    )
    def test_load_rejects_entries_nothing_can_run(
        self, tmp_path, kind, entry, expected
    ):
        """Regression: any string or integer used to load cleanly and
        only fail mid-job, when a payload first landed in that band."""
        doc = DEFAULT_TABLE.to_dict()
        doc[kind][-1]["cutoffs"][0][1] = entry
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc))
        before = DEFAULT_TABLE.lookup("allreduce", 8, 16)
        with pytest.raises(ValueError) as ei:
            load_decision_table(path)
        message = str(ei.value)
        band = doc[kind][-1]
        assert repr(kind) in message and repr(entry) in message
        assert f"ranks<={band['max_ranks']}" in message
        assert f"bytes<={band['cutoffs'][0][0]}" in message
        assert expected in message
        assert choose_allreduce(8, 16, True, True) == before  # not installed

    def test_old_tables_still_round_trip(self):
        """Tables from before the fusion and radix dimensions (and
        before fabrics) load, and load the same after a re-dump."""
        doc = DEFAULT_TABLE.to_dict()
        for later in ("fusion", "radix", "topology"):
            del doc[later]
            old = DecisionTable.from_dict(doc)
            assert DecisionTable.from_dict(old.to_dict()) == old
        assert old.allreduce == DEFAULT_TABLE.allreduce
        assert old.topology == "flat"
        # a per-fabric table may name the fabric-only schedule
        doc["allreduce"][-1]["cutoffs"][-1][1] = "hierarchical"
        assert (
            DecisionTable.from_dict(doc).lookup("allreduce", 1 << 30, 64)
            == "hierarchical"
        )

    def test_fit_on_tiny_grid(self):
        table, report = fit_decision_table(
            rank_grid=(4,), payload_grid=(8, 65536)
        )
        # sanity: a fitted table always answers, and the report grid
        # carries one row per (kind, rank, payload) cell
        assert table.lookup("allreduce", 8, 4) in candidates("allreduce")
        assert len(report["grid"]["allreduce"]) == 2
        assert report["payload_grid"] == [8, 65536]
        blob = json.dumps(report)  # must serialize cleanly
        assert "times" in blob

    def test_fit_is_a_pure_function_of_its_arguments(self):
        """Every cell is simulated on the virtual clock, so a re-fit
        reproduces the table and the whole measurement grid."""
        first = fit_decision_table(rank_grid=(4,), payload_grid=(8, 65536))
        again = fit_decision_table(rank_grid=(4,), payload_grid=(8, 65536))
        assert first == again

    def test_committed_table_answers_like_the_default(self):
        """``results/decision_table.json`` is `python -m repro tune`'s
        output for the default cost model, and ``DEFAULT_TABLE`` is that
        fit written out by hand: they may band ranks differently but
        must never disagree on an answer."""
        from pathlib import Path

        from repro.mpi.tuning import DEFAULT_PAYLOAD_GRID
        from repro.mpi.tuning import _DIMENSIONS as dimensions

        path = Path(__file__).parent.parent / "results" / "decision_table.json"
        committed = DecisionTable.from_dict(json.loads(path.read_text()))
        sizes = sorted(
            {max(0, b + d) for b in DEFAULT_PAYLOAD_GRID for d in (-1, 0, 1)}
        )
        for kind in dimensions:
            for p in range(2, 65):
                for nbytes in sizes:
                    assert committed.lookup(kind, nbytes, p) == (
                        DEFAULT_TABLE.lookup(kind, nbytes, p)
                    ), (kind, p, nbytes)


class TestTuneCli:
    def test_dry_run_smoke(self, capsys):
        from repro.__main__ import main

        rc = main([
            "tune", "--dry-run", "--ranks", "4", "--payloads", "8", "65536",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dry run: nothing written" in out
        assert "recursive_doubling" in out

    def test_tune_writes_table_and_bench(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "table.json"
        bench = tmp_path / "BENCH_tune.json"
        rc = main([
            "tune", "--ranks", "4", "--payloads", "8", "65536",
            "--out", str(out), "--bench", str(bench),
        ])
        assert rc == 0
        table = DecisionTable.from_dict(json.loads(out.read_text()))
        assert table.lookup("reduce", 8, 4) == "binomial"
        report = json.loads(bench.read_text())
        assert report["rank_grid"] == [4]


class TestFusionDimension:
    """The fusion fuse-or-flush watermark lives in the same fitted
    decision table as the algorithm choices (one cost model for both)."""

    def test_choose_fusion_small_fuses_large_flushes(self):
        from repro.mpi.tuning import choose_fusion

        for p in (4, 8, 16, 32):
            assert choose_fusion(64, p) == "fuse"
            assert choose_fusion(1 << 20, p) == "flush"

    def test_flush_bytes_matches_fuse_band(self):
        from repro.mpi.tuning import choose_fusion, fusion_flush_bytes

        for p in (4, 8, 16, 32):
            threshold = fusion_flush_bytes(p)
            assert choose_fusion(threshold, p) == "fuse"
            assert choose_fusion(threshold + 1, p) == "flush"

    def test_round_trip_preserves_fusion(self):
        doc = DEFAULT_TABLE.to_dict()
        assert "fusion" in doc
        back = DecisionTable.from_dict(doc)
        assert back.fusion == DEFAULT_TABLE.fusion

    def test_from_dict_without_fusion_key_falls_back(self):
        """Tables written before the fusion dimension still load."""
        doc = DEFAULT_TABLE.to_dict()
        del doc["fusion"]
        back = DecisionTable.from_dict(doc)
        from repro.mpi.tuning import fusion_flush_bytes

        assert fusion_flush_bytes(8, table=back) > 0

    def test_fit_includes_fusion(self):
        table, report = fit_decision_table(
            rank_grid=(4,), payload_grid=(64, 4096, 1 << 18)
        )
        assert table.fusion
        assert "fusion" in report["grid"]
        doc = table.to_dict()
        assert "fusion" in doc

    def test_bucket_threshold_uses_table(self):
        from repro.mpi.tuning import fusion_flush_bytes

        def prog(comm):
            return comm.fused()._max_bytes

        for threshold in run_all(prog, 4):
            assert threshold == fusion_flush_bytes(4)


class TestKernelDimension:
    """The table no longer has a scalar-vs-compiled ``kernel`` dimension
    (an accumulate is the operator's own block method), but tables
    written while it had one are still on disk."""

    def test_from_dict_without_kernel_key_falls_back(self):
        """A table with a ``kernel`` section loads, ignores it and does
        not write it back."""
        doc = DEFAULT_TABLE.to_dict()
        assert "kernel" not in doc
        doc["kernel"] = [
            {"max_ranks": None,
             "cutoffs": [[16, "scalar"], [None, "compiled"]]},
        ]
        back = DecisionTable.from_dict(doc)
        assert back == DecisionTable.from_dict(DEFAULT_TABLE.to_dict())
        assert "kernel" not in back.to_dict()


class TestRadixDimension:
    """The fan-out of the doubling schedules (recursive-doubling
    allreduce, binomial scan) is the table's ``radix`` dimension: fitted
    by simulation, admitted per call by two guards, byte-identical at
    every value (tests/test_radix_identity.py) — so only speed is at
    stake here."""

    @staticmethod
    def _makespan(kind, p, nbytes, cs, algorithm):
        def prog(comm):
            # (n, 1)-shaped: never splittable, so auto stays on the
            # doubling schedule at every size and only the radix varies.
            arr = np.zeros((max(1, nbytes // 8), 1))
            call = comm.allreduce if kind == "allreduce" else comm.scan
            call(arr, mpi.SUM, combine_seconds=cs, algorithm=algorithm)

        return spmd_run(prog, p).time

    @pytest.mark.parametrize("p", [*range(2, 18), 32, 64])
    def test_auto_never_slower_than_plain_doubling(self, p):
        from repro.mpi.tuning import choose_radix

        fanned_out = False
        for nbytes in (8, 64, 512, 4096, 65536):
            for cs in (0.0, 2e-6, 2e-5):
                fanned_out |= choose_radix(nbytes, p, combine_seconds=cs) > 2
                for kind, plain in (
                    ("allreduce", "recursive_doubling"), ("scan", "binomial")
                ):
                    if kind == "scan" and p == 2:
                        continue  # auto takes the chain there
                    auto = self._makespan(kind, p, nbytes, cs, "auto")
                    base = self._makespan(kind, p, nbytes, cs, plain)
                    assert auto <= base, (kind, p, nbytes, cs)
                    if nbytes > 500 or cs == 2e-5:
                        # above the byte guard / folds dearer than rounds
                        assert auto == base, (kind, p, nbytes, cs)
        assert fanned_out  # the grid did exercise radix > 2

    def test_headline_makespans(self):
        """The numbers the default bands were chosen on (8-byte payload)."""
        for p, expected_us in ((8, 14.0), (16, 18.032), (32, 23.016)):
            t = self._makespan("allreduce", p, 8, 0.0, "auto")
            assert t * 1e6 == pytest.approx(expected_us, abs=1e-6)

    def test_byte_guard_follows_the_cost_model(self):
        from repro.mpi.tuning import choose_radix, fanout_admitted
        from repro.runtime.costmodel import CostModel

        # default model: 1 us send overhead / 2 ns per byte = 500 B
        assert choose_radix(500, 8) == 8
        assert choose_radix(501, 8) == 2
        slow_wire = CostModel(byte_time=1e-8)  # 100 B fit in one overhead
        assert fanout_admitted(8, 100, 8, cost_model=slow_wire)
        assert not fanout_admitted(8, 101, 8, cost_model=slow_wire)
        assert choose_radix(128, 8, cost_model=slow_wire) == 2

    def test_fold_guard(self):
        from repro.mpi.tuning import choose_radix

        # 8 ranks, one 8-way level: 7 serial folds against doubling's 3,
        # 7.0 us saved — worth it while a fold costs under 1.75 us.
        assert choose_radix(8, 8, combine_seconds=1.5e-6) == 8
        assert choose_radix(8, 8, combine_seconds=2e-6) == 2
        assert choose_radix(8, 8, combine_seconds=2e-5) == 2
        # Off powers of two the closed form does not hold: plain doubling.
        assert choose_radix(8, 7, combine_seconds=0.0) > 2
        assert choose_radix(8, 7, combine_seconds=1e-7) == 2

    def test_pre_radix_table_round_trips_and_selects_radix_2(self):
        from repro.mpi.tuning import choose_radix

        doc = DEFAULT_TABLE.to_dict()
        del doc["radix"]
        old = DecisionTable.from_dict(doc)
        assert DecisionTable.from_dict(old.to_dict()) == old
        for p in (2, 4, 8, 16, 64):
            for nbytes in (8, 64, 512, 65536):
                assert choose_radix(nbytes, p, table=old) == 2

    def test_round_trip_preserves_radix(self):
        back = DecisionTable.from_dict(
            json.loads(json.dumps(DEFAULT_TABLE.to_dict()))
        )
        assert back.radix == DEFAULT_TABLE.radix
        assert all(
            isinstance(k, int) for b in back.radix for _, k in b.cutoffs
        )

    def test_fit_includes_radix(self):
        table, report = fit_decision_table(
            rank_grid=(8,), payload_grid=(8, 4096)
        )
        # fitted up to the byte guard's limit, plain doubling past it
        assert table.radix == (Band(1 << 62, ((500, 8), (1 << 62, 2))),)
        cells = report["grid"]["radix"]
        assert [c["nbytes"] for c in cells] == [8, 500]
        assert set(cells[0]["times"]) == {2, 4, 8}
        json.dumps(report)

    def test_dry_run_prints_radix_bands(self, capsys):
        from repro.__main__ import main

        assert main(["tune", "--dry-run", "--ranks", "8",
                     "--payloads", "8", "4096"]) == 0
        out = capsys.readouterr().out
        assert "fitted radix bands" in out
        assert "ranks >= 1: radix 8 <= 500 B, radix 2 above" in out

    def test_tuning_inputs_size_without_pickling(self):
        from repro.mpi.comm import Communicator

        sized = Communicator._tuning_inputs
        assert sized(3.0, mpi.SUM, 8) == (8, False)
        assert sized(np.float64(1.0), mpi.SUM, 8) == (8, False)
        assert sized(np.zeros((4, 2)), mpi.SUM, 8) == (64, False)
        assert sized(np.zeros(16), mpi.SUM, 8) == (128, True)
        assert sized((0.0, 7), mpi.MINLOC, 8) == (32, False)

        class Opaque:
            def __reduce__(self):
                raise AssertionError("the tuner must not pickle payloads")

        nbytes, splittable = sized(Opaque(), mpi.SUM, 8)
        assert nbytes > 1 << 40 and not splittable  # unknown: never fans out

    def test_one_cached_lookup_answers_algorithm_and_radix(self):
        from repro.mpi.schedule_cache import ScheduleCache
        from repro.mpi.tuning import choose_radix

        cache = ScheduleCache()
        assert cache.schedule("allreduce", 8, 8, True, False) == (
            "recursive_doubling", 8)
        assert cache.schedule("scan", 64, 16, True, False) == ("binomial", 4)
        assert (cache.hits, cache.misses) == (0, 2)
        # hits are exact, guards included, on both sides of every cutoff
        for nbytes in (1, 8, 9, 15, 499, 500, 501, 4096):
            for cs in (0.0, 1.5e-6, 2e-5):
                assert cache.schedule(
                    "allreduce", nbytes, 8, True, False, combine_seconds=cs
                ) == ("recursive_doubling",
                      choose_radix(nbytes, 8, combine_seconds=cs))
        assert cache.choose("allreduce", 8, 8, True, False) == (
            "recursive_doubling")
        # a segmenting schedule carries no radix
        assert cache.schedule("allreduce", 1 << 20, 8, True, True) == (
            "rabenseifner", 2)

    def test_decision_record_names_radix_and_band(self):
        from repro.mpi.schedule_cache import ScheduleCache

        cache = ScheduleCache()
        cache.schedule("allreduce", 8, 8, True, False)
        cache.schedule("allreduce", 1 << 20, 8, True, True)
        small, big = cache.decisions()
        assert small == {
            "kind": "allreduce", "nprocs": 8, "commutative": True,
            "splittable": False, "topology": "flat", "bytes": [0, 500],
            "algorithm": "recursive_doubling", "radix": 8,
            "radix_band": {"max_ranks": 8, "max_bytes": 500},
        }
        assert big["algorithm"] == "rabenseifner" and "radix" not in big

    def test_metrics_observe_levels_and_radix_actually_run(self):
        from repro.obs import Tracer

        def prog(comm):
            comm.allreduce(1.0, mpi.SUM)
            comm.allreduce(1.0, mpi.SUM, algorithm="recursive_doubling")
            comm.scan(1.0, mpi.SUM)
            comm.scan(1.0, mpi.SUM, algorithm="binomial")

        tracer = Tracer()
        spmd_run(prog, 8, tracer=tracer)
        hist = tracer.metrics.snapshot()["histograms"]
        for name in ("allreduce_rd", "scan_binomial"):
            rounds = hist[f"collective.{name}.rounds"]
            radix = hist[f"collective.{name}.radix"]
            assert (rounds["min"], rounds["max"]) == (1, 3)  # auto, explicit
            assert (radix["min"], radix["max"]) == (2, 8)
