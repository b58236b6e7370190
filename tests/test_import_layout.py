"""The import layout: lazy facades, same names, cold subsystems stay cold.

Four properties, none of them a wall-clock assertion:

* **parity** — every name the eager facades exported resolves through
  its facade to the identical object in its defining module;
* **concurrent first touch** — 8 threads resolving every lazy name at
  once, in a fresh interpreter, raise nothing;
* **import surface** — ``import repro`` executes no submodule, and one
  verified thread-backend reduce job leaves the process backend, the
  exporters, the fitter and the cold subsystems unimported;
* **warm paths import nothing** — the job kinds run with
  ``builtins.__import__`` poisoned once they are warm.
"""

from __future__ import annotations

import builtins
import importlib
import pydoc

import numpy as np
import pytest

import repro
from tests.conftest import run_fresh as _fresh

#: What the 18 facades (and the preprocessor package) exported when they
#: were eager ``from x import y`` lists: facade -> defining module ->
#: names.  Frozen here on purpose — the facades' own tables are the
#: thing under test.
PARENT_EXPORTS = {
    "repro": {
        "repro": "__version__",
        "repro.runtime.executor": "spmd_run SpmdResult",
        "repro.runtime.costmodel": "CostModel",
        "repro.engine.core": "Engine Session",
        "repro.engine.job": "JobHandle",
        "repro.core.operator": "ReduceScanOp",
        "repro.core.functional": "make_op from_binary",
        "repro.core.reduce": "global_reduce",
        "repro.core.fusion": "global_reduce_many",
        "repro.core.scan": "global_scan global_xscan",
        "repro.core.validation": "check_operator",
    },
    "repro.algorithms": {
        "repro.algorithms.scan_based": (
            "stream_compact split_by_flag radix_sort sample_sort"
        ),
    },
    "repro.analysis": {
        "repro.analysis.efficiency": "Series sweep crossover",
        "repro.analysis.report": (
            "format_table format_speedup_figure format_series_csv"
        ),
        "repro.analysis.utilization": (
            "RankUtilization utilization format_utilization"
        ),
        "repro.analysis.timeline": (
            "to_chrome_trace tracer_to_chrome_trace write_chrome_trace "
            "engine_session_to_chrome_trace write_engine_session_trace"
        ),
    },
    "repro.arrays": {
        "repro.arrays.distribution": (
            "Distribution BlockDist CyclicDist BlockCyclicDist ExplicitDist"
        ),
        "repro.arrays.global_array": "GlobalArray",
        "repro.arrays.multidim": "GlobalMatrix",
    },
    "repro.core": {
        "repro.core.operator": "ReduceScanOp state_equal",
        "repro.core.chapel": "ChapelOp ChapelOpAdapter",
        "repro.core.functional": "make_op from_binary",
        "repro.core.reduce": (
            "global_reduce accumulate_local accumulate_local_many"
        ),
        "repro.core.fusion": (
            "global_reduce_many ReductionBucket PendingReduction"
        ),
        "repro.core.scan": "global_scan global_xscan",
        "repro.core.kernels": (
            "Kernel ElementwiseKernel SegmentedKernel FallbackKernel "
            "KernelCache compile_kernel batched_accumulate"
        ),
        "repro.core.validation": (
            "check_operator sequential_reduce sequential_scan"
        ),
    },
    "repro.engine": {
        "repro.engine.core": "Engine Session",
        "repro.engine.job": "JobHandle",
        "repro.engine.resilience": "RetryPolicy Supervisor",
    },
    "repro.faults": {
        "repro.faults.plan": (
            "FailStop FaultPlan LinkFaults TransientPlan random_plan reseed "
            "transient_plan"
        ),
        "repro.faults.injection": "FaultInjector",
        "repro.faults.reliable": "Frame",
    },
    "repro.localview": {
        "repro.localview.api": (
            "LOCAL_REDUCE LOCAL_ALLREDUCE LOCAL_SCAN LOCAL_XSCAN "
            "exclusive_from_inclusive_shift"
        ),
        "repro.localview.mink_c": "make_local_mink_op mink_combine mink_ident",
    },
    "repro.mpi": {
        "repro.mpi.comm": "ANY_SOURCE ANY_TAG Communicator",
        "repro.mpi.request": "Request ProgressEngine waitall",
        "repro.mpi.op": (
            "Op op_create BUILTIN_OPS MAX MIN SUM PROD LAND BAND LOR BOR LXOR "
            "BXOR MAXLOC MINLOC"
        ),
        "repro.mpi.topology": "binomial_tree kary_tree tree_depth dims_create",
        "repro.mpi.tuning": (
            "DecisionTable choose_allreduce choose_reduce choose_scan "
            "get_decision_table set_decision_table"
        ),
    },
    "repro.nas": {
        "repro.nas.common": (
            "ISClass MGClass is_class mg_class IS_CLASSES IS_CLASSES_FULL "
            "MG_CLASSES MG_CLASSES_FULL"
        ),
        "repro.nas.callcounts": "CallCensus census",
        "repro.nas.ep": (
            "ep_class EP_CLASSES EP_CLASSES_FULL EPOp EPResult ep_mpi ep_rsmpi"
        ),
        "repro.nas.cg": (
            "CGResult cg_solve cg_solve_fused laplacian_matvec poisson_rhs "
            "random_rhs"
        ),
    },
    "repro.nas.intsort": {
        "repro.nas.intsort.keygen": "generate_keys generate_keys_block",
        "repro.nas.intsort.bucket_sort": (
            "bucket_sort local_key_block SortResult"
        ),
        "repro.nas.intsort.verify": (
            "verify_mpi verify_rsmpi verify_rsmpi_commutative"
        ),
        "repro.nas.intsort.driver": "run_is ISRun VERIFIERS",
        "repro.nas.intsort.kernels": (
            "sorted_check_tworef sorted_check_scalar sorted_check_vectorized "
            "count_unsorted_vectorized"
        ),
    },
    "repro.nas.mg": {
        "repro.nas.mg.comm3": "comm3 norm2u3 vcycle_communication_round",
        "repro.nas.mg.grid": "Block3D fill_zran_block",
        "repro.nas.mg.zran3": "zran3_mpi zran3_rsmpi Zran3Result MM",
    },
    "repro.obs": {
        "repro.obs.tracer": (
            "Span SendEdge RecvEdge RankTracer RunCapture Tracer NULL_TRACER "
            "profiling active_tracer active_profile"
        ),
        "repro.obs.metrics": (
            "Counter Gauge Histogram MetricsRegistry NULL_METRICS"
        ),
        "repro.obs.critpath": "CriticalPath PathStep critical_path",
        "repro.obs.export": (
            "phase_summary phase_topmost_spans iter_jsonl_records dumps_jsonl "
            "write_jsonl format_text_report"
        ),
        "repro.obs.quantiles": "P2Quantile QuantileSet DEFAULT_QUANTILES",
        "repro.obs.telemetry": (
            "EngineTelemetry JobLifecycle SnapshotRing NULL_ENGINE_TELEMETRY "
            "LIFECYCLE_STATES"
        ),
        "repro.obs.promexport": "render_prometheus prom_name",
    },
    "repro.ops": {
        "repro.ops.arithmetic": "SumOp ProdOp MinOp MaxOp UfuncOp",
        "repro.ops.logical": "AllOp AnyOp XorOp BandOp BorOp BxorOp",
        "repro.ops.location": "MiniOp MaxiOp",
        "repro.ops.mink": "MinKOp MaxKOp TranslateMinKOp",
        "repro.ops.counts": "CountsOp",
        "repro.ops.collect": "UnionOp DistinctCountOp ConcatOp",
        "repro.ops.histogram": "HistogramOp",
        "repro.ops.sorted_op": (
            "SortedOp SortedState DishonestCommutativeSortedOp"
        ),
        "repro.ops.stats": "MeanVarOp MeanVarResult MeanVarState",
        "repro.ops.extrema": "ExtremaKLocOp ExtremaState MinKLocOp MaxKLocOp",
        "repro.ops.fused": "FusedOp",
        "repro.ops.segmented": "SegmentedOp",
        "repro.ops.topk": "TopKOp",
        "repro.ops.recurrence": "AffineOp linear_recurrence LogSumExpOp",
    },
    "repro.prefix": {
        "repro.prefix.circuits": "PrefixCircuit",
        "repro.prefix.networks": (
            "serial kogge_stone hillis_steele sklansky brent_kung "
            "ladner_fischer ALL_NETWORKS"
        ),
        "repro.prefix.blelloch": (
            "blelloch_scan blelloch_xscan inclusive_from_exclusive"
        ),
    },
    "repro.rsmpi": {
        "repro.rsmpi.api": (
            "RSMPI_Reduce RSMPI_Reduceall RSMPI_Scan RSMPI_Xscan"
        ),
        "repro.rsmpi.iterators": "indexed mapped strided materialize",
        "repro.rsmpi.operator_spec": (
            "OperatorSpec StateRecord INT_MAX INT_MIN DBL_MAX DBL_MIN"
        ),
        "repro.rsmpi.preprocessor": (
            "compile_operator compile_operator_spec parse_operator"
        ),
        "repro.rsmpi.library": "OPERATOR_SOURCES load_operator operator_names",
    },
    "repro.runtime": {
        "repro.runtime.channels": (
            "ANY_SOURCE ANY_TAG Envelope Mailbox Membership"
        ),
        "repro.runtime.clock": "VirtualClock",
        "repro.runtime.costmodel": (
            "CostModel DEFAULT_RATES calibrate_rate cluster_2006 modern_node"
        ),
        "repro.runtime.executor": "SpmdResult spmd_run",
        "repro.runtime.trace": "Trace merge_traces",
        "repro.runtime.world": "RankContext World",
    },
    "repro.util": {
        "repro.util.rng": (
            "RANDLC_A RANDLC_SEED Randlc randlc_array randlc_pow randlc_skip"
        ),
        "repro.util.sizing": (
            "payload_nbytes copy_for_transfer TransferSafe TransferSized"
        ),
    },
    "repro.rsmpi.preprocessor": {
        "repro.rsmpi.preprocessor": "compile_operator compile_operator_spec",
        "repro.rsmpi.preprocessor.parser": "parse_operator",
        "repro.rsmpi.preprocessor.lexer": "tokenize",
        "repro.rsmpi.preprocessor.codegen": (
            "generate_python CompiledOperator C_CONSTANTS"
        ),
    },
}


def _names(spec):
    return [(mod, name) for mod, names in spec.items() for name in names.split()]


class TestParity:
    def test_the_table_is_the_302_parent_exports(self):
        # The 302 names the eager facades exported, less ``TraceEvent``
        # (it went with the event log it belonged to) and
        # ``SupervisorConfig`` (its seven fields are module constants).
        assert sum(len(_names(s)) for s in PARENT_EXPORTS.values()) == 300

    @pytest.mark.parametrize("facade", sorted(PARENT_EXPORTS))
    def test_names_resolve_to_the_defining_object(self, facade):
        pkg = importlib.import_module(facade)
        for mod, name in _names(PARENT_EXPORTS[facade]):
            assert getattr(pkg, name) is getattr(importlib.import_module(mod), name), (
                f"{facade}.{name} is not {mod}.{name}"
            )

    @pytest.mark.parametrize("facade", sorted(PARENT_EXPORTS))
    def test_all_dir_and_star_import(self, facade):
        pkg = importlib.import_module(facade)
        names = {name for _, name in _names(PARENT_EXPORTS[facade])}
        assert set(pkg.__all__) == names
        assert len(pkg.__all__) == len(names)
        assert names <= set(dir(pkg))
        ns: dict = {}
        exec(f"from {facade} import *", ns)
        for name in names - {"__version__"}:   # dunders are not star-imported
            assert ns[name] is getattr(pkg, name)

    def test_help_walks_a_lazy_facade(self):
        text = pydoc.render_doc(
            importlib.import_module("repro.localview"), renderer=pydoc.plaintext
        )
        assert "LOCAL_ALLREDUCE" in text and "mink_combine" in text

    def test_unknown_attribute_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.core.nope
        assert not hasattr(repro, "nope")
        with pytest.raises(ImportError):
            exec("from repro.ops import NoSuchOp", {})

    def test_submodule_attribute_access_without_importing_it(self):
        out = _fresh("""
            import repro
            assert "repro.core" not in __import__("sys").modules
            print(repro.core.fusion.global_reduce_many.__name__)
            print(repro.mpi.collectives.run_plan.__name__)
            print(repro.runtime.procworld.MISS is repro.runtime.channels.MISS)
            print(repro.engine.top.run_top.__name__)
        """)
        assert out.split() == ["global_reduce_many", "run_plan", "True", "run_top"]

    @pytest.mark.parametrize("first", ["import {sub}", "from {pkg} import {name}"])
    @pytest.mark.parametrize("pkg, name", [
        ("repro.nas.intsort", "bucket_sort"),
        ("repro.nas.mg", "comm3"),
        ("repro.analysis", "utilization"),
    ])
    def test_export_named_like_its_submodule(self, pkg, name, first):
        """Whichever is imported first, the facade's name is the
        function — as it was when the facade bound it eagerly."""
        first = first.format(sub=f"{pkg}.{name}", pkg=pkg, name=name)
        out = _fresh(f"""
            {first}
            import {pkg}
            print(callable({pkg}.{name}), {pkg}.{name}.__module__)
        """)
        assert out.split() == ["True", f"{pkg}.{name}"]

    def test_split_out_names_still_resolve_where_they_were(self):
        from repro.mpi import tuning, tuning_fit
        from repro.obs import telemetry, telemetry_null
        from repro.runtime import channels, procworld

        assert tuning.fit_decision_table is tuning_fit.fit_decision_table
        assert tuning.DEFAULT_RANK_GRID is tuning_fit.DEFAULT_RANK_GRID
        assert tuning.DEFAULT_PAYLOAD_GRID is tuning_fit.DEFAULT_PAYLOAD_GRID
        assert "fit_decision_table" in dir(tuning)
        assert (
            telemetry.NULL_ENGINE_TELEMETRY
            is telemetry_null.NULL_ENGINE_TELEMETRY
        )
        assert procworld.MISS is channels.MISS


class TestConcurrentFirstTouch:
    def test_eight_threads_resolve_every_lazy_name(self):
        out = _fresh(f"""
            import importlib, random, sys, threading

            facades = {sorted(PARENT_EXPORTS)!r}
            sys.setswitchinterval(1e-5)
            barrier = threading.Barrier(8)
            errors = []

            def touch(i):
                rng = random.Random(i)
                order = facades[:]
                rng.shuffle(order)
                barrier.wait()
                try:
                    for facade in order:
                        pkg = importlib.import_module(facade)
                        names = list(pkg.__all__)
                        rng.shuffle(names)
                        for name in names:
                            getattr(pkg, name)
                except BaseException as exc:
                    errors.append(f"thread {{i}}: {{exc!r}}")

            threads = [threading.Thread(target=touch, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads), "first touch hung"
            assert not errors, errors
            print("ok")
        """)
        assert out.strip() == "ok"


#: Nothing here may be imported by a thread-backend reduce job: names
#: ending in "." are whole subsystems.
COLD = (
    "multiprocessing", "socket", "logging", "pathlib", "json", "random",
    "repro.runtime.procworld",
    "repro.obs.critpath", "repro.obs.export", "repro.obs.promexport",
    "repro.obs.telemetry",
    "repro.mpi.tuning_fit",
    "repro.core.chapel", "repro.core.validation", "repro.core.functional",
    "repro.faults.", "repro.nas.", "repro.rsmpi.", "repro.arrays.",
    "repro.prefix.", "repro.analysis.", "repro.algorithms.",
)


class TestImportSurface:
    def test_import_repro_executes_no_submodule(self):
        out = _fresh("""
            import sys
            import numpy
            before = set(sys.modules)
            import repro
            print(sorted(set(sys.modules) - before))
        """)
        assert out.strip() == "['repro', 'repro._lazy']"

    def test_a_reduce_job_leaves_the_cold_subsystems_unimported(self):
        out = _fresh(f"""
            import sys
            import numpy as np
            before = set(sys.modules)
            from repro import Engine, global_reduce
            from repro.ops import SumOp

            blocks = [np.arange(r, r + 64, dtype=np.float64) for r in range(8)]
            op = SumOp()
            with Engine(8) as engine:
                result = engine.submit(
                    lambda comm: global_reduce(comm, op, blocks[comm.rank])
                ).result()
            expected = float(sum(b.sum() for b in blocks))
            assert result.returns == [expected] * 8, result.returns
            new = set(sys.modules) - before
            cold = {COLD!r}
            print(sorted(
                m for m in new for c in cold
                if m == c.rstrip(".") or m.startswith(c.rstrip(".") + ".")
            ))
        """)
        assert out.strip() == "[]"


LISTING_8_SORTED = """
rsmpi operator sorted {
  non-commutative
  state { int first, last; int status; }
  void ident(state s) { s->first = INT_MAX; s->last = INT_MIN; s->status = 1; }
  void pre_accum(state s, int i) { s->first = i; }
  void accum(state s, int i) { if (s->last > i) s->status = 0; s->last = i; }
  void combine(state s1, state s2) {
    s1->status &= s2->status && (s1->last <= s2->first);
    s1->last = s2->last;
  }
  int generate(state s) { return s->status; }
}
"""


class TestWarmPathsImportNothing:
    """The rule behind the layout: deferred imports live in facades,
    constructors, CLI handlers and cold functions — a warm job executes
    no import statement and resolves no lazy export."""

    def test_each_job_kind_runs_with_import_poisoned(self):
        from repro import (
            Engine, global_reduce, global_reduce_many, global_scan, global_xscan,
        )
        from repro.core.operator import ReduceScanOp
        from repro.ops import CountsOp, MaxOp, SumOp
        from repro.rsmpi import RSMPI_Reduceall, compile_operator, load_operator

        nprocs = 8
        rng = np.random.default_rng(14)
        floats = [np.floor(rng.random(64) * 100) for _ in range(nprocs)]
        cats = [rng.integers(1, 9, 64) for _ in range(nprocs)]
        keys = [np.arange(r * 64, (r + 1) * 64) for r in range(nprocs)]
        total, peak, counts = SumOp(), MaxOp(-1.0), CountsOp(8)
        listing8 = compile_operator(LISTING_8_SORTED)
        mink, mini = load_operator("mink", k=3), load_operator("mini")
        rows = [np.column_stack([f, np.arange(64.0)]) for f in floats]
        for dsl in (listing8, mink, mini):  # each runs its generated fold
            assert type(dsl).accum_block is not ReduceScanOp.accum_block

        jobs = {
            "reduce": lambda c: global_reduce(c, total, floats[c.rank]),
            "reduce_many": lambda c: tuple(global_reduce_many(
                c, [(total, floats[c.rank]), (peak, floats[c.rank])]
            )),
            "scan": lambda c: global_scan(c, counts, cats[c.rank]),
            "xscan": lambda c: global_xscan(c, total, floats[c.rank]),
            "rsmpi_reduceall": lambda c: RSMPI_Reduceall(listing8, keys[c.rank], c),
            "rsmpi_array_field": lambda c: RSMPI_Reduceall(
                mink, keys[c.rank].tolist(), c
            ),
            "rsmpi_tuple_rows": lambda c: RSMPI_Reduceall(mini, rows[c.rank], c).loc,
        }

        def same(a, b):
            return all(np.array_equal(x, y) for x, y in zip(a, b))

        real_import = builtins.__import__

        def poisoned(name, *args, **kwargs):
            raise AssertionError(f"import of {name!r} on a warm job path")

        with Engine(nprocs) as engine:
            warm = {k: engine.submit(fn).result().returns for k, fn in jobs.items()}
            assert warm["reduce"][0] == float(sum(f.sum() for f in floats))
            assert bool(warm["rsmpi_reduceall"][0]) is True
            builtins.__import__ = poisoned
            try:
                again = {
                    k: engine.submit(fn).result().returns for k, fn in jobs.items()
                }
            finally:
                builtins.__import__ = real_import
        for kind in jobs:
            assert same(again[kind], warm[kind]), kind
