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
import json
import pydoc
import textwrap

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
            "to_chrome_trace tracer_to_chrome_trace write_chrome_trace"
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
        "repro.core.operator": "ReduceScanOp",
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
            "check_operator sequential_reduce sequential_scan state_equal"
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
        "repro.mpi.op": "Op MAX MIN SUM PROD LAND BAND LOR BOR LXOR BXOR",
        "repro.mpi.op_cold": "op_create BUILTIN_OPS MAXLOC MINLOC",
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
        "repro.obs.critpath": "CriticalPath PathStep critical_path",
        "repro.obs.export": (
            "phase_summary phase_topmost_spans iter_jsonl_records dumps_jsonl "
            "write_jsonl format_text_report"
        ),
    },
    "repro.ops": {
        "repro.ops.arithmetic": "SumOp ProdOp MinOp MaxOp UfuncOp",
        "repro.ops.logical": "AllOp AnyOp XorOp BandOp BorOp BxorOp",
        "repro.ops.location": "MiniOp MaxiOp",
        "repro.ops.mink": "MinKOp",
        "repro.ops.mink_variants": "MaxKOp TranslateMinKOp",
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
        # (it went with the event log it belonged to), ``SupervisorConfig``
        # (its seven fields are module constants), ``NULL_METRICS``
        # (traced runs keep no metrics registry to stand in for) and the
        # 16 names of the removed service stack: the metrics registry,
        # P² quantiles, engine telemetry, Prometheus text and the
        # engine-session Chrome trace.
        assert sum(len(_names(s)) for s in PARENT_EXPORTS.values()) == 283

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
            print(repro.engine.session.Session.__name__)
        """)
        assert out.split() == ["global_reduce_many", "run_plan", "True", "Session"]

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
        from repro.runtime import channels, procworld

        assert tuning.fit_decision_table is tuning_fit.fit_decision_table
        assert tuning.DEFAULT_RANK_GRID is tuning_fit.DEFAULT_RANK_GRID
        assert tuning.DEFAULT_PAYLOAD_GRID is tuning_fit.DEFAULT_PAYLOAD_GRID
        assert "fit_decision_table" in dir(tuning)
        assert procworld.MISS is channels.MISS

    def test_moved_names_still_resolve_at_their_old_paths(self):
        from repro import errors
        from repro.core import operator, validation
        from repro.mpi import (
            collectives, op, op_cold, rabenseifner, scan_binomial,
        )
        from repro.ops import mink, mink_variants
        from repro.runtime import diagnostics

        assert operator.state_equal is validation.state_equal
        for name in ("op_create", "BUILTIN_OPS", "MAXLOC", "MINLOC"):
            assert getattr(op, name) is getattr(op_cold, name)
        assert op.BUILTIN_OPS["MINLOC"] is op.MINLOC
        assert len(op.BUILTIN_OPS) == 12
        assert mink.MaxKOp is mink_variants.MaxKOp
        assert mink.TranslateMinKOp is mink_variants.TranslateMinKOp
        assert errors.format_rank_states is diagnostics.format_rank_states
        assert (collectives.allreduce_rabenseifner_plan
                is rabenseifner.allreduce_rabenseifner_plan)
        assert (collectives.scan_simultaneous_binomial_plan
                is scan_binomial.scan_simultaneous_binomial_plan)


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
    "repro.runtime.procworld", "repro.runtime.diagnostics",
    "repro.obs.critpath", "repro.obs.export",
    "repro.mpi.tuning_fit", "repro.mpi.tuning_cold", "repro.mpi.comm_cold",
    "repro.mpi.request", "repro.mpi.op_cold", "repro.mpi.collectives_cold",
    "repro.mpi.rabenseifner", "repro.mpi.scan_binomial",
    "repro.engine.recovery", "repro.engine.introspect",
    "repro.ops.mink_variants",
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


#: What a cold start of each benchmark workload (``bench/workloads.py``)
#: imports and runs before its first answer: the imports of its
#: ``build()`` (the same for every workload), then one job.
_BUILD_IMPORTS = """
    from repro import (
        Engine, global_reduce, global_reduce_many, global_scan, global_xscan,
        spmd_run,
    )
    from repro.core.kernels import default_cache
    from repro.core.reduce import accumulate_local, accumulate_local_many, wire_op
    from repro.localview import LOCAL_ALLREDUCE, LOCAL_XSCAN
    from repro.ops import CountsOp, MaxOp, MinKOp, SortedOp, SumOp
"""
_WORKLOAD_JOBS = {
    "small_jobs": """
        blocks = [np.arange(r, r + 64, dtype=np.float64) for r in range(8)]
        op = SumOp()
        with Engine(8) as engine:
            engine.submit(lambda c: global_reduce(c, op, blocks[c.rank])).result()
    """,
    "accum_heavy": """
        blocks = [np.arange(r, r + 4000, dtype=np.int64) for r in range(8)]
        ops = [SumOp(), MaxOp(-(1 << 62)), MinKOp(10, 1 << 62)]
        with Engine(8) as engine:
            engine.submit(lambda c: tuple(global_reduce_many(
                c, [(o, blocks[c.rank]) for o in ops]
            ))).result()
    """,
    "wide_combine": """
        blocks = [np.full((4, 32768), float(r)) for r in range(8)]
        op = SumOp()
        with Engine(8) as engine:
            engine.submit(lambda c: global_reduce(c, op, blocks[c.rank])).result()
    """,
    "oneshot_scan": """
        from repro.rsmpi import RSMPI_Reduceall, compile_operator

        listing8 = compile_operator(LISTING_8)
        cats = [np.arange(200) % 8 + 1 for _ in range(8)]
        keys = [np.arange(r * 200, (r + 1) * 200) for r in range(8)]
        counts, total, ordered = CountsOp(8), SumOp(), SortedOp()
        spmd_run(lambda c: (
            global_scan(c, counts, cats[c.rank]),
            global_xscan(c, total, keys[c.rank]),
            global_reduce(c, ordered, keys[c.rank]),
            RSMPI_Reduceall(listing8, keys[c.rank], c),
        ), 8)
    """,
}

#: Lines of ``repro`` source (every loaded module, ``wc -l``) a cold start
#: of each workload compiles — a ceiling, not a timing.  Before the
#: cold halves of the job-path modules moved out (collectives, tuning,
#: the multi-tier fabrics, the frame codec, the enabled tracer, ULFM,
#: rate calibration) every workload loaded 10,442 lines, 12,657 with
#: the DSL; with the null engine telemetry and its hooks still on the
#: job path, 8,984 and 11,172; with recovery, the unused MPI surface,
#: hang diagnostics and the one-workload plans still on it, 8,806 and
#: 10,994.
COLD_PATH_LINES = {
    "small_jobs": 7_996,
    "accum_heavy": 8_274,     # + the nonblocking layer a fusion wave issues
    "wide_combine": 8_361,    # + that layer and the Rabenseifner plan
    "oneshot_scan": 10_276,
}

#: Code tokens of the same modules — what ``compile()`` time follows
#: (docstrings and comments are lines, not work): ``tokenize`` tokens
#: other than comments, strings (an f-string whole), newlines and
#: indentation.  32,593 for the three resident workloads and 43,184 for
#: ``oneshot_scan`` before recovery, the unused MPI surface, hang
#: diagnostics and the one-workload plans left the cold path.
COLD_PATH_TOKENS = {
    "small_jobs": 28_467,
    "accum_heavy": 29_346,
    "wide_combine": 29_843,
    "oneshot_scan": 39_436,
}

#: The child's census: lines and code tokens of every loaded module.
_CENSUS = """
    import dataclasses, io, json, sys, tokenize
    SKIP = {
        tokenize.COMMENT, tokenize.STRING, tokenize.NEWLINE, tokenize.NL,
        tokenize.INDENT, tokenize.DEDENT,
    }
    FSTRING = (  # Python >= 3.12 splits an f-string into tokens
        getattr(tokenize, "FSTRING_START", None),
        getattr(tokenize, "FSTRING_END", None),
    )

    def code_tokens(text):
        n = depth = 0
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == FSTRING[0]:
                depth += 1
            elif tok.type == FSTRING[1]:
                depth -= 1
            elif depth == 0 and tok.type not in SKIP:
                n += 1
        return n

    mods = [m for n, m in sorted(sys.modules.items())
            if n == "repro" or n.startswith("repro.")]
    lines = tokens = 0
    for m in mods:
        with open(m.__file__, encoding="utf-8") as f:
            text = f.read()
        lines += text.count("\\n")
        tokens += code_tokens(text)
    dcs = sorted(
        f"{m.__name__}.{k}" for m in mods for k, v in vars(m).items()
        if isinstance(v, type) and v.__module__ == m.__name__
        and dataclasses.is_dataclass(v)
    )
    print(json.dumps({"lines": lines, "tokens": tokens, "dataclasses": dcs}))
"""


class TestColdPathBudget:
    @pytest.mark.parametrize("workload", sorted(_WORKLOAD_JOBS))
    def test_a_cold_start_compiles_within_its_budget(self, workload):
        out = _fresh(
            "import numpy as np\n"
            + textwrap.dedent(_BUILD_IMPORTS)
            + f"LISTING_8 = {LISTING_8_SORTED!r}\n"
            + textwrap.dedent(_WORKLOAD_JOBS[workload])
            + textwrap.dedent(_CENSUS)
        )
        got = json.loads(out)
        assert got["dataclasses"] == []
        assert got["lines"] <= COLD_PATH_LINES[workload], got["lines"]
        assert got["tokens"] <= COLD_PATH_TOKENS[workload], got["tokens"]


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
