"""Documentation-consistency guards: every file, command and module the
docs reference must actually exist."""

import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_referenced_benchmark_files_exist(self):
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", _read("README.md")):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(0)

    def test_referenced_examples_exist(self):
        for match in re.finditer(r"examples/(\w+\.py)", _read("README.md")):
            assert (ROOT / "examples" / match.group(1)).exists(), match.group(0)

    def test_referenced_docs_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in _read("README.md")
            assert (ROOT / name).exists()
        for match in re.finditer(r"docs/(\w+\.md)", _read("README.md")):
            assert (ROOT / "docs" / match.group(1)).exists(), match.group(0)

    def test_quickstart_snippet_imports_resolve(self):
        import repro
        from repro import global_reduce, spmd_run  # noqa: F401
        from repro.arrays import GlobalArray  # noqa: F401
        from repro.ops import CountsOp, MinKOp, SortedOp  # noqa: F401
        from repro.rsmpi import RSMPI_Reduceall, compile_operator  # noqa: F401

        assert repro.__version__


class TestDesign:
    def test_experiment_index_bench_targets_exist(self):
        for match in re.finditer(
            r"`benchmarks/(bench_\w+\.py)`", _read("DESIGN.md")
        ):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(0)

    def test_inventory_packages_exist(self):
        design = _read("DESIGN.md")
        for pkg in ("runtime", "mpi", "localview", "core", "ops", "rsmpi",
                    "arrays", "prefix", "nas", "analysis", "algorithms"):
            assert pkg in design
            assert (ROOT / "src" / "repro" / pkg / "__init__.py").exists(), pkg


class TestExperiments:
    def test_every_benchmark_file_is_documented(self):
        exp = _read("EXPERIMENTS.md") + _read("README.md")
        for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
            assert bench.name in exp, (
                f"{bench.name} has no entry in EXPERIMENTS.md or README.md"
            )

    def test_commands_reference_existing_files(self):
        for match in re.finditer(
            r"pytest (benchmarks/bench_\w+\.py)", _read("EXPERIMENTS.md")
        ):
            assert (ROOT / match.group(1)).exists(), match.group(0)


def _audited_callables():
    """The entry points whose options EX-KNOBS audits."""
    from repro.core.fusion import ReductionBucket, global_reduce_many
    from repro.engine import Engine, RetryPolicy
    from repro.mpi.comm import Communicator
    from repro.runtime import spmd_run
    from repro.runtime.procworld import ProcPool

    return {
        "spmd_run": spmd_run,
        "Engine": Engine,
        "Engine.submit": Engine.submit,
        "Engine.shutdown": Engine.shutdown,
        "RetryPolicy": RetryPolicy,
        "ProcPool": ProcPool,
        "ReductionBucket": ReductionBucket,
        "global_reduce_many": global_reduce_many,
    }


class TestApiDoc:
    def test_documented_names_importable(self):
        """Spot-check the api.md tables: the named operators must exist."""
        import repro.nas as nas
        import repro.ops as ops

        doc = _read("docs/api.md")
        for name in re.findall(r"`(\w+Op)\b", doc):
            if name in ("ReduceScanOp", "ChapelOp", "UfuncOp"):
                continue
            assert hasattr(ops, name) or hasattr(nas, name), (
                f"docs/api.md names missing {name}"
            )

    def test_library_operator_names_current(self):
        from repro.rsmpi import operator_names

        doc = _read("docs/api.md")
        for name in operator_names():
            assert name in doc, f"library operator {name!r} not in api.md"


    def test_entry_point_signatures_are_the_code(self):
        """Every full signature of an audited callable quoted in api.md
        lists exactly the parameters of the function, in order — a
        removed option cannot live on in the docs, a new one cannot go
        undocumented.  Elided forms (`Engine(..., telemetry=True)`) are
        examples, not signatures, and are skipped."""
        targets = _audited_callables()
        doc = " ".join(_read("docs/api.md").split())
        seen = set()
        names = "|".join(re.escape(n) for n in targets)
        for name, params in re.findall(rf"`({names})\(([^`)]*)\)`", doc):
            if "..." in params:
                continue
            documented = [
                re.match(r"\w+", p.strip()).group()
                for p in params.split(",") if p.strip() != "*"
            ]
            actual = [
                p for p in inspect.signature(targets[name]).parameters
                if p != "self"
            ]
            assert documented == actual, f"docs/api.md: {name}(...) drifted"
            seen.add(name)
        assert seen == set(targets)

    def test_operator_protocol_table_is_the_base_class(self):
        """The protocol table in api.md names exactly the public members
        of ``ReduceScanOp`` — a new declared attribute (``tile_exact``)
        cannot go undocumented, a removed one cannot live on."""
        from repro.core.operator import ReduceScanOp

        section = _read("docs/api.md").split("## The operator protocol")[1]
        table = section.split("\n## ")[0]
        documented = set()
        for first_cell in re.findall(r"^\| (`.+?) \|", table, flags=re.M):
            documented.update(re.findall(r"`(\w+)`", first_cell))
        actual = {n for n in vars(ReduceScanOp) if not n.startswith("_")}
        assert documented == actual

    def test_every_keyword_has_a_row_in_the_knob_audit(self):
        """EX-KNOBS' remaining-options table names every keyword
        parameter of the audited callables, so the audit cannot drift:
        a new option needs a row saying who sets it and where it wins."""
        table = _read("EXPERIMENTS.md").split("**Remaining options.**")[1]
        table = table.split("\n\n")[1]  # the block after the heading
        audited = {}  # owner as the first cell writes it -> its keywords
        for first_cell in re.findall(r"^\| (.+?) \|", table, flags=re.M):
            for owner, params in re.findall(r"`([\w.]+)\(([^`]*)\)`", first_cell):
                audited.setdefault(owner, set()).update(
                    re.findall(r"(\w+)=", params)
                )
        for name, fn in _audited_callables().items():
            keywords = {
                p.name for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty
            }
            owner = "submit" if name == "Engine.submit" else name
            missing = keywords - audited.get(owner, set())
            assert not missing, f"EX-KNOBS has no row for {name}({missing})"


class TestScheduleRegistryDocs:
    """docs/ can only name schedules the registry has."""

    @staticmethod
    def _render() -> str:
        from repro.mpi.collectives import SCHEDULES, schedules

        def mark(flag: bool) -> str:
            return "yes" if flag else "–"

        rows = [
            "| kind | `algorithm=` name | plan | order-preserving | "
            "segments | radix | fabric-only | resumable |",
            "|---|---|---|---|---|---|---|---|",
        ]
        rows += [
            f'| `{s.kind}` | `"{s.name}"` | `{s.plan.__name__}` | '
            f"{mark(s.order_preserving)} | {mark(s.segments)} | "
            f"{mark(s.radix)} | {mark(s.groups)} | {mark(s.resumable)} |"
            for kind in SCHEDULES
            for s in schedules(kind)
        ]
        return "\n".join(rows)

    def test_api_schedule_table_is_the_registry(self):
        doc = _read("docs/api.md")
        begin, end = "<!-- schedule-table:begin -->", "<!-- schedule-table:end -->"
        table = doc.split(begin)[1].split(end)[0].strip()
        assert table == self._render(), (
            "docs/api.md schedule table is stale; regenerate it with "
            "TestScheduleRegistryDocs._render()"
        )

    def test_quoted_algorithm_names_are_registered(self):
        from repro.mpi.collectives import REMOVED, SCHEDULES

        registered = {"auto"} | {n for kind in SCHEDULES.values() for n in kind}
        removed = {name for _, name in REMOVED}
        for path in sorted((ROOT / "docs").glob("*.md")):
            quoted = set()
            # algorithm="a"|"b"|... lists and single algorithm="a" pins
            for run in re.findall(r'algorithm=((?:"\w+"\|?)+)', path.read_text()):
                quoted.update(re.findall(r'"(\w+)"', run))
            unknown = quoted - registered - removed
            assert not unknown, f"{path.name} quotes unregistered {unknown}"

    def test_docs_name_no_deleted_twin(self):
        """The blocking twins are gone; docs must name the plan forms."""
        from repro.mpi import collectives

        text = "".join(
            p.read_text()
            for p in [*(ROOT / "docs").glob("*.md"), ROOT / "README.md",
                      ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
        )
        for plan in collectives.__all__:
            twin = plan.removesuffix("_plan")
            if twin != plan and "_" in twin:  # "allgather" is just a word
                assert not re.search(rf"\b{twin}\b", text), twin


class TestNoEnvironmentSwitches:
    """The package is configured by arguments alone: a result or a fitted
    table can depend on nothing the call site does not show."""

    def test_package_reads_no_environment_variable(self):
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            assert not re.search(r"\benviron\b|\bgetenv\b", path.read_text()), (
                f"{path.relative_to(ROOT)} reads the environment"
            )

    def test_user_docs_and_ci_name_no_repro_variable(self):
        # EXPERIMENTS, CHANGES and ROADMAP are history and may name what
        # was removed.
        paths = [
            ROOT / "README.md",
            *sorted((ROOT / "docs").glob("*.md")),
            *sorted((ROOT / ".github").rglob("*.yml")),
        ]
        for path in paths:
            named = re.findall(r"\bREPRO_[A-Z_]+", path.read_text())
            assert not named, f"{path.relative_to(ROOT)} names {named}"


class TestMetricCatalogue:
    """docs/observability.md lists every metric an engine exports, and
    nothing an engine does not."""

    @staticmethod
    def _documented() -> set[str]:
        doc = _read("docs/observability.md")
        table = doc.split("### Metric catalogue")[1].split("\n### ")[0]
        names: set[str] = set()
        for row in re.findall(r"^\| (`[^|]+) \|", table, flags=re.M):
            first, *rest = re.findall(r"`([\w.]+)`", row)
            names.add(first)
            # "`a.b.hits` / `.misses`" abbreviates a.b.misses.
            names.update(first.rsplit(".", 1)[0] + tail for tail in rest)
        return names

    def test_catalogue_is_what_live_engines_export(self):
        from repro.engine import Engine
        from repro.runtime.fabric import multi_node

        exported: set[str] = set()
        for options in (
            {}, {"topology": multi_node(2)}, {"backend": "process"},
        ):
            with Engine(2, telemetry=True, **options) as engine:
                engine.submit(lambda comm: comm.rank).result()
                metrics = engine.telemetry.snapshot()["metrics"]
            for kind in ("counters", "gauges", "histograms"):
                exported.update(metrics[kind])
        assert self._documented() == exported
