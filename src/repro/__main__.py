"""``python -m repro`` — tour and profiling entry points.

* ``python -m repro [NPROCS] [--trace PATH]`` — the 30-second tour of
  the reproduction: runs the paper's worked examples on simulated ranks
  and points at the deeper entry points.  ``--trace`` additionally
  captures a span profile of the tour and writes it as a Chrome/Perfetto
  trace.
* ``python -m repro profile TARGET [--ranks N] [--format F] [--out P]``
  — run an example script or a benchmark under the phase tracer and
  export the profile (text report, JSONL records, or a Chrome trace).
* ``python -m repro tune [--out P] [--bench P] [--dry-run] ...`` — re-fit
  the collective algorithm decision table (:mod:`repro.mpi.tuning`) by
  simulating every candidate algorithm over a rank/payload grid; emits
  the fitted table as JSON plus a BENCH json of the full measurement
  grid (``--dry-run``: print the table, write nothing).
* ``python -m repro chaos [--seeds N] [--ranks P ...] [--ops NAME ...]
  [--out P]`` — soak-test every operator in
  ``repro.ops`` under random seeded fault plans (lossy links and
  combine-phase fail-stops) and check results against failure-free
  baselines (:mod:`repro.faults.chaos`).
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
from pathlib import Path

# Each subcommand imports what it runs inside its handler, after its
# arguments parse: ``--help`` loads neither numpy nor the runtime.

PAPER_DATA = [6, 7, 6, 3, 8, 2, 8, 4, 8, 3]


def _split(data, p, r):
    base, extra = divmod(len(data), p)
    lo = r * base + min(r, extra)
    return data[lo : lo + base + (1 if r < extra else 0)]


def _cmd_tour(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="30-second tour of the reproduction.",
    )
    parser.add_argument(
        "nprocs", nargs="?", type=int, default=4,
        help="simulated ranks to run on (default 4)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="capture a span profile of the tour and write it as a "
        "Chrome/Perfetto trace to PATH",
    )
    ns = parser.parse_args(argv)
    nprocs = ns.nprocs

    import numpy as np

    from repro import __version__, global_reduce, global_scan, spmd_run
    from repro.ops import CountsOp, MinKOp, SortedOp, SumOp
    from repro.rsmpi import RSMPI_Reduceall, load_operator

    print(f"repro {__version__} — Deitz et al., PPoPP 2006, reproduced")
    print(f"paper data {PAPER_DATA} over {nprocs} simulated ranks:\n")

    def program(comm):
        local = _split(PAPER_DATA, comm.size, comm.rank)
        total = global_reduce(comm, SumOp(), local)
        running = global_scan(comm, SumOp(), local)
        counts = global_reduce(comm, CountsOp(8), local)
        ranks = global_scan(comm, CountsOp(8), local)
        ordered = global_reduce(comm, SortedOp(), local)
        mins = global_reduce(
            comm, MinKOp(3, np.iinfo(np.int64).max), local
        )
        dsl_sorted = RSMPI_Reduceall(load_operator("sorted"), local, comm)
        return total, running, counts, ranks, ordered, mins, dsl_sorted

    tracer = None
    if ns.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    res = spmd_run(program, nprocs, tracer=tracer)
    total, _, counts, _, ordered, mins, dsl_sorted = res.returns[0]
    running = [v for r in res.returns for v in r[1]]
    ranks = [v for r in res.returns for v in r[3]]
    print(f"  sum reduce        : {total}")
    print(f"  sum scan          : {[int(v) for v in running]}")
    print(f"  counts reduce     : {counts.tolist()}")
    print(f"  counts scan       : {ranks}")
    print(f"  sorted? (native)  : {ordered}")
    print(f"  sorted? (DSL op)  : {bool(dsl_sorted)}")
    print(f"  mink(3)           : {mins.tolist()}")
    print(f"\nsimulated time: {res.time * 1e6:.1f} us, "
          f"{res.summary_trace.n_sends} messages, deterministic")
    if tracer is not None:
        from repro.analysis import write_chrome_trace

        write_chrome_trace(tracer, ns.trace)
        print(f"trace written to {ns.trace} (open in Perfetto)")
    print("\nnext: python examples/quickstart.py | "
          "python -m repro profile examples/quickstart.py | "
          "pytest benchmarks/ | docs/")
    return 0


def _is_benchmark_target(target: str) -> bool:
    """A pytest node id or file under ``benchmarks/`` (vs. a script)."""
    base = Path(target.split("::", 1)[0])
    if base.name.startswith("bench_") or base.name == "benchmarks":
        return True
    return "benchmarks" in base.parts


def _cmd_profile(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run an example script or benchmark under the phase "
        "tracer and export the profile.",
    )
    parser.add_argument(
        "target",
        help="an example script (path to a .py file) or a benchmark "
        "(pytest path/node id under benchmarks/)",
    )
    parser.add_argument(
        "args", nargs="*",
        help="extra argv passed to an example script",
    )
    parser.add_argument(
        "--ranks", type=int, default=None,
        help="force every spmd_run in the target onto this many ranks",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("chrome", "jsonl", "text"),
        default="text", help="export format (default: text)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: stdout for text, "
        "<target>.profile.jsonl for jsonl, <target>.trace.json for chrome)",
    )
    ns = parser.parse_args(argv)

    from repro.obs import Tracer, dumps_jsonl, format_text_report, profiling

    if not Path(ns.target.split("::", 1)[0]).exists():
        parser.error(f"target not found: {ns.target}")

    tracer = Tracer()
    with profiling(tracer, ranks=ns.ranks):
        if _is_benchmark_target(ns.target):
            import pytest

            rc = pytest.main(
                [ns.target, "-q", "-p", "no:cacheprovider", *ns.args]
            )
            if rc not in (0, pytest.ExitCode.NO_TESTS_COLLECTED):
                print(f"profile: target exited with pytest code {rc}",
                      file=sys.stderr)
        else:
            saved_argv = sys.argv
            sys.argv = [ns.target, *ns.args]
            try:
                runpy.run_path(ns.target, run_name="__main__")
            finally:
                sys.argv = saved_argv

    if not tracer.runs:
        print("profile: target completed but no spmd_run was traced",
              file=sys.stderr)
        return 1

    if ns.fmt == "text":
        text = format_text_report(tracer)
        if ns.out:
            Path(ns.out).write_text(text)
            print(f"profile written to {ns.out}")
        else:
            sys.stdout.write(text)
    elif ns.fmt == "jsonl":
        # The target's own stdout would corrupt a piped stream, so jsonl
        # always goes to a file.
        out = ns.out or (Path(ns.target.split("::", 1)[0]).stem
                         + ".profile.jsonl")
        Path(out).write_text(dumps_jsonl(tracer))
        print(f"profile written to {out}")
    else:  # chrome
        from repro.analysis import tracer_to_chrome_trace

        out = ns.out or (Path(ns.target.split("::", 1)[0]).stem
                         + ".trace.json")
        with open(out, "w") as f:
            json.dump(tracer_to_chrome_trace(tracer), f)
        print(f"chrome trace written to {out} (open in Perfetto)")
    return 0


def _cmd_tune(argv: list[str]) -> int:
    from repro.mpi import tuning  # the help text quotes its default grid

    parser = argparse.ArgumentParser(
        prog="python -m repro tune",
        description="Re-fit the collective algorithm decision table by "
        "simulating every candidate over a rank/payload grid.",
    )
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=None, metavar="P",
        help="rank counts to fit over (default: %s)"
        % (tuning.DEFAULT_RANK_GRID,),
    )
    parser.add_argument(
        "--payloads", type=int, nargs="+", default=None, metavar="BYTES",
        help="payload sizes in bytes (default: 8 B .. 2 MiB, powers of 4)",
    )
    parser.add_argument(
        "--out", default="results/decision_table.json",
        help="where to write the fitted table "
        "(default: results/decision_table.json)",
    )
    parser.add_argument(
        "--bench", default="results/BENCH_tune_decision_table.json",
        help="where to write the full measurement grid "
        "(default: results/BENCH_tune_decision_table.json)",
    )
    parser.add_argument(
        "--topology", default=None, metavar="SPEC",
        help="fabric to fit against: 'flat' (default), 'multi_node:R' or "
        "'fat_tree:RxN[xO]' (repro.runtime.fabric.parse_topology); a "
        "non-flat fit adds the registry's fabric-only candidates "
        "(the hierarchical allreduce) and writes "
        "topology-suffixed output files",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="print the fitted table without writing any files",
    )
    ns = parser.parse_args(argv)

    topology = None
    if ns.topology is not None:
        from repro.runtime.fabric import parse_topology

        topology = parse_topology(ns.topology)
        if topology.is_flat:
            topology = None

    rank_grid = ns.ranks or tuning.DEFAULT_RANK_GRID
    payload_grid = ns.payloads or tuning.DEFAULT_PAYLOAD_GRID

    topo_sig = topology.signature if topology is not None else "flat"
    print(
        f"fitting decision table over ranks={list(rank_grid)}, "
        f"payloads={list(payload_grid)}, topology={topo_sig} ..."
    )
    table, report = tuning.fit_decision_table(
        rank_grid=rank_grid, payload_grid=payload_grid, topology=topology
    )
    doc = table.to_dict()
    print(json.dumps(doc, indent=2))
    print("fitted radix bands (doubling allreduce / binomial scan fan-out):")
    lo_ranks = 1
    for band in doc["radix"]:  # None = unbounded
        top = band["max_ranks"]
        spans = ", ".join(
            f"radix {k} " + ("above" if mb is None else f"<= {mb} B")
            for mb, k in band["cutoffs"]
        )
        ranks = f">= {lo_ranks}" if top is None else f"{lo_ranks}..{top}"
        print(f"  ranks {ranks}: {spans}")
        lo_ranks = None if top is None else top + 1
    n_cells = sum(len(v) for v in report["grid"].values())
    print(f"({n_cells} simulated grid cells)")
    if ns.dry_run:
        print("dry run: nothing written")
        return 0
    if topology is not None:
        # Keep the flat table's filenames stable: per-fabric fits write
        # alongside them with the signature in the name.
        suffix = topo_sig.replace(":", "_").replace("x", "x")
        if ns.out == parser.get_default("out"):
            ns.out = f"results/decision_table_{suffix}.json"
        if ns.bench == parser.get_default("bench"):
            ns.bench = f"results/BENCH_tune_decision_table_{suffix}.json"
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table.to_dict(), indent=2) + "\n")
    bench = Path(ns.bench)
    bench.parent.mkdir(parents=True, exist_ok=True)
    bench.write_text(json.dumps(report, indent=2) + "\n")
    print(f"table written to {out}")
    print(f"measurement grid written to {bench}")
    print(
        "load it with repro.mpi.tuning.load_decision_table"
        f"({str(out)!r}) to make algorithm='auto' use it"
    )
    return 0


def _cmd_chaos(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Soak-test every operator under seeded fault plans "
        "and check results against failure-free baselines.",
    )
    parser.add_argument(
        "--seeds", type=int, default=20, metavar="N",
        help="number of seeds per (operator, size) cell (default: 20)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="S",
        help="first seed; seeds are S..S+N-1 (default: 0)",
    )
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=None, metavar="P",
        help="rank counts to test (default: 4 8 16)",
    )
    parser.add_argument(
        "--ops", nargs="+", default=None, metavar="NAME",
        help="restrict to these case names (default: all)",
    )
    parser.add_argument(
        "--modes", nargs="+", choices=("lossy", "failstop"), default=None,
        help="fault modes to run (default: both)",
    )
    parser.add_argument(
        "--elements", type=int, default=6, metavar="N",
        help="input elements per rank (default: 6)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the full per-trial results as JSON to PATH",
    )
    ns = parser.parse_args(argv)

    from dataclasses import asdict

    from repro.faults.chaos import (
        CHAOS_CASES,
        chaos_report_lines,
        run_chaos,
    )

    sizes = tuple(ns.ranks) if ns.ranks else (4, 8, 16)
    seeds = range(ns.seed_base, ns.seed_base + ns.seeds)
    cases = CHAOS_CASES
    if ns.ops:
        by_name = {c.name: c for c in CHAOS_CASES}
        unknown = [n for n in ns.ops if n not in by_name]
        if unknown:
            parser.error(
                f"unknown ops {unknown}; choose from {sorted(by_name)}"
            )
        cases = tuple(by_name[n] for n in ns.ops)
    modes = tuple(ns.modes) if ns.modes else ("lossy", "failstop")

    n_cells = len(cases) * len(sizes) * ns.seeds * len(modes)
    print(
        f"chaos soak: {len(cases)} operators x ranks {list(sizes)} x "
        f"{ns.seeds} seeds x modes {list(modes)} = {n_cells} trials"
    )
    results = run_chaos(
        seeds=list(seeds), sizes=sizes, n_per_rank=ns.elements,
        cases=cases, modes=modes,
    )
    print("\n".join(chaos_report_lines(results)))
    if ns.out:
        out = Path(ns.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps([asdict(r) for r in results], indent=2) + "\n"
        )
        print(f"per-trial results written to {out}")
    return 0 if all(r.ok for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    """Dispatch to the tour, profiler, tuner or chaos soak; returns exit
    code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        return _cmd_profile(argv[1:])
    if argv and argv[0] == "tune":
        return _cmd_tune(argv[1:])
    if argv and argv[0] == "chaos":
        return _cmd_chaos(argv[1:])
    return _cmd_tour(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
