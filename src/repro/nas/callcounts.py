"""MPI call census over the NAS kernels.

The paper motivates reductions with a statistic: "In the NAS Parallel
Benchmarks (NPB) version 3.2, nearly 9% of the MPI calls are
reductions."  We reproduce the *methodology* on our own NAS kernels:
every communicator records its collective and point-to-point calls in
its trace, and :func:`census` classifies them.

Two views are reported:

* **static** — distinct call sites, which is how such statistics are
  usually counted over a source tree;
* **dynamic** — executed calls of a run (per rank), which weights the
  loops.

The MPI ZRAN3 variant alone runs 40 reductions against a handful of
other calls — the imbalance the paper's Figure 3 exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.trace import Trace, merge_traces

__all__ = ["CallCensus", "census"]


@dataclass(frozen=True)
class CallCensus:
    """Classified communication-call counts."""

    collective_calls: dict[str, int]
    p2p_calls: dict[str, int]
    #: The entries of ``collective_calls`` whose *kind* is a reduction.
    reduction_calls: dict[str, int]

    @property
    def n_total(self) -> int:
        return sum(self.collective_calls.values()) + sum(self.p2p_calls.values())

    @property
    def n_reductions(self) -> int:
        return sum(self.reduction_calls.values())

    @property
    def reduction_fraction(self) -> float:
        total = self.n_total
        return self.n_reductions / total if total else 0.0

    def format(self, title: str = "MPI call census") -> str:
        lines = [title, "-" * len(title)]
        for name, count in sorted(
            self.collective_calls.items(), key=lambda kv: -kv[1]
        ):
            tag = "  <- reduction" if name in self.reduction_calls else ""
            lines.append(f"  {name:<12s} {count:8d}{tag}")
        for name, count in sorted(self.p2p_calls.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {name:<12s} {count:8d}")
        lines.append(
            f"  reductions: {self.n_reductions}/{self.n_total} calls "
            f"= {100.0 * self.reduction_fraction:.1f}%"
        )
        return "\n".join(lines)


def census(traces: list[Trace], *, per_rank: bool = True) -> CallCensus:
    """Classify the communication calls recorded in an SPMD run's traces.

    ``per_rank=True`` (default) divides by the rank count, approximating
    the program's call profile (every rank executes the same SPMD call
    sites); ``False`` counts raw totals.
    """
    merged = merge_traces(traces)
    n = len(traces) if per_rank and traces else 1

    def per_program(calls: dict[str, int]) -> dict[str, int]:
        return {name: round(c / n) for name, c in calls.items()}

    calls = merged.collective_calls, merged.p2p_calls, merged.reduction_calls
    return CallCensus(*map(per_program, calls))
