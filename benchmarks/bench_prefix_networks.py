"""EX-PREFIX — the parallel-prefix design space (§1 / reference [11]).

Scans "are efficiently implemented by the parallel-prefix algorithm":
this bench maps the depth/size trade-off of the classic networks and
relates it to modeled scan latency — depth costs rounds of latency,
size costs combine work — and evaluates the work-efficient network on
real data.
"""

from __future__ import annotations

import operator

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis import format_table
from repro.prefix import ALL_NETWORKS

NS = [64, 256, 1024]

#: A LogGP-flavored circuit latency model: every level costs one message
#: latency; every op costs one combine.
LATENCY = 5.0e-6
COMBINE = 2.0e-7


def record() -> list[tuple[int, str, int, int, float]]:
    """(n, network, depth, size, modeled latency)."""
    rows = []
    for n in NS:
        for name, ctor in sorted(ALL_NETWORKS.items()):
            c = ctor(n)
            t_model = c.depth * LATENCY + c.size * COMBINE / max(
                1, n // 8
            )  # combines spread over n/8 lanes
            rows.append((n, name, c.depth, c.size, t_model))
    return rows


def test_prefix_design_space(results_dir):
    rows = record()
    table = format_table(
        ["n", "network", "depth", "size", "t_model"],
        [[n, name, d, s, f"{t:.3e}"] for n, name, d, s, t in rows],
        title="EX-PREFIX — prefix-network depth/size and modeled scan latency",
    )
    write_result(results_dir, "prefix_networks.txt", table)

    by = {(n, name): (d, s) for n, name, d, s, _ in rows}
    for n in NS:
        k = int(np.log2(n))
        assert by[(n, "kogge_stone")][0] == k
        assert by[(n, "serial")][0] == n - 1
        # Brent–Kung does the least work of the parallel networks
        sizes = {
            name: by[(n, name)][1]
            for name in ("kogge_stone", "sklansky", "brent_kung")
        }
        assert sizes["brent_kung"] < sizes["sklansky"] < sizes["kogge_stone"]

    vals = list(range(1024))
    result = ALL_NETWORKS["brent_kung"](1024).evaluate(vals, operator.add)
    assert result[-1] == sum(vals)
