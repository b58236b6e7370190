"""``python -m repro top`` — live terminal dashboard over engine telemetry.

Polls the ``/snapshot.json`` endpoint that ``python -m repro serve
--metrics-port P`` (a :class:`~repro.engine.metrics_http.MetricsServer`)
exposes, and renders one screenful per refresh: queue depth, inflight
jobs, free ranks, per-rank utilization bars, the lifecycle counters and
the p50/p95/p99 latency tails.  ``--once`` prints a single frame and
exits — what the CI smoke uses; without it the screen refreshes every
``--interval`` seconds until interrupted.

The renderer (:func:`render_frame`) is a pure snapshot-dict → str
function, so tests can drive it without a socket.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any

__all__ = ["run_top", "render_frame", "fetch_snapshot"]

_BAR_WIDTH = 24
_CLEAR = "\x1b[2J\x1b[H"  # clear screen + home cursor


def fetch_snapshot(url: str, timeout: float = 5.0) -> dict[str, Any]:
    """GET ``<url>/snapshot.json`` and parse the telemetry frame."""
    with urllib.request.urlopen(
        url.rstrip("/") + "/snapshot.json", timeout=timeout
    ) as resp:
        return json.loads(resp.read().decode())


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_seconds(value: Any) -> str:
    if value is None:
        return "    -"
    value = float(value)
    if value >= 1.0:
        return f"{value:7.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:6.2f}ms"
    return f"{value * 1e6:6.1f}us"


def render_frame(frame: dict[str, Any]) -> str:
    """One telemetry snapshot frame as a dashboard screen (plain text)."""
    if not frame or frame.get("enabled") is False:
        return "repro top: telemetry disabled on the serving engine\n"
    lines: list[str] = []
    uptime = frame.get("uptime_s", 0.0)
    nprocs = frame.get("nprocs", 0)
    lines.append(
        f"repro engine top — pool {nprocs} ranks, up {uptime:.1f}s"
    )
    metrics = frame.get("metrics", {})
    gauges = metrics.get("gauges", {})
    counters = metrics.get("counters", {})
    lines.append(
        "  queue {:>4}   inflight {:>4}   free ranks {:>4}".format(
            int(gauges.get("engine.queue.depth", 0) or 0),
            int(gauges.get("engine.jobs.inflight", 0) or 0),
            int(gauges.get("engine.ranks.free", 0) or 0),
        )
    )
    lines.append(
        "  jobs: {} submitted, {} completed, {} failed, {} cancelled, "
        "{} rejected".format(
            counters.get("engine.jobs.submitted", 0),
            counters.get("engine.jobs.completed", 0),
            counters.get("engine.jobs.failed", 0),
            counters.get("engine.jobs.cancelled", 0),
            counters.get("engine.jobs.rejected", 0),
        )
    )
    eng = frame.get("engine")
    if eng and "effective_capacity" in eng:
        degraded = " ** DEGRADED **" if eng.get("degraded") else ""
        lines.append(
            "  capacity: {}/{} ranks schedulable ({} quarantined){}".format(
                eng["effective_capacity"], eng.get("nprocs", nprocs),
                len(eng.get("quarantined_ranks", [])), degraded,
            )
        )
        lines.append(
            "  self-heal: {} retries, {} quarantines, {} revivals, "
            "{} reaped".format(
                eng.get("retried", 0), eng.get("quarantines", 0),
                eng.get("revivals", 0), eng.get("reaped", 0),
            )
        )
    cache_hits = gauges.get("engine.schedule_cache.hits")
    if cache_hits is not None:
        rate = gauges.get("engine.schedule_cache.hit_rate", 0.0) or 0.0
        lines.append(
            "  schedule cache: {} hits / {} misses (hit rate {:.3f})".format(
                int(cache_hits),
                int(gauges.get("engine.schedule_cache.misses", 0) or 0),
                rate,
            )
        )
    kernel_hits = gauges.get("engine.kernel_cache.hits")
    if kernel_hits is not None:
        rate = gauges.get("engine.kernel_cache.hit_rate", 0.0) or 0.0
        lines.append(
            "  kernel cache:   {} hits / {} misses (hit rate {:.3f})".format(
                int(kernel_hits),
                int(gauges.get("engine.kernel_cache.misses", 0) or 0),
                rate,
            )
        )
    backend = (eng or {}).get("backend")
    if backend is not None:
        lines.append(f"  backend: {backend}")
    ipc_frames = gauges.get("backend.ipc.frames")
    if ipc_frames is not None:
        total = (
            int(gauges.get("backend.ipc.shm_hits", 0) or 0)
            + int(gauges.get("backend.ipc.pickle_fallbacks", 0) or 0)
        )
        shm = int(gauges.get("backend.ipc.shm_hits", 0) or 0)
        cov = shm / total if total else 0.0
        lines.append(
            "  backend ipc: {} frames, {} bytes, {} shm hits / "
            "{} pickle fallbacks (zero-copy {:.0%})".format(
                int(ipc_frames),
                int(gauges.get("backend.ipc.bytes", 0) or 0),
                shm,
                int(gauges.get("backend.ipc.pickle_fallbacks", 0) or 0),
                cov,
            )
        )
    lines.append("")
    lines.append("  rank utilization (busy fraction since start)")
    util = frame.get("utilization", [])
    jobs_per_rank = frame.get("jobs_per_rank", [0] * len(util))
    for rank, fraction in enumerate(util):
        jobs = jobs_per_rank[rank] if rank < len(jobs_per_rank) else 0
        lines.append(
            f"    rank {rank:>2} [{_bar(fraction)}] "
            f"{fraction * 100:5.1f}%  {jobs} jobs"
        )
    lines.append("")
    lines.append("  latency            p50       p95       p99     count")
    hists = metrics.get("histograms", {})
    for short, name in (
        ("queue wait", "engine.job.queue_wait_seconds"),
        ("exec", "engine.job.exec_seconds"),
        ("end-to-end", "engine.job.e2e_seconds"),
        ("virtual", "engine.job.virtual_seconds"),
    ):
        summary = hists.get(name)
        if summary is None:
            continue
        lines.append(
            "    {:<12} {} {} {} {:>9}".format(
                short,
                _fmt_seconds(summary.get("p50")),
                _fmt_seconds(summary.get("p95")),
                _fmt_seconds(summary.get("p99")),
                summary.get("count", 0),
            )
        )
    drops = frame.get("interval_drops", 0)
    if drops:
        lines.append(f"\n  (busy-interval ring dropped {drops} intervals)")
    return "\n".join(lines) + "\n"


def run_top(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro top",
        description="Live dashboard over a serving engine's telemetry "
        "(pair with `python -m repro serve --metrics-port P`).",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="metrics endpoint base URL (overrides --host/--port)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="metrics endpoint host (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=9464, metavar="P",
        help="metrics endpoint port (default: 9464)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh interval in seconds (default: 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )
    ns = parser.parse_args(argv)
    url = ns.url if ns.url is not None else f"http://{ns.host}:{ns.port}"

    try:
        while True:
            try:
                frame = fetch_snapshot(url)
            except (urllib.error.URLError, OSError) as exc:
                print(
                    f"repro top: cannot reach {url}/snapshot.json ({exc}); "
                    "is `python -m repro serve --metrics-port` running?",
                    file=sys.stderr,
                )
                return 1
            text = render_frame(frame)
            if ns.once:
                sys.stdout.write(text)
                return 0
            sys.stdout.write(_CLEAR + text)
            sys.stdout.flush()
            time.sleep(ns.interval)
    except KeyboardInterrupt:
        print()
        return 0
