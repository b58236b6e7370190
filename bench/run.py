"""The repository's benchmark: one workload, one pinned process, every
result checked, every metric printed by name with its unit.

    python3 bench/run.py --workload small_jobs --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload small_jobs --seed 1 --seconds 28 --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that attributes a job's latency
to the layers (``probes.py``) and prints the per-layer metrics.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the full record with the
host fingerprint.  See ``README.md`` for the protocol and the reasons.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)   # the program under test, run from source

import host  # noqa: E402  (sibling modules: bench/ is the script's sys.path[0])
import stats  # noqa: E402
import workloads  # noqa: E402

now = time.perf_counter

#: Timed windows per run; even ones are latency windows (one job in
#: flight), odd ones throughput windows (``queue_depth`` jobs queued).
N_WINDOWS = 12
#: Share of ``--seconds`` the traced run spends in timed windows; the
#: probes take about 6 s more.  Enough for 200 plain one-in-flight
#: latencies (the median's quota) from a 25 ms job.
TRACE_WINDOW_SHARE = 0.75


# --------------------------------------------------------------------------
# Running jobs and accounting for every one of them.


@dataclass
class Tally:
    """Jobs attempted and failed, plus the values that must repeat
    exactly from job to job."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    makespans: set[float] = field(default_factory=set)
    sends: set[int] = field(default_factory=set)
    nbytes: set[int] = field(default_factory=set)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def split_latency(marks: dict[str, float], stamps: list[Any], t_end: float) -> dict[str, float]:
    """Cut one job's latency into contiguous segments that sum to it.

    Boundaries come from the client (``marks``), from the ranks' own
    enter/exit stamps, and from ``t_end`` (result verified).  A boundary
    that an earlier one already passed — a rank entering the body before
    ``submit`` returned to the client — collapses to zero width, so the
    segments never overlap and never leave a remainder."""
    edge = marks["call"]
    segments: dict[str, float] = {}

    def cut(name: str, t: float) -> None:
        nonlocal edge
        t = max(t, edge)
        segments[name] = t - edge
        edge = t

    if "construct_end" in marks:
        cut("engine.construct", marks["construct_end"])
    cut("engine.submit", marks["submit_ret"])
    cut("engine.dispatch", min(s.t_in for s in stamps))
    cut("job.body", max(s.t_out for s in stamps))
    cut("engine.finalize", marks["result_ret"])
    if "shutdown_end" in marks:
        cut("engine.shutdown", marks["shutdown_end"])
    cut("client.verify", t_end)
    return segments


@dataclass
class TraceSamples:
    """What the traced jobs of one run recorded."""

    latencies: list[float] = field(default_factory=list)
    segments: dict[str, list[float]] = field(default_factory=dict)
    wake_skew: list[float] = field(default_factory=list)
    overhead_share: list[float] = field(default_factory=list)
    body_wait_share: list[float] = field(default_factory=list)
    max_residual_s: float = 0.0


class Driver:
    """The load generator: one thread, closed loop, every job verified."""

    def __init__(self, runner: workloads.Runner, tally: Tally):
        self.runner, self.tally = runner, tally
        self.samples = TraceSamples()
        self.spin_mops: list[float] = []   # one reading after every window

    # -- one job ---------------------------------------------------------------

    def submit(self, fn: Callable[[Any], Any]):
        self.tally.attempted += 1
        return self.runner.submit(fn)

    def finish(self, handle, stamped: bool = False) -> bool:
        """Wait for one job, verify it against the oracle, account."""
        try:
            result = handle.result()
        except Exception as exc:   # a failed job is counted, not fatal
            self.tally.fail(f"{type(exc).__name__}: {exc}")
            return False
        return self.check(result, stamped)

    def check(self, result, stamped: bool) -> bool:
        returns = result.returns
        if stamped:
            returns = [s.value for s in returns]
        if not self.runner.verify(returns):
            self.tally.fail("result differs from the sequential-fold oracle")
            return False
        self.tally.makespans.add(result.time)
        return True

    def one_job(self, fn) -> float | None:
        """Submit, wait, verify: the latency, or None if the job failed."""
        t0 = now()
        ok = self.finish(self.submit(fn))
        return now() - t0 if ok else None

    def one_traced_job(self, fn) -> float | None:
        """Like :meth:`one_job` through ``Runner.traced_job`` with a
        stamped job function; records the segments of the latency."""
        tally, samples = self.tally, self.samples
        tally.attempted += 1
        outcome, marks = self.runner.traced_job(fn)
        if isinstance(outcome, Exception):
            tally.fail(f"{type(outcome).__name__}: {outcome}")
            return None
        if not self.check(outcome, stamped=True):
            return None
        t_end = now()
        stamps = outcome.returns
        latency = t_end - marks["call"]
        segments = split_latency(marks, stamps, t_end)
        samples.latencies.append(latency)
        for name, width in segments.items():
            samples.segments.setdefault(name, []).append(width)
        samples.max_residual_s = max(
            samples.max_residual_s, abs(sum(segments.values()) - latency))
        samples.overhead_share.append(1.0 - segments["job.body"] / latency)
        t_ins = [s.t_in for s in stamps]
        samples.wake_skew.append(max(t_ins) - min(t_ins))   # inside job.body
        in_body = sum(s.t_out - s.t_in for s in stamps)
        samples.body_wait_share.append(1.0 - sum(s.cpu_s for s in stamps) / in_body)
        trace = outcome.summary_trace
        tally.sends.add(trace.n_sends)
        tally.nbytes.add(trace.bytes_sent)
        return latency

    # -- one window ------------------------------------------------------------------

    def window(
        self,
        fn,
        kind: str,
        duration: float,
        latencies: list[float] | None = None,
        stamped: bool = False,
    ) -> float:
        """Run jobs of ``fn`` for ``duration`` seconds and return the
        window's verified jobs per second.  A ``"latency"`` window keeps
        one job in flight and appends each latency to ``latencies``; a
        ``"throughput"`` window keeps ``queue_depth`` jobs queued, then
        drains, so all the work counted is done between the two clock
        readings.  ``stamped`` says ``fn`` is a ``probes.stamped`` job
        function: one-in-flight jobs then go through
        :meth:`one_traced_job`.  The cyclic GC is off inside the window;
        it runs, and the host-speed indicator is read, after it."""
        done, start = 0, now()
        gc.disable()
        try:
            if kind == "latency" or self.runner.queue_depth == 1:
                job = self.one_traced_job if stamped else self.one_job
                elapsed = 0.0
                while elapsed < duration:
                    latency = job(fn)
                    elapsed = now() - start
                    if latency is not None:
                        done += 1
                        if latencies is not None:
                            latencies.append(latency)
            else:
                queue = deque(self.submit(fn) for _ in range(self.runner.queue_depth))
                while queue:
                    done += self.finish(queue.popleft(), stamped)
                    elapsed = now() - start
                    if elapsed < duration:
                        queue.append(self.submit(fn))
        finally:
            gc.enable()
        gc.collect()
        self.spin_mops.append(host.spin_mops())
        return done / elapsed

    def warm_up(self, fn, duration: float) -> None:
        """Pool, schedule cache and kernel cache hot before any window."""
        self.window(fn, "latency", duration / 2)
        self.window(fn, "throughput", duration / 2)


# --------------------------------------------------------------------------
# Set-up time: cold children.


def cold_setup(workload: str, seed: int, quick: bool) -> float:
    """Set-up time of one cold child process (see ``setup_child.py``).
    The child is waited for; one that fails or verifies a wrong first
    result fails the run."""
    command = [
        sys.executable, os.path.join(HERE, "setup_child.py"),
        "--workload", workload, "--seed", str(seed), "--src", SRC,
    ] + (["--quick"] if quick else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, cwd=HERE)
    if done.returncode != 0:
        raise RuntimeError(
            f"set-up child exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------------
# The two kinds of run.


@dataclass
class Report:
    metrics: dict[str, float]   # empty when too few jobs verified to state any
    attempted: int
    failed: int
    correct: bool
    record: dict[str, Any]


@dataclass
class Protocol:
    """The run protocol, full or (for the tests) quick."""

    warm_up_s: float
    min_beyond: int          # samples required beyond a reported percentile
    setup_children: int      # cold processes behind ``setup_s`` (median reported)


FULL = Protocol(warm_up_s=3.0, min_beyond=stats.MIN_BEYOND, setup_children=N_WINDOWS)
QUICK = Protocol(warm_up_s=0.2, min_beyond=1, setup_children=2)


def run_end_to_end(
    driver: Driver, seconds: float, proto: Protocol, seed: int, quick: bool,
) -> tuple[dict, dict]:
    runner, tally = driver.runner, driver.tally
    window_s = seconds / N_WINDOWS
    latencies: list[float] = []
    rates: list[float] = []
    setups: list[float] = []
    driver.warm_up(runner.body, proto.warm_up_s)
    for i in range(N_WINDOWS):
        # One cold child before each window (the resident ranks are
        # parked meanwhile): ``setup_s`` samples the host over the whole
        # run, not over the one stretch all children would share.
        if i < proto.setup_children:
            setups.append(cold_setup(runner.inputs.workload, seed, quick))
        kind = "latency" if i % 2 == 0 else "throughput"
        rate = driver.window(runner.body, kind, window_s, latencies)
        if kind == "throughput" or runner.queue_depth == 1:
            rates.append(rate)   # depth 1: every window is both kinds
    reported = {
        # Wall-clock throughput and latency: reported, not gated (README).
        # With no verified job these refuse to answer, and so does the run.
        "jobs_per_s": stats.median(rates),
        "job_latency_p50_ms": 1e3 * stats.pooled_percentile(
            latencies, 50, min_beyond=proto.min_beyond),
        "latency_samples": len(latencies),
        "window_jobs_per_s": rates,
        "child_setup_s": setups,
    }
    metrics = {
        "setup_s": stats.median(setups),
        "sim_makespan_us": 1e6 * max(tally.makespans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, reported


def run_traced(
    driver: Driver, seconds: float, quick: bool, proto: Protocol,
    allowed: list[int], pinned: int | None,
) -> tuple[dict, dict, bool]:
    import probes
    from repro.core.kernels import default_cache

    runner, tally, samples = driver.runner, driver.tally, driver.samples
    cycles = 4
    window_s = seconds * TRACE_WINDOW_SHARE / (4 * cycles)
    plain, traced = runner.body, probes.stamped(runner.body)
    plain_rates: list[float] = []
    traced_rates: list[float] = []
    plain_latencies: list[float] = []

    driver.warm_up(plain, proto.warm_up_s)
    before = (runner.stats(), default_cache().stats())
    jobs0, cpu0 = tally.attempted, time.process_time()
    for _ in range(cycles):
        plain_rates.append(driver.window(plain, "throughput", window_s, plain_latencies))
        traced_rates.append(driver.window(traced, "throughput", window_s, stamped=True))
        driver.window(plain, "latency", window_s, plain_latencies)
        driver.window(traced, "latency", window_s, stamped=True)
    cpu_per_job = (time.process_time() - cpu0) / max(1, tally.attempted - jobs0)
    after = (runner.stats(), default_cache().stats())

    layer, engine_stats, phases_equal = probes.run_probes(runner, quick)

    pinned_rate = stats.median(plain_rates)
    spread_slowdown = 1.0   # by definition when only one CPU is allowed
    if pinned is not None and len(allowed) > 1:
        host.set_affinity(set(allowed))
        try:
            spread_slowdown = pinned_rate / driver.window(
                plain, "throughput", 4 * window_s)
        finally:
            host.set_affinity({pinned})

    def hit_ratio(a: dict[str, Any], b: dict[str, Any]) -> float:
        hits, misses = b["hits"] - a["hits"], b["misses"] - a["misses"]
        return hits / (hits + misses) if hits + misses else 1.0

    if before[0] is not None:   # resident engine: over the timed windows
        schedule_hits = hit_ratio(
            before[0]["schedule_cache"], after[0]["schedule_cache"])
    else:   # one-shot: one cold job, as every spmd_run call starts
        schedule_hits = hit_ratio(
            {"hits": 0, "misses": 0}, engine_stats["schedule_cache"])

    seg = {k: stats.median(v) for k, v in samples.segments.items()}
    tail_pct, tail = stats.highest_percentile(
        samples.latencies, min_beyond=proto.min_beyond)
    metrics = dict(layer)
    if "engine.construct" in seg:   # per-job construction beats the probe's
        metrics["engine.construct_ms"] = 1e3 * seg["engine.construct"]
        metrics["engine.shutdown_ms"] = 1e3 * seg["engine.shutdown"]
    metrics.update({
        "jobs_per_s": pinned_rate,
        "job_latency_p50_ms": 1e3 * stats.pooled_percentile(
            plain_latencies, 50, min_beyond=proto.min_beyond),
        "client.latency_tail_ms": 1e3 * tail,
        "client.latency_tail_pct": tail_pct,
        "client.samples": len(samples.latencies),
        "client.window_spread_share": stats.spread_share(plain_rates),
        "client.cpu_ms_per_job": 1e3 * cpu_per_job,
        "client.verify_us": 1e6 * seg["client.verify"],
        "host.spin_mops": stats.median(driver.spin_mops),
        "host.cpus_allowed": len(allowed) or os.cpu_count(),
        "trace_overhead_share": 1.0 - stats.median(traced_rates) / pinned_rate,
        "engine.submit_us": 1e6 * seg["engine.submit"],
        "engine.dispatch_us": 1e6 * seg["engine.dispatch"],
        "engine.wake_skew_us": 1e6 * stats.median(samples.wake_skew),
        "job.body_ms": 1e3 * seg["job.body"],
        "engine.finalize_us": 1e6 * seg["engine.finalize"],
        "engine.overhead_share": stats.median(samples.overhead_share),
        "engine.failed": engine_stats["failed"],
        "engine.retried": engine_stats["retried"],
        "engine.peak_inflight": engine_stats["peak_inflight"],
        "engine.leaked_messages_drained": engine_stats["leaked_messages_drained"],
        "engine.spread_slowdown": spread_slowdown,
        "runtime.body_wait_share": stats.median(samples.body_wait_share),
        "mpi.sends_per_job": max(tally.sends, default=0),
        "mpi.bytes_per_job": max(tally.nbytes, default=0),
        "mpi.schedule_cache_hit_ratio": schedule_hits,
        "kernels.cache_hit_ratio": hit_ratio(before[1], after[1]),
        "kernels.bytes_swept_per_job": runner.inputs.bytes_swept,
    })
    exact = len(tally.sends) == 1 and len(tally.nbytes) == 1
    extra = {
        "traced_latency_p50_ms": 1e3 * stats.median(samples.latencies),
        "segments_ms": {k: 1e3 * v for k, v in seg.items()},
        "segments_max_residual_us": 1e6 * samples.max_residual_s,
        "plain_window_jobs_per_s": plain_rates,
        "traced_window_jobs_per_s": traced_rates,
        "phases_equal_oracle": phases_equal,
        "message_counts_repeat": exact,
    }
    return metrics, extra, phases_equal and exact


def load_spec() -> dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def measure(
    workload: str,
    seed: int = 0,
    seconds: float = 28.0,
    trace: bool = False,
    quick: bool = False,
    inputs: workloads.Inputs | None = None,
) -> Report:
    """Run one workload, pinned to one CPU for as long as the call
    lasts, and return its report.  ``inputs`` lets a test hand in inputs
    whose oracle it has tampered with."""
    proto = QUICK if quick else FULL
    if inputs is None:
        inputs = workloads.make_inputs(workload, seed, quick)
    tally = Tally()
    with host.pinned_to_one_cpu() as (allowed, pinned):
        fingerprint = host.fingerprint(allowed, pinned)
        runner = workloads.build(inputs)
        driver = Driver(runner, tally)
        try:
            if trace:
                metrics, extra, checks_ok = run_traced(
                    driver, seconds, quick, proto, allowed, pinned)
            else:
                metrics, extra = run_end_to_end(driver, seconds, proto, seed, quick)
                checks_ok = True
        except stats.InsufficientSamples as exc:
            # Too few verified jobs to state a metric (every job failing,
            # or a host far too slow): no numbers, and the run is not correct.
            tally.errors.append(f"no metrics: {exc}")
            metrics, extra, checks_ok = {}, {}, False
        finally:
            runner.close()

    spins = driver.spin_mops
    fingerprint.update({
        "spin_mops_min": min(spins), "spin_mops_max": max(spins),
        "spin_mops_after_each_window": spins,
        "disturbed": host.disturbed(spins),
    })
    makespan_repeats = len(tally.makespans) == 1
    correct = tally.failed == 0 and makespan_repeats and checks_ok
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick, "sizes": inputs.sizes,
        "host": fingerprint, "attempted": tally.attempted,
        "failed": tally.failed, "errors": tally.errors,
        "sim_makespan_repeats": makespan_repeats,
        **extra,
    }
    return Report(metrics, tally.attempted, tally.failed, correct, record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="seconds of timed windows (default 28)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and sample rules, for the tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no repro package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)

    if not report.metrics:
        for why in report.record["errors"]:
            print(f"bench: {why}", file=sys.stderr)
        print(f"bench: {report.failed} of {report.attempted} jobs failed; "
              "no result", file=sys.stderr)
        return 1
    if set(report.metrics) != set(units):
        missing = sorted(set(units) - set(report.metrics))
        surplus = sorted(set(report.metrics) - set(units))
        print(f"bench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {surplus}", file=sys.stderr)
        return 3
    for name in units:
        print(f"{name:40s} {report.metrics[name]:>16.6g} {units[name]}")
    if not args.trace:   # per-layer metrics here: the traced run gates nothing
        for m in spec["per_layer"]:
            if m["name"] in report.record:
                print(f"{m['name']:40s} {report.record[m['name']]:>16.6g} {m['unit']}"
                      "   (reported, not gated)")
    print(f"{'jobs attempted / failed':40s} {report.attempted} / {report.failed}")
    if report.record["host"]["disturbed"]:
        print("bench: host speed moved more than 15% during the run (disturbed)",
              file=sys.stderr)
    for why in report.record["errors"]:
        print(f"bench: failed job: {why}", file=sys.stderr)
    print("record " + json.dumps(report.record, sort_keys=True))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
