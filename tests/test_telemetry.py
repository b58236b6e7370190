"""Service-level engine telemetry: lifecycles, metrics, exports.

Covers the ISSUE 6 tentpole: wall-clock job lifecycle stamps, scheduler
counters/gauges, quantile-bearing latency histograms, per-rank busy
timelines feeding the Chrome-trace exporter, JSONL snapshot rings,
Prometheus rendering — and the cost disciplines: registry thread-safety
under concurrent multi-client submits, and the allocation-free disabled
path (poison-tested like the disabled tracer).
"""

import json
import threading
import time

import numpy as np
import pytest

from repro import global_reduce
from repro.analysis import engine_session_to_chrome_trace
from repro.engine import Engine
from repro.engine import resilience
from repro.engine.resilience import RetryPolicy
from repro.errors import EngineSaturated, SpmdError
from repro.faults import FailStop, FaultPlan
from repro.obs import render_prometheus
from repro.obs.telemetry import (
    LIFECYCLE_STATES,
    NULL_ENGINE_TELEMETRY,
    STATS_METRICS,
    EngineTelemetry,
    SnapshotRing,
)
from repro.ops import SumOp


def _job(comm):
    return global_reduce(comm, SumOp(), np.arange(8.0) + comm.rank)


def _failing_job(comm):
    raise RuntimeError("boom")


def _counters(tel):
    """The counters of a fresh snapshot (counts are the engine's own,
    written into the registry when a snapshot is taken)."""
    return tel.snapshot()["metrics"]["counters"]


def _gated_job(gate):
    """A job that holds its ranks until ``gate`` is set — deterministic
    way to keep the pool busy while a test inspects queue behavior."""

    def fn(comm):
        gate.wait(10.0)
        return comm.rank

    return fn


class TestJobLifecycle:
    def test_completed_job_walks_all_stamps(self):
        with Engine(4, telemetry=True) as eng:
            h = eng.submit(_job, nprocs=2, session="tenant-a")
            h.result()
            lc = h.lifecycle
        assert lc is not None
        assert lc.state == "completed"
        assert lc.state in LIFECYCLE_STATES
        assert lc.session == "tenant-a"
        assert lc.nprocs == 2
        assert lc.job_id == h.job_id
        assert not lc.has_fault_plan
        # Monotone stamp chain: submitted <= queued <= assembled <=
        # running <= done.
        assert (lc.t_submitted <= lc.t_queued <= lc.t_assembled
                <= lc.t_running <= lc.t_done)
        assert lc.queue_wait >= 0.0
        assert lc.exec_seconds > 0.0
        assert lc.e2e_seconds >= lc.exec_seconds
        assert lc.virtual_seconds > 0.0

    def test_failed_job_terminal_state(self):
        with Engine(2, telemetry=True) as eng:
            h = eng.submit(_failing_job, nprocs=2)
            with pytest.raises(Exception):
                h.result()
            assert h.lifecycle.state == "failed"
            assert _counters(eng.telemetry)["engine.jobs.failed"] == 1

    def test_cancelled_pending_job(self):
        gate = threading.Event()
        with Engine(2, telemetry=True) as eng:
            blocker = eng.submit(_gated_job(gate), nprocs=2)
            victim = eng.submit(_job, nprocs=2)
            # The victim queues behind the blocker; cancel it while pending.
            assert victim.cancel()
            gate.set()
            blocker.result()
            lc = victim.lifecycle
        assert lc.state == "cancelled"
        assert lc.t_assembled is None  # never dispatched
        assert lc.t_done is not None

    def test_saturated_submit_records_rejection(self):
        gate = threading.Event()
        with Engine(2, telemetry=True, queue_depth=1) as eng:
            tel = eng.telemetry
            blocker = eng.submit(_gated_job(gate), nprocs=2)
            eng.submit(_job, nprocs=2, block=False)  # fills the queue
            with pytest.raises(EngineSaturated):
                eng.submit(_job, nprocs=2, block=False, session="t")
            assert _counters(tel)["engine.jobs.rejected"] == 1
            rejected = [
                lc for lc in tel.recent_jobs() if lc.state == "saturated"
            ]
            assert len(rejected) == 1
            assert rejected[0].session == "t"
            gate.set()
            blocker.result()

    def test_to_record_is_json_serializable(self):
        with Engine(2, telemetry=True) as eng:
            h = eng.submit(_job, nprocs=2, label="my-label")
            h.result()
            rec = h.lifecycle.to_record()
        text = json.dumps(rec, allow_nan=False)
        back = json.loads(text)
        assert back["type"] == "job"
        assert back["label"] == "my-label"
        assert back["state"] == "completed"
        assert back["e2e_s"] > 0

    def test_set_telemetry_swaps_series(self):
        """A quiescent swap starts a fresh measurement series — the
        throughput benchmark excludes warm-up traffic this way."""
        with Engine(2, telemetry=True) as eng:
            eng.submit(_job, nprocs=2).result()  # "warm-up"
            old = eng.telemetry
            eng.set_telemetry(True)
            fresh = eng.telemetry
            assert fresh is not old
            eng.submit(_job, nprocs=2).result()
            assert _counters(old)["engine.jobs.submitted"] == 1
            assert _counters(fresh)["engine.jobs.submitted"] == 1
            assert fresh.latency_summary()["e2e_s"]["count"] == 1
            eng.set_telemetry(False)
            h = eng.submit(_job, nprocs=2)
            h.result()
            assert h.lifecycle is None
            assert eng.telemetry is NULL_ENGINE_TELEMETRY

    def test_disabled_engine_has_no_lifecycle(self):
        with Engine(2) as eng:
            h = eng.submit(_job, nprocs=2)
            h.result()
            assert h.lifecycle is None
            assert eng.telemetry is NULL_ENGINE_TELEMETRY
            assert eng.stats()["telemetry_enabled"] is False


class TestSchedulerMetrics:
    def test_counters_and_gauges_settle(self):
        with Engine(4, telemetry=True) as eng:
            handles = [eng.submit(_job, nprocs=2) for _ in range(6)]
            for h in handles:
                h.result()
            snap = eng.telemetry.snapshot()
        c = snap["metrics"]["counters"]
        assert c["engine.jobs.submitted"] == 6
        assert c["engine.jobs.completed"] == 6
        assert c["engine.jobs.failed"] == 0
        g = snap["metrics"]["gauges"]
        assert g["engine.queue.depth"] == 0
        assert g["engine.jobs.inflight"] == 0
        assert g["engine.ranks.free"] == 4

    def test_schedule_cache_mirrored_into_gauges(self):
        with Engine(4, telemetry=True) as eng:
            for _ in range(4):
                eng.submit(_job, nprocs=2).result()
            snap = eng.telemetry.snapshot()
        g = snap["metrics"]["gauges"]
        cache = snap["engine"]["schedule_cache"]
        assert g["engine.schedule_cache.hits"] == cache["hits"]
        assert g["engine.schedule_cache.misses"] == cache["misses"]
        assert cache["hits"] > 0  # repeats of one shape must hit

    def test_latency_histograms_have_quantiles(self):
        with Engine(4, telemetry=True) as eng:
            for _ in range(8):
                eng.submit(_job, nprocs=2).result()
            lat = eng.telemetry.latency_summary()
        for key in ("queue_wait_s", "exec_s", "e2e_s", "virtual_s"):
            s = lat[key]
            assert s["count"] == 8
            assert s["p50"] is not None
            assert s["p50"] <= s["p99"] * (1 + 1e-9)

    def test_utilization_and_intervals(self):
        with Engine(4, telemetry=True) as eng:
            for _ in range(5):
                eng.submit(_job, nprocs=2).result()
            tel = eng.telemetry
            util = tel.utilization()
            intervals = tel.intervals()
        assert len(util) == 4
        assert all(0.0 <= u <= 1.0 for u in util)
        assert sum(util) > 0.0
        # One interval per (job, member): 5 jobs x 2 members.
        assert len(intervals) == 10
        for rank, t0, t1, job_id, label in intervals:
            assert 0 <= rank < 4
            assert t1 >= t0
        assert tel.interval_drops == 0

    def test_interval_ring_is_bounded(self):
        tel = EngineTelemetry(2, max_intervals=4)
        with Engine(2, telemetry=tel) as eng:
            for _ in range(6):
                eng.submit(_job, nprocs=2).result()
        assert len(tel.intervals()) == 4
        assert tel.interval_drops == 6 * 2 - 4


def _flaky_job():
    """A job whose first attempt fails and whose second succeeds."""
    attempts = []

    def fn(comm):
        if comm.rank == 0:
            attempts.append(comm.rank)
            if len(attempts) == 1:
                raise RuntimeError("transient")
        return comm.rank

    return fn


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


@pytest.fixture
def parked(monkeypatch):
    """A policy whose backoff is long enough that a failed attempt stays
    parked for as long as a test wants to look at it."""
    monkeypatch.setattr(resilience, "BACKOFF_MAX", 60.0)
    return RetryPolicy(max_attempts=2, backoff_base=60.0)

#: What a flat thread-backend engine exports, recorded from the commit
#: before the counts moved out of the hooks: names and kinds are API
#: (dashboards and scrape configs are written against them).
_FLAT_SURFACE = [
    ("engine.capacity.degraded", "gauge"),
    ("engine.capacity.effective", "gauge"),
    ("engine.job.e2e_seconds", "histogram"),
    ("engine.job.exec_seconds", "histogram"),
    ("engine.job.queue_wait_seconds", "histogram"),
    ("engine.job.virtual_seconds", "histogram"),
    ("engine.jobs.cancelled", "counter"),
    ("engine.jobs.completed", "counter"),
    ("engine.jobs.failed", "counter"),
    ("engine.jobs.inflight", "gauge"),
    ("engine.jobs.leaked_messages", "counter"),
    ("engine.jobs.reaped", "counter"),
    ("engine.jobs.rejected", "counter"),
    ("engine.jobs.retried", "counter"),
    ("engine.jobs.submitted", "counter"),
    ("engine.kernel_cache.hit_rate", "gauge"),
    ("engine.kernel_cache.hits", "gauge"),
    ("engine.kernel_cache.misses", "gauge"),
    ("engine.placement.gang_spread", "gauge"),
    ("engine.placement.gangs", "gauge"),
    ("engine.placement.single_node_gangs", "gauge"),
    ("engine.queue.depth", "gauge"),
    ("engine.ranks.busy_fraction", "gauge"),
    ("engine.ranks.free", "gauge"),
    ("engine.ranks.quarantined", "gauge"),
    ("engine.ranks.quarantines", "counter"),
    ("engine.ranks.revivals", "counter"),
    ("engine.schedule_cache.hit_rate", "gauge"),
    ("engine.schedule_cache.hits", "gauge"),
    ("engine.schedule_cache.misses", "gauge"),
]

_FLAT_PROMETHEUS_TYPES = [
    "# TYPE repro_engine_uptime_seconds gauge",
    "# TYPE repro_engine_rank_busy_fraction gauge",
    "# TYPE repro_engine_rank_jobs_total counter",
    "# TYPE repro_engine_capacity_degraded gauge",
    "# TYPE repro_engine_capacity_effective gauge",
    "# TYPE repro_engine_job_e2e_seconds summary",
    "# TYPE repro_engine_job_exec_seconds summary",
    "# TYPE repro_engine_job_queue_wait_seconds summary",
    "# TYPE repro_engine_job_virtual_seconds summary",
    "# TYPE repro_engine_jobs_cancelled_total counter",
    "# TYPE repro_engine_jobs_completed_total counter",
    "# TYPE repro_engine_jobs_failed_total counter",
    "# TYPE repro_engine_jobs_inflight gauge",
    "# TYPE repro_engine_jobs_leaked_messages_total counter",
    "# TYPE repro_engine_jobs_reaped_total counter",
    "# TYPE repro_engine_jobs_rejected_total counter",
    "# TYPE repro_engine_jobs_retried_total counter",
    "# TYPE repro_engine_jobs_submitted_total counter",
    "# TYPE repro_engine_kernel_cache_hit_rate gauge",
    "# TYPE repro_engine_kernel_cache_hits gauge",
    "# TYPE repro_engine_kernel_cache_misses gauge",
    "# TYPE repro_engine_placement_gang_spread gauge",
    "# TYPE repro_engine_placement_gangs gauge",
    "# TYPE repro_engine_placement_single_node_gangs gauge",
    "# TYPE repro_engine_queue_depth gauge",
    "# TYPE repro_engine_ranks_busy_fraction gauge",
    "# TYPE repro_engine_ranks_free gauge",
    "# TYPE repro_engine_ranks_quarantined gauge",
    "# TYPE repro_engine_ranks_quarantines_total counter",
    "# TYPE repro_engine_ranks_revivals_total counter",
    "# TYPE repro_engine_schedule_cache_hit_rate gauge",
    "# TYPE repro_engine_schedule_cache_hits gauge",
    "# TYPE repro_engine_schedule_cache_misses gauge",
]


class TestOneSetOfBooks:
    """Counts and levels are the engine's (``Engine.stats()``); a
    snapshot copies them out through ``STATS_METRICS``, so the two
    halves of one frame cannot disagree whatever path a job left by."""

    def test_metrics_agree_with_engine_stats(self, monkeypatch, parked):
        gate = threading.Event()
        crash_rank_1 = FaultPlan(
            seed=1, failstops=(FailStop(rank=1, at_op=1),)
        )
        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        monkeypatch.setattr(resilience, "PROBE_AFTER", 0.05)
        with Engine(4, queue_depth=1) as eng:
            eng.submit(_job).result()  # before the bind: not in the series
            base = eng.stats()
            eng.set_telemetry(True)
            eng.submit(_job).result()
            with pytest.raises(SpmdError):
                eng.submit(_failing_job).result()
            eng.submit(
                _flaky_job(), retry_policy=RetryPolicy(backoff_base=0.001)
            ).result()
            blocker = eng.submit(_gated_job(gate))
            pending = eng.submit(_job)
            with pytest.raises(EngineSaturated):
                eng.submit(_job, block=False)
            assert pending.cancel()
            gate.set()
            blocker.result()
            parked_job = eng.submit(_failing_job, retry_policy=parked)
            _wait_for(lambda: eng.stats()["retry_backlog"] == 1)
            assert parked_job.cancel()
            survived = eng.submit(_job, fault_plan=crash_rank_1).result()
            assert survived.failed_ranks == {1}
            # Revived on an idle pool: no job follows to refresh a gauge.
            _wait_for(lambda: eng.stats()["revivals"] == 1)
            frame = eng.telemetry.snapshot()
        counters = frame["metrics"]["counters"]
        gauges = frame["metrics"]["gauges"]
        stats = frame["engine"]
        for name, key in STATS_METRICS.items():
            value = stats
            for part in key.split("."):
                value = None if value is None else value[part]
            if value is None or value == {}:
                assert not any(g.startswith(name) for g in gauges), name
            elif name in counters:
                assert counters[name] == value - base[key], name
            else:
                if isinstance(value, list):
                    value = len(value)
                assert gauges[name] == value, name
        assert counters["engine.jobs.submitted"] == 7
        assert counters["engine.jobs.completed"] == 4
        assert counters["engine.jobs.failed"] == 1
        assert counters["engine.jobs.cancelled"] == 2
        assert counters["engine.jobs.retried"] == 2
        assert counters["engine.jobs.rejected"] == 1
        assert counters["engine.ranks.quarantines"] == 1
        assert gauges["engine.ranks.free"] == stats["free_ranks"] == 4

    def test_shutdown_closes_a_parked_lifecycle_once(self, parked):
        """``shutdown(drain=False)`` with a job parked in backoff: the
        failed attempt's lifecycle went terminal when it was parked and
        must not be closed (and billed as busy time) a second time."""
        eng = Engine(4, telemetry=True)
        tel = eng.telemetry
        try:
            handle = eng.submit(_failing_job, retry_policy=parked)
            _wait_for(lambda: eng.stats()["retry_backlog"] == 1)
            assert handle.lifecycle is None  # the attempt is over
            intervals, busy = tel.intervals(), list(tel._busy)
            history = [id(lc) for lc in tel.recent_jobs(64)]
            time.sleep(0.05)  # backoff time a second close would bill
        finally:
            eng.shutdown(drain=False)
        assert tel.intervals() == intervals
        assert tel._busy == busy
        assert [id(lc) for lc in tel.recent_jobs(64)] == history
        assert len(set(history)) == len(history) == 1
        assert tel.recent_jobs()[0].state == "retrying"
        assert tel.snapshot()["engine"]["cancelled"] == 1

    def test_exported_surface_is_pinned(self):
        with Engine(4, telemetry=True) as eng:
            eng.submit(_job, nprocs=2).result()
            metrics = eng.telemetry.snapshot()["metrics"]
            text = render_prometheus(eng.telemetry)
        surface = sorted(
            (name, kind[:-1])
            for kind in ("counters", "gauges", "histograms")
            for name in metrics[kind]
        )
        assert surface == _FLAT_SURFACE
        types = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert types == _FLAT_PROMETHEUS_TYPES


class TestRegistryThreadSafety:
    def test_concurrent_multi_client_submits(self):
        """Counters must not lose increments when many sessions hammer
        one telemetry-enabled engine concurrently."""
        n_clients, jobs_each = 6, 10
        with Engine(4, telemetry=True) as eng:
            def client(idx):
                with eng.session(label=f"c{idx}") as s:
                    hs = [s.submit(_job, nprocs=2) for _ in range(jobs_each)]
                    for h in hs:
                        h.result()

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snap = eng.telemetry.snapshot()
        total = n_clients * jobs_each
        c = snap["metrics"]["counters"]
        assert c["engine.jobs.submitted"] == total
        assert c["engine.jobs.completed"] == total
        lat = snap["metrics"]["histograms"]["engine.job.e2e_seconds"]
        assert lat["count"] == total
        # Every member interval was accounted (2 members per job).
        assert sum(snap["jobs_per_rank"]) == total * 2

    def test_concurrent_histogram_observe(self):
        """Raw registry hammering from plain threads (no engine lock)."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        hist = reg.histogram("x")
        counter = reg.counter("n")
        n_threads, per_thread = 8, 500

        def work(seed):
            rng = np.random.default_rng(seed)
            for v in rng.uniform(0, 1, size=per_thread):
                hist.observe(float(v))
                counter.inc()

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread
        s = hist.summary()
        assert s["count"] == n_threads * per_thread
        assert 0.0 <= s["p50"] <= 1.0


class TestDisabledTelemetryAllocatesNothing:
    """ISSUE 6 cost discipline: a telemetry-off engine must build zero
    telemetry objects on the submit/schedule path — the disabled branch
    is an ``enabled`` attribute check plus the shared null object."""

    @pytest.fixture
    def poisoned(self, monkeypatch):
        from repro.obs import telemetry as telemetry_mod

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError(
                "telemetry object constructed with telemetry disabled"
            )

        monkeypatch.setattr(telemetry_mod.JobLifecycle, "__init__", boom)
        monkeypatch.setattr(telemetry_mod.EngineTelemetry, "__init__", boom)
        monkeypatch.setattr(telemetry_mod.SnapshotRing, "__init__", boom)

    def test_submit_path_is_clean(self, poisoned):
        with Engine(4) as eng:
            handles = [eng.submit(_job, nprocs=2) for _ in range(4)]
            results = [h.result() for h in handles]
        assert all(h.lifecycle is None for h in handles)
        assert len(results) == 4

    def test_spmd_run_compat_shim_is_clean(self, poisoned):
        from repro import spmd_run

        res = spmd_run(_job, 4)
        assert len(res.returns) == 4

    def test_saturated_path_is_clean(self, poisoned):
        gate = threading.Event()
        with Engine(2, queue_depth=1) as eng:
            blocker = eng.submit(_gated_job(gate), nprocs=2)
            eng.submit(_job, nprocs=2, block=False)
            with pytest.raises(EngineSaturated):
                eng.submit(_job, nprocs=2, block=False)
            gate.set()
            blocker.result()


class TestSnapshotRing:
    def test_sample_and_write(self, tmp_path):
        with Engine(2, telemetry=True) as eng:
            ring = SnapshotRing(eng.telemetry, interval=0.01, capacity=3)
            for _ in range(3):
                eng.submit(_job, nprocs=2).result()
            for _ in range(5):
                ring.sample()
            frames = ring.frames()
            assert len(frames) == 3  # bounded
            out = tmp_path / "telemetry.jsonl"
            n = ring.write(str(out))
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == n
        kinds = {l["type"] for l in lines}
        assert kinds == {"snapshot", "job", "metrics"}
        jobs = [l for l in lines if l["type"] == "job"]
        assert len(jobs) == 3
        assert all(j["state"] == "completed" for j in jobs)

    def test_thread_samples_periodically(self):
        with Engine(2, telemetry=True) as eng:
            with SnapshotRing(eng.telemetry, interval=0.02) as ring:
                eng.submit(_job, nprocs=2).result()
                import time

                time.sleep(0.15)
            assert len(ring.frames()) >= 2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SnapshotRing(EngineTelemetry(1), interval=0.0)


class TestChromeTraceFeed:
    def test_engine_session_trace(self):
        with Engine(4, telemetry=True) as eng:
            for k in range(4):
                eng.submit(_job, nprocs=2, label=f"j{k}").result()
            doc = engine_session_to_chrome_trace(eng.telemetry)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(slices) == 8  # 4 jobs x 2 members
        assert {e["name"] for e in slices} == {"j0", "j1", "j2", "j3"}
        assert all(e["dur"] >= 0 for e in slices)
        # One thread-name metadata row per pool rank.
        meta = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        ]
        assert len(meta) == 4
        assert doc["otherData"]["clock"] == "wall"
        json.dumps(doc)  # must serialize

    def test_write_engine_session_trace(self, tmp_path):
        from repro.analysis import write_engine_session_trace

        with Engine(2, telemetry=True) as eng:
            eng.submit(_job, nprocs=2).result()
            out = tmp_path / "session.json"
            write_engine_session_trace(eng.telemetry, str(out))
        doc = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


class TestPrometheusRendering:
    def test_counters_gauges_summaries(self):
        with Engine(4, telemetry=True) as eng:
            for _ in range(5):
                eng.submit(_job, nprocs=2).result()
            text = render_prometheus(eng.telemetry)
        assert "# TYPE repro_engine_jobs_submitted_total counter" in text
        assert "repro_engine_jobs_submitted_total 5" in text
        assert "# TYPE repro_engine_queue_depth gauge" in text
        assert "# TYPE repro_engine_job_e2e_seconds summary" in text
        assert 'repro_engine_job_e2e_seconds{quantile="0.5"}' in text
        assert "repro_engine_job_e2e_seconds_count 5" in text
        assert 'repro_engine_rank_busy_fraction{rank="3"}' in text
        # Text exposition 0.0.4: every line is NAME VALUE or a comment.
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.split(" ")) == 2, line

    def test_disabled_telemetry_renders_stub(self):
        assert render_prometheus(NULL_ENGINE_TELEMETRY) == (
            "# telemetry disabled\n"
        )

    def test_bare_registry_renders(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("my.count").inc(3)
        reg.gauge("my.level").set(0.5)
        text = render_prometheus(reg)
        assert "repro_my_count_total 3" in text
        assert "repro_my_level 0.5" in text
