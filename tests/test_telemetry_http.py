"""Live telemetry export: /metrics endpoint, /snapshot.json, repro top.

Exercises the HTTP slice of the observability stack end to end on
ephemeral ports: a :class:`MetricsServer` over a real telemetry-enabled
engine, the ``repro top`` dashboard (renderer and CLI), and the
``python -m repro serve --metrics-port`` wiring.
"""

import json
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import global_reduce
from repro.engine import Engine
from repro.engine.metrics_http import MetricsServer
from repro.engine.top import fetch_snapshot, render_frame, run_top
from repro.obs.telemetry import NULL_ENGINE_TELEMETRY
from repro.ops import SumOp

from tests.conftest import fresh_env


def _job(comm):
    return global_reduce(comm, SumOp(), np.arange(8.0) + comm.rank)


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.read().decode()


@pytest.fixture
def busy_engine():
    with Engine(4, telemetry=True) as eng:
        for _ in range(5):
            eng.submit(_job, nprocs=2).result()
        yield eng


class TestMetricsServer:
    def test_metrics_endpoint(self, busy_engine):
        with MetricsServer(busy_engine.telemetry) as srv:
            assert srv.port > 0
            status, body = _get(f"{srv.url}/metrics")
        assert status == 200
        assert "repro_engine_jobs_submitted_total 5" in body
        assert 'repro_engine_job_e2e_seconds{quantile="0.5"}' in body
        assert "repro_engine_uptime_seconds" in body

    def test_root_serves_metrics_too(self, busy_engine):
        with MetricsServer(busy_engine.telemetry) as srv:
            status, body = _get(f"{srv.url}/")
        assert status == 200
        assert "repro_engine_jobs_submitted_total" in body

    def test_snapshot_endpoint(self, busy_engine):
        with MetricsServer(busy_engine.telemetry) as srv:
            status, body = _get(f"{srv.url}/snapshot.json")
        assert status == 200
        frame = json.loads(body)
        assert frame["type"] == "snapshot"
        assert frame["nprocs"] == 4
        assert frame["metrics"]["counters"]["engine.jobs.completed"] == 5
        # The serving engine's scheduler stats ride along.
        assert frame["engine"]["schedule_cache"]["hits"] >= 0

    def test_unknown_path_404(self, busy_engine):
        with MetricsServer(busy_engine.telemetry) as srv:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _get(f"{srv.url}/nope")
        assert exc_info.value.code == 404

    def test_disabled_telemetry_serves_stub(self):
        with MetricsServer(NULL_ENGINE_TELEMETRY) as srv:
            _, metrics = _get(f"{srv.url}/metrics")
            _, snap = _get(f"{srv.url}/snapshot.json")
        assert metrics == "# telemetry disabled\n"
        assert json.loads(snap) == {"type": "snapshot", "enabled": False}

    def test_close_releases_port(self, busy_engine):
        srv = MetricsServer(busy_engine.telemetry)
        url = srv.url
        srv.close()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(f"{url}/metrics", timeout=0.5)


class TestTopDashboard:
    def test_fetch_and_render_live(self, busy_engine):
        with MetricsServer(busy_engine.telemetry) as srv:
            frame = fetch_snapshot(srv.url)
        text = render_frame(frame)
        assert "repro engine top — pool 4 ranks" in text
        assert "5 submitted, 5 completed" in text
        assert "rank  0 [" in text
        assert "end-to-end" in text
        assert "schedule cache:" in text

    def test_run_top_once(self, busy_engine, capsys):
        with MetricsServer(busy_engine.telemetry) as srv:
            rc = run_top(["--url", srv.url, "--once"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro engine top" in out
        assert "\x1b[2J" not in out  # --once must not clear the screen

    def test_run_top_unreachable(self, capsys):
        rc = run_top(["--url", "http://127.0.0.1:1", "--once"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "cannot reach" in err

    def test_render_disabled_frame(self):
        text = render_frame({"type": "snapshot", "enabled": False})
        assert "telemetry disabled" in text

    def test_render_reports_interval_drops(self, busy_engine):
        frame = busy_engine.telemetry.snapshot()
        frame["interval_drops"] = 12
        assert "dropped 12 intervals" in render_frame(frame)


class TestServeCli:
    @pytest.mark.parametrize(
        "extra", [[], ["--chaos"], ["--backend", "process"]],
        ids=["thread", "chaos", "process"],
    )
    def test_serve_with_metrics_and_exports(self, tmp_path, extra):
        """serve --metrics-port end to end: run jobs, print the latency
        report, write the snapshot JSONL and the wall-clock trace — also
        beside a chaos tenant and on the process backend."""
        snap_out = tmp_path / "frames.jsonl"
        trace_out = tmp_path / "session_trace.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve",
                "--ranks", "4", "--clients", "2", "--jobs-per-client", "6",
                "--metrics-port", "0",
                "--snapshot-interval", "0.05",
                "--snapshot-out", str(snap_out),
                "--trace-out", str(trace_out),
                *extra,
            ],
            capture_output=True, text=True, timeout=120,
            env=fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "metrics:" in proc.stdout  # announces the bound endpoint
        assert "e2e" in proc.stdout      # latency tails printed
        records = [
            json.loads(line)
            for line in snap_out.read_text().splitlines()
        ]
        kinds = {r["type"] for r in records}
        assert {"job", "metrics"} <= kinds
        jobs = [
            r for r in records
            if r["type"] == "job" and r["label"].startswith("client-")
        ]
        assert len(jobs) == 2 * 6
        assert all(j["state"] == "completed" for j in jobs)
        trace = json.loads(trace_out.read_text())
        slices = [
            e for e in trace["traceEvents"] if e.get("ph") == "X"
        ]
        assert slices, "engine session trace has no busy intervals"
        assert trace["otherData"]["clock"] == "wall"

    def test_top_against_serving_engine(self):
        """A lingering serve process answers a live `repro top --once`."""
        port = _free_port()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--ranks", "2", "--clients", "1", "--jobs-per-client", "2",
                "--metrics-port", str(port), "--linger", "20",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=fresh_env(),
        )
        try:
            url = f"http://127.0.0.1:{port}"
            frame = _poll_snapshot(url)
            assert frame["nprocs"] == 2
            top = subprocess.run(
                [
                    sys.executable, "-m", "repro", "top",
                    "--url", url, "--once",
                ],
                capture_output=True, text=True, timeout=30,
                env=fresh_env(),
            )
            assert top.returncode == 0, top.stderr
            assert "repro engine top — pool 2 ranks" in top.stdout
        finally:
            proc.terminate()
            proc.wait(timeout=10)


def _free_port() -> int:
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _poll_snapshot(url: str, attempts: int = 100) -> dict:
    """Wait for the serve subprocess's endpoint to come up."""
    import time

    last: Exception | None = None
    for _ in range(attempts):
        try:
            return fetch_snapshot(url, timeout=1.0)
        except (urllib.error.URLError, OSError) as exc:
            last = exc
            time.sleep(0.2)
    raise AssertionError(f"metrics endpoint never came up: {last}")
