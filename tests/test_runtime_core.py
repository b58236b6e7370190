"""Tests for clocks, cost models, channels and traces."""

import threading

import numpy as np
import pytest

from repro.errors import RuntimeAbort
from repro.runtime.channels import ANY_SOURCE, ANY_TAG, Envelope, Mailbox
from repro.runtime.clock import VirtualClock
from repro.runtime.costmodel import (
    CostModel,
    calibrate_rate,
    cluster_2006,
    modern_node,
)
from repro.runtime.trace import Trace, merge_traces


class TestVirtualClock:
    def test_advance_accumulates(self):
        c = VirtualClock()
        c.advance(1.5)
        c.advance(0.5)
        assert c.t == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_merge_takes_max(self):
        c = VirtualClock(5.0)
        c.merge(3.0)
        assert c.t == 5.0
        c.merge(7.0)
        assert c.t == 7.0


class TestCostModel:
    def test_wire_time(self):
        cm = CostModel(latency=1e-6, byte_time=1e-9)
        assert cm.wire_time(0) == 1e-6
        assert cm.wire_time(1000) == pytest.approx(2e-6)

    def test_compute_time_known_rates(self):
        cm = CostModel()
        assert cm.compute_time("python_loop", 10) == pytest.approx(
            10 * cm.rates["python_loop"]
        )

    def test_compute_time_unknown_rate_raises(self):
        with pytest.raises(KeyError, match="unknown compute rate"):
            CostModel().compute_time("nope", 1)

    def test_with_rates_is_nondestructive(self):
        cm = CostModel()
        cm2 = cm.with_rates(custom=1e-8)
        assert "custom" in cm2.rates and "custom" not in cm.rates
        assert cm2.latency == cm.latency

    def test_with_params(self):
        cm = CostModel().with_params(latency=9e-6)
        assert cm.latency == 9e-6

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            CostModel(latency=-1.0)

    def test_presets_distinct(self):
        assert cluster_2006().latency > modern_node().latency

    def test_calibrate_rate_positive_and_sane(self):
        rate = calibrate_rate(
            lambda n: np.arange(n).sum(), 10_000, repeats=2, min_time=0.002
        )
        assert 0 < rate < 1e-5  # well under 10us/element

    def test_calibrate_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            calibrate_rate(lambda n: None, 0)


class TestMailbox:
    def _mk(self):
        return Mailbox(rank=0, abort_event=threading.Event())

    def _env(self, src=1, tag="t", payload="x", t=0.0):
        return Envelope(src, tag, payload, 8, t)

    def test_fifo_per_source_tag(self):
        mb = self._mk()
        mb.deliver(self._env(payload="a"))
        mb.deliver(self._env(payload="b"))
        assert mb.collect(1, "t").payload == "a"
        assert mb.collect(1, "t").payload == "b"

    def test_matching_is_keyed(self):
        mb = self._mk()
        mb.deliver(self._env(src=2, tag="x", payload="from2"))
        mb.deliver(self._env(src=1, tag="x", payload="from1"))
        assert mb.collect(1, "x").payload == "from1"
        assert mb.collect(2, "x").payload == "from2"

    def test_wildcards(self):
        mb = self._mk()
        mb.deliver(self._env(src=3, tag="q", payload="p"))
        env = mb.collect(ANY_SOURCE, ANY_TAG)
        assert env.payload == "p" and env.source == 3

    def test_probe(self):
        mb = self._mk()
        assert not mb.probe(1, "t")
        mb.deliver(self._env())
        assert mb.probe(1, "t")
        assert mb.probe(ANY_SOURCE, "t")
        assert not mb.probe(2, "t")

    def test_abort_unblocks(self):
        abort = threading.Event()
        mb = Mailbox(0, abort)
        errors = []

        def waiter():
            try:
                mb.collect(1, "never")
            except RuntimeAbort:
                errors.append("aborted")

        th = threading.Thread(target=waiter)
        th.start()
        abort.set()
        th.join(timeout=5)
        assert errors == ["aborted"]

    def test_pending_count(self):
        mb = self._mk()
        assert mb.pending_count() == 0
        mb.deliver(self._env())
        mb.deliver(self._env(tag="u"))
        assert mb.pending_count() == 2


class TestTrace:
    def test_counters(self):
        tr = Trace(rank=0)
        tr.on_send(100)
        tr.on_recv(50)
        tr.on_compute(0.25)
        tr.on_collective("allreduce", "allreduce")
        tr.on_collective("bcast", "bcast")
        assert tr.n_sends == 1 and tr.bytes_sent == 100
        assert tr.n_recvs == 1 and tr.bytes_received == 50
        assert tr.compute_seconds == 0.25
        assert tr.n_collective_calls == 2
        assert tr.n_reduction_calls == 1

    def test_reduction_fraction(self):
        tr = Trace(rank=0)
        for _ in range(9):
            tr.on_collective("bcast", "bcast")
        tr.on_collective("reduce", "reduce")
        assert tr.reduction_fraction() == pytest.approx(0.1)

    def test_nonblocking_and_exclusive_entry_points_classify_by_kind(self):
        tr = Trace(rank=0)
        for name, kind in (
            ("iallreduce", "allreduce"), ("ireduce", "reduce"),
            ("iscan", "scan"), ("iexscan", "scan"), ("exscan", "scan"),
            ("reduce_scatter", "reduce_scatter"), ("ibarrier", "barrier"),
        ):
            tr.on_collective(name, kind)
        assert tr.n_collective_calls == 7
        assert tr.n_reduction_calls == 6
        assert "ibarrier" not in tr.reduction_calls

    def test_merge(self):
        a, b = Trace(rank=0), Trace(rank=1)
        a.on_send(10)
        b.on_send(20)
        b.on_collective("scan", "scan")
        m = merge_traces([a, b])
        assert m.n_sends == 2 and m.bytes_sent == 30
        assert m.collective_calls["scan"] == 1
        assert m.n_reduction_calls == 1
