"""Slot records behave as the dataclasses they replaced.

For each of the twelve job-path records: equality by value, the
dataclass ``repr`` (the expected strings were printed by the dataclass
versions and are written down here), the dataclass hash where frozen
(``hash`` of the field tuple) and no hash where mutable, a pickle round
trip, and assignment refused where frozen.  ``Envelope`` and
``SpmdResult`` also round-trip through the process backend's frame
codec, the wire format of the only other channel in the runtime.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest

from repro.engine.resilience import RetryPolicy
from repro.mpi.topology import TreeNode
from repro.mpi.tuning import Band, DecisionTable
from repro.obs.tracer import RecvEdge, RunCapture, SendEdge, Span
from repro.runtime.channels import Envelope
from repro.runtime.costmodel import DEFAULT_RATES, CostModel
from repro.runtime.executor import SpmdResult
from repro.runtime.frames import FRAME_PICKLE, decode_frame, encode_frame
from repro.runtime.trace import Trace
from repro.util.record import Record

BAND = Band(8, ((16384, "recursive_doubling"), (1 << 62, "rabenseifner")))

#: name -> (a record, the dataclass repr of it, frozen?)
CASES = {
    "CostModel": (
        CostModel(latency=1e-6, rates={"flop": 1e-9}),
        "CostModel(latency=1e-06, byte_time=2e-09, send_overhead=1e-06, "
        "recv_overhead=1e-06, rates={'flop': 1e-09})",
        True,
    ),
    "Band": (
        BAND,
        "Band(max_ranks=8, cutoffs=((16384, 'recursive_doubling'), "
        "(4611686018427387904, 'rabenseifner')))",
        True,
    ),
    "DecisionTable": (
        DecisionTable((BAND,), (BAND,), (BAND,), source="t"),
        "DecisionTable(allreduce=(BAND,), reduce=(BAND,), scan=(BAND,), "
        "source='t', fusion=(Band(max_ranks=4611686018427387904, "
        "cutoffs=((16384, 'fuse'), (4611686018427387904, 'flush'))),), "
        "radix=(Band(max_ranks=4611686018427387904, "
        "cutoffs=((4611686018427387904, 2),)),), topology='flat')",
        True,
    ),
    "TreeNode": (
        TreeNode(2, 0, (3,)), "TreeNode(rank=2, parent=0, children=(3,))", True,
    ),
    "Span": (
        Span("r0.1", None, "combine", 0, 1.5, 2.5, phase="combine", op="sum",
             nbytes=8),
        "Span(span_id='r0.1', parent_id=None, name='combine', rank=0, "
        "t_start=1.5, t_end=2.5, phase='combine', op='sum', nbytes=8, "
        "elements=0, depth=0, notes=None)",
        False,
    ),
    "SendEdge": (
        SendEdge(1, ("c", 0, 1, "allreduce"), 8, 1.0, 6.0),
        "SendEdge(dest=1, tag=('c', 0, 1, 'allreduce'), nbytes=8, t_send=1.0, "
        "available_at=6.0)",
        True,
    ),
    "RecvEdge": (
        RecvEdge(0, 7, 8, 2.0, 6.0, 7.0),
        "RecvEdge(source=0, tag=7, nbytes=8, t_arrive=2.0, available_at=6.0, "
        "t_done=7.0)",
        True,
    ),
    "RunCapture": (
        RunCapture(0, 2, [], label="job"),
        "RunCapture(index=0, nprocs=2, ranks=[], label='job', makespan=None, "
        "clocks=None, traces=None, t_admitted=None, t_started=None, "
        "t_finished=None)",
        False,
    ),
    "Envelope": (
        Envelope(3, ("u", 0, 5), (1, 2), 16, 4.5),
        "Envelope(source=3, tag=('u', 0, 5), payload=(1, 2), nbytes=16, "
        "available_at=4.5)",
        True,
    ),
    "Trace": (
        Trace(rank=2, n_sends=3, collective_calls=Counter({"allreduce": 1})),
        "Trace(rank=2, n_sends=3, n_recvs=0, bytes_sent=0, bytes_received=0, "
        "compute_seconds=0.0, collective_calls=Counter({'allreduce': 1}), "
        "reduction_calls=Counter(), p2p_calls=Counter(), faults=None)",
        False,
    ),
    "SpmdResult": (
        SpmdResult([1.0, 1.0], [2e-6, 3e-6], [Trace(0), Trace(1)], 0.25),
        "SpmdResult(nprocs=2, time=3.000000e-06s, msgs=0)",  # its own __repr__
        False,
    ),
    "RetryPolicy": (
        RetryPolicy(max_attempts=5, backoff_base=0.5, seed=7),
        "RetryPolicy(max_attempts=5, backoff_base=0.5, seed=7)",
        True,
    ),
}


def _expected_repr(name: str) -> str:
    return CASES[name][1].replace("(BAND,)", f"({CASES['Band'][1]},)")


@pytest.mark.parametrize("name", sorted(CASES))
class TestRecordParity:
    def test_is_a_slot_record(self, name):
        obj = CASES[name][0]
        assert type(obj).__name__ == name
        assert isinstance(obj, Record) and not hasattr(obj, "__dict__")

    def test_repr_is_the_dataclass_repr(self, name):
        assert repr(CASES[name][0]) == _expected_repr(name)

    def test_equality_by_value(self, name):
        obj = CASES[name][0]
        twin = copy.deepcopy(obj)
        assert twin is not obj and twin == obj and not twin != obj
        assert obj != object() and (obj == 1) is False

    def test_hash_of_the_field_tuple_when_frozen(self, name):
        obj, _, frozen = CASES[name]
        if not frozen:
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        elif name == "CostModel":   # a dict field: unhashable, as before
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)
        else:
            fields = tuple(getattr(obj, f) for f in type(obj)._fields)
            assert hash(obj) == hash(fields)
            assert hash(copy.deepcopy(obj)) == hash(obj)

    def test_pickle_round_trip(self, name):
        obj = CASES[name][0]
        again = pickle.loads(pickle.dumps(obj))
        assert type(again) is type(obj) and again == obj
        assert repr(again) == repr(obj)

    def test_frozen_refuses_assignment_mutable_accepts_it(self, name):
        obj, _, frozen = CASES[name]
        field = type(obj)._fields[0]
        if frozen:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, field, 1)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, field)
        else:
            twin = copy.copy(obj)
            setattr(twin, field, 99)
            assert getattr(twin, field) == 99 and twin != obj


def test_hash_values_as_the_dataclasses_printed_them():
    # Numeric fields hash the same in every process (strings do not).
    assert hash(TreeNode(2, 0, (3,))) == 1498338576383521517
    assert hash(RecvEdge(0, 7, 8, 2.0, 6.0, 7.0)) == 3331381624175103328
    assert hash(RetryPolicy(5, 0.5, 7)) == -380684696118729111


@pytest.mark.parametrize("name", ["Envelope", "SpmdResult"])
def test_round_trip_through_the_process_backend_codec(name):
    obj = CASES[name][0]
    buf = memoryview(bytearray(1 << 16))
    _, kind = encode_frame(obj, buf, 0)
    assert kind == FRAME_PICKLE
    again, _ = decode_frame(buf, 0)
    assert again == obj and repr(again) == repr(obj)


def test_spmd_result_keeps_its_summary_memo_out_of_its_value():
    res = CASES["SpmdResult"][0]
    twin = copy.deepcopy(res)
    assert res.summary_trace is res.summary_trace   # memoized
    assert twin == res                              # the memo is not a field
    assert pickle.loads(pickle.dumps(res))._summary_cache is None


def test_defaults_and_checks_of_the_constructors():
    assert CostModel().rates == DEFAULT_RATES
    assert CostModel().rates is not CostModel().rates
    assert Trace().collective_calls is not Trace().collective_calls
    with pytest.raises(ValueError, match="latency must be non-negative"):
        CostModel(latency=-1.0)
    with pytest.raises(ValueError, match="max_attempts must be >= 1"):
        RetryPolicy(max_attempts=0)
    cm = CostModel().with_rates(flop=2e-9).with_params(latency=0.0)
    assert cm.rates["flop"] == 2e-9 and cm.latency == 0.0
    assert cm.replace(byte_time=1.0).byte_time == 1.0
    with pytest.raises(TypeError, match="no fields"):
        cm.replace(bandwidth=1.0)
