"""Transfer semantics for the simulated message-passing substrate.

Two questions must be answered for every message payload:

1. **How many bytes does it occupy on the wire?**  The virtual-time cost
   model charges bandwidth per byte, so message sizes must reflect what a
   real MPI implementation would send (:func:`payload_nbytes`).

2. **How is it isolated from the sender?**  Ranks in this simulator are
   threads in one address space, but they model processes in *distinct*
   address spaces.  If a payload were delivered by reference, a receiver
   mutating its reduction state would corrupt the sender's copy — a bug
   class that cannot exist on real hardware.  :func:`copy_for_transfer`
   therefore deep-copies every payload at the send boundary.
"""

from __future__ import annotations

import copy
import pickle
from typing import Any

import numpy as np

from repro.errors import TransferError

__all__ = [
    "payload_nbytes",
    "cheap_nbytes",
    "copy_for_transfer",
    "ensure_transferable",
    "TransferSized",
    "TransferSafe",
]

_SCALAR_BYTES = 8
_PER_ITEM_OVERHEAD = 8


class TransferSafe:
    """Marker base/mixin for payloads that may cross the send boundary
    **by reference**.

    A class declares itself transfer-safe when its instances are
    immutable after construction (or are never mutated by receivers), so
    the address-space isolation copy is pure overhead.  The marker is the
    attribute ``__transfer_safe__ = True`` — subclassing this mixin is
    the convenient way to set it, but any class may set the attribute
    directly, and an instance may opt back out by setting it False.
    """

    __transfer_safe__ = True


class TransferSized:
    """Mixin for payload classes that know their own wire size.

    A class may define ``transfer_nbytes() -> int`` to report the number
    of bytes a real implementation would serialize for it; this lets
    operator states (e.g. a mink state of k integers) be costed exactly
    instead of by pickled size.
    """

    def transfer_nbytes(self) -> int:  # pragma: no cover - interface
        """Bytes a real implementation would serialize for this value."""
        raise NotImplementedError


def _nbytes(obj: Any, may_pickle: bool) -> int | None:
    if obj is None:
        return 1
    if isinstance(obj, (np.ndarray, np.generic)):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    meth = getattr(obj, "transfer_nbytes", None)
    if callable(meth):
        return int(meth())
    if isinstance(obj, dict):
        # keys and values as two sequences: one per-item overhead a pair
        keys = _nbytes(tuple(obj.keys()), may_pickle)
        values = _nbytes(tuple(obj.values()), may_pickle)
        if keys is None or values is None:
            return None
        return keys + values - _PER_ITEM_OVERHEAD * len(obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        total = 0
        for x in obj:
            n = _nbytes(x, may_pickle)
            if n is None:
                return None
            total += n + _PER_ITEM_OVERHEAD
        return total
    if not may_pickle:
        return None
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return _SCALAR_BYTES


def payload_nbytes(obj: Any) -> int:
    """Estimate the wire size of ``obj`` in bytes.

    NumPy arrays and scalars report their exact buffer size; built-in
    scalars count as 8 bytes; containers sum their elements plus a small
    per-item overhead; objects implementing ``transfer_nbytes`` are asked;
    anything else falls back to its pickle length.
    """
    return _nbytes(obj, True)


def cheap_nbytes(obj: Any) -> int | None:
    """:func:`payload_nbytes` wherever it can be had without pickling
    anything, else ``None`` — what a per-call decision path (the
    collective tuner) can afford to ask."""
    return _nbytes(obj, False)


def copy_for_transfer(obj: Any) -> Any:
    """Return ``obj`` isolated from the sender's address space.

    Immutable scalars are returned as-is; NumPy arrays are copied with
    ``.copy()`` (cheaper than deepcopy); containers are rebuilt
    recursively; everything else is ``copy.deepcopy``-ed.

    Zero-copy fast paths — values that *cannot* be mutated by the
    receiver pass through by reference:

    * non-writeable NumPy arrays (``arr.flags.writeable`` False — freeze
      a payload with ``arr.setflags(write=False)`` to send it for free);
    * ``frozenset``;
    * objects declaring ``__transfer_safe__ = True`` (the
      :class:`TransferSafe` marker);
    * tuples whose elements all pass through unchanged (the original
      tuple object is returned, not a rebuilt copy).
    """
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        return obj
    if isinstance(obj, np.generic):
        return obj  # numpy scalars are immutable
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            return obj
        return obj.copy()
    if isinstance(obj, frozenset):
        return obj
    if getattr(obj, "__transfer_safe__", False):
        return obj
    if isinstance(obj, tuple):
        copied = tuple(copy_for_transfer(x) for x in obj)
        if all(c is x for c, x in zip(copied, obj)):
            return obj
        return copied
    if isinstance(obj, list):
        return [copy_for_transfer(x) for x in obj]
    if isinstance(obj, dict):
        return {copy_for_transfer(k): copy_for_transfer(v) for k, v in obj.items()}
    try:
        return copy.deepcopy(obj)
    except Exception as exc:
        # Fail at the send boundary with the offending type in hand,
        # not deep inside the channel layer with a bare TypeError.
        raise TransferError(
            f"payload of type {type(obj).__name__!r} cannot cross the rank "
            f"boundary: it is neither TransferSafe (immutable, sent by "
            f"reference) nor deep-copyable/picklable ({exc}); mark the "
            f"class with __transfer_safe__ = True if receivers never "
            f"mutate it, or make its state picklable"
        ) from exc


def ensure_transferable(obj: Any) -> bytes:
    """Pickle ``obj`` for a process boundary, or raise :class:`TransferError`.

    The process-backend channel layer uses this to validate a payload
    *before* committing to an IPC frame, so an unpicklable operator or
    state fails with the offending type named instead of a pickle
    traceback from inside a worker pipe.
    """
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise TransferError(
            f"payload of type {type(obj).__name__!r} cannot cross the "
            f"process boundary: it is neither TransferSafe nor picklable "
            f"({exc})"
        ) from exc
