"""The process backend's shared-memory frame codec.

The process-parallel world backend (:mod:`repro.runtime.procworld`)
moves the accumulate phase's bulk data between the parent and its rank
workers through ``multiprocessing.shared_memory`` ring buffers.  The
unit of exchange is a *frame*: a small fixed header followed by either
the raw bytes of an ndarray (decoded on the other side as a zero-copy,
read-only view into the segment) or a validated pickle (the fallback
for arbitrary operator states).  Only the process backend runs it, so it
is kept out of :mod:`repro.runtime.channels` (which re-exports it).
"""

from __future__ import annotations

from typing import Any

import pickle as _pickle
import struct as _struct

import numpy as _np

from repro.errors import TransferError as _TransferError

__all__ = [
    "FRAME_ND", "FRAME_PICKLE", "FrameTooLarge", "frame_nbytes_needed",
    "encode_frame", "decode_frame",
]

#: Frame kinds.
FRAME_ND = 1  #: raw ndarray bytes, zero-copy decodable
FRAME_PICKLE = 2  #: pickled object bytes

#: Header: magic, kind (u8), reserved, payload offset (u32, from frame
#: start), payload nbytes (u64).  The payload offset lets the encoder
#: align ndarray bytes without the decoder re-deriving padding.
_FRAME_HEADER = _struct.Struct("<4sBxxxIQ")
_FRAME_MAGIC = b"RFR1"
#: ndarray sub-header: dtype-str length (u32), ndim (u32); followed by
#: the dtype string and ndim u64 dims.
_ND_HEADER = _struct.Struct("<II")
_DIM = _struct.Struct("<Q")
#: ndarray payloads start on a 64-byte boundary so decoded views are
#: cache-line (and always itemsize) aligned.
_ND_ALIGN = 64


class FrameTooLarge(Exception):
    """Internal: the frame does not fit the ring's capacity (the pool
    falls back to sending the payload through the command pipe)."""


def _nd_encodable(arr: "_np.ndarray") -> bool:
    """Can ``arr`` travel as raw bytes?  Object dtypes never can;
    exotic dtypes must round-trip through their ``str`` form."""
    if arr.dtype.hasobject:
        return False
    try:
        return _np.dtype(arr.dtype.str) == arr.dtype
    except TypeError:
        return False


def frame_nbytes_needed(obj: Any) -> int:
    """Upper bound on the frame size for ``obj`` (ndarray path only;
    pickle frames are sized exactly by encoding)."""
    if isinstance(obj, _np.ndarray) and _nd_encodable(obj):
        meta = _ND_HEADER.size + len(obj.dtype.str) + _DIM.size * obj.ndim
        return _FRAME_HEADER.size + meta + _ND_ALIGN + int(obj.nbytes)
    return 0


def encode_frame(obj: Any, buf: memoryview, offset: int) -> tuple[int, int]:
    """Encode ``obj`` as a frame into ``buf`` at ``offset``.

    Returns ``(end_offset, kind)``.  C- or F-contiguous *and* strided
    ndarrays of non-object dtype are written as raw C-order bytes
    (strided sources pay one gathering copy into the segment — still no
    intermediate allocation); everything else is pickled.  Raises
    :class:`FrameTooLarge` when the frame would overrun ``buf`` and
    :class:`~repro.errors.TransferError` when the object is neither an
    encodable ndarray nor picklable.
    """
    cap = len(buf)
    if isinstance(obj, _np.ndarray) and _nd_encodable(obj):
        dt = obj.dtype.str.encode("ascii")
        meta_off = offset + _FRAME_HEADER.size
        meta_end = meta_off + _ND_HEADER.size + len(dt) + _DIM.size * obj.ndim
        pay_off = -(-meta_end // _ND_ALIGN) * _ND_ALIGN
        end = pay_off + int(obj.nbytes)
        if end > cap:
            raise FrameTooLarge(end - offset)
        _FRAME_HEADER.pack_into(
            buf, offset, _FRAME_MAGIC, FRAME_ND, pay_off - offset,
            int(obj.nbytes),
        )
        _ND_HEADER.pack_into(buf, meta_off, len(dt), obj.ndim)
        pos = meta_off + _ND_HEADER.size
        buf[pos : pos + len(dt)] = dt
        pos += len(dt)
        for dim in obj.shape:
            _DIM.pack_into(buf, pos, dim)
            pos += _DIM.size
        if obj.nbytes:
            dest = _np.ndarray(
                obj.shape, dtype=obj.dtype, buffer=buf, offset=pay_off
            )
            _np.copyto(dest, obj)
        return end, FRAME_ND
    try:
        payload = _pickle.dumps(obj, protocol=_pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise _TransferError(
            f"payload of type {type(obj).__name__!r} cannot cross the "
            f"process boundary: it is neither a raw-encodable ndarray "
            f"nor picklable ({exc})"
        ) from exc
    pay_off = offset + _FRAME_HEADER.size
    end = pay_off + len(payload)
    if end > cap:
        raise FrameTooLarge(end - offset)
    _FRAME_HEADER.pack_into(
        buf, offset, _FRAME_MAGIC, FRAME_PICKLE, _FRAME_HEADER.size,
        len(payload),
    )
    buf[pay_off:end] = payload
    return end, FRAME_PICKLE


def decode_frame(
    buf: memoryview, offset: int, *, copy: bool = False
) -> tuple[Any, int]:
    """Decode the frame at ``offset``; returns ``(obj, end_offset)``.

    ndarray frames decode as **zero-copy read-only views** into ``buf``
    unless ``copy=True`` (the parent copies result states out of the
    ring before reusing it; workers read input views in place).
    """
    magic, kind, pay_rel, nbytes = _FRAME_HEADER.unpack_from(buf, offset)
    if magic != _FRAME_MAGIC:
        raise ValueError(
            f"corrupt frame at offset {offset}: bad magic {magic!r}"
        )
    pay_off = offset + pay_rel
    if kind == FRAME_PICKLE:
        return _pickle.loads(buf[pay_off : pay_off + nbytes]), pay_off + nbytes
    if kind != FRAME_ND:
        raise ValueError(f"corrupt frame at offset {offset}: kind {kind}")
    meta_off = offset + _FRAME_HEADER.size
    dt_len, ndim = _ND_HEADER.unpack_from(buf, meta_off)
    pos = meta_off + _ND_HEADER.size
    dtype = _np.dtype(bytes(buf[pos : pos + dt_len]).decode("ascii"))
    pos += dt_len
    shape = tuple(
        _DIM.unpack_from(buf, pos + i * _DIM.size)[0] for i in range(ndim)
    )
    arr = _np.ndarray(shape, dtype=dtype, buffer=buf, offset=pay_off)
    if copy:
        return arr.copy(), pay_off + nbytes
    arr.setflags(write=False)
    return arr, pay_off + nbytes
