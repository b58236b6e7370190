"""Process-parallel accumulate offload: the ``backend="process"`` pool.

The threaded virtual-time world is this project's bit-identity oracle,
but every accumulate phase it runs holds the GIL, so compute-heavy
operators serialize no matter how many ranks the pool has.  This module
adds a pool of long-lived **rank worker processes** that execute the
accumulate phase's fold concurrently across cores, while *everything
else* — virtual-time charging, tracer spans, fault injection, the
combine and generate phases, message matching — stays in the parent.
That split is what makes byte-identity provable rather than hoped for:

* The worker runs exactly the fold of
  :func:`repro.core.reduce._accumulate_impl` (``ident`` → ``pre_accum``
  → kernel fold → ``post_accum``) through the same
  :mod:`repro.core.kernels` tier — the operator's own block method.
* The parent applies the *same* virtual-time charge it would have
  applied for an in-process fold, so clocks, traces and message
  schedules cannot diverge.
* Any condition that prevents offload — unpicklable operator, dead
  worker, oversize frame with an unpicklable payload — degrades to the
  in-process fold (:data:`MISS`), never to a different answer.

Data moves through per-worker ``multiprocessing.shared_memory`` ring
buffers using the frame codec of :mod:`repro.runtime.channels`:
ndarray blocks are written once into the request ring and mapped on the
worker side as **zero-copy read-only views**; result states come back
through the response ring the same way (the parent copies them out
before the slot can be reused).  Payloads that are not raw-encodable
ndarrays — Python lists, tuple states, object dtypes — travel as
validated pickles over the command pipe instead (counted as
``pickle_fallbacks``).  One request is outstanding per worker at a
time, matching the engine's one-thread-per-pool-rank invariant, so the
rings need no cross-process locking.

Workers are forked (POSIX), so they inherit the parent's shared-memory
mappings and the operator classes directly; each worker keeps its
**own** :class:`~repro.core.kernels.KernelCache`.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from typing import Any

import numpy as np

# Everything the worker loop runs is imported here, at the top, so it is
# loaded in the parent before any fork: a worker that imported its
# kernel-tier modules itself would do so once per worker, after the
# fork, with no copy-on-write sharing.
from repro.core import kernels as _kernels
from repro.errors import TransferError
from repro.runtime.channels import (
    MISS,
    FrameTooLarge,
    decode_frame,
    encode_frame,
    frame_nbytes_needed,
)
from repro.util.sizing import ensure_transferable, payload_nbytes

__all__ = ["MISS", "ProcPool", "RING_BYTES", "MIN_OFFLOAD_BYTES"]

#: Capacity of each request/response ring (per worker, per direction).
#: Frames larger than this fall back to the command pipe — they are not
#: errors, just not zero-copy.
RING_BYTES = 1 << 24  # 16 MiB

#: Blocks smaller than this are folded in-process.  Fitted, not chosen
#: (EXPERIMENTS EX-BACKEND): the smallest block at which a GIL-holding
#: fold offloaded to a worker beat the thread backend in at least 4 of
#: 5 interleaved rounds on the recording host, the cell below it losing.
MIN_OFFLOAD_BYTES = 1 << 18  # 256 KiB

#: /dev/shm name prefix for this package's segments, so leak checks (and
#: humans) can attribute them.
SHM_PREFIX = "repro-pw"

_pool_registry: "weakref.WeakSet[ProcPool]" = weakref.WeakSet()


@atexit.register
def _reap_pools_at_exit() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_pool_registry):
        try:
            pool.shutdown(timeout=0.5)
        except Exception:
            pass


def _fold_state(op: Any, values: Any) -> Any:
    """The accumulate fold, exactly as ``_accumulate_impl`` runs it
    (minus virtual-time charges, which stay in the parent)."""
    state = op.ident()
    n = len(values)
    if n > 0:
        state = op.pre_accum(state, values[0])
        kern = _kernels.default_cache().get(op, values)
        state = kern.accumulate(op, state, values)
        state = op.post_accum(state, values[n - 1])
    return state


def _worker_main(conn, req_shm, resp_shm) -> None:
    """Rank worker loop: recv command, fold, reply.  Runs in the child.

    The shared-memory segments arrive through fork inheritance — the
    child never attaches by name, so it owns no resource-tracker
    registration and must never unlink (the parent does both).
    """
    req_buf = req_shm.buf
    resp_buf = resp_shm.buf
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        except (KeyboardInterrupt, SystemExit):
            # A Ctrl-C delivered to the process group must terminate the
            # worker, not turn into an error reply the parent misreads.
            break
        if msg is None:
            break
        # Every request carries a sequence id, echoed in the reply, so
        # the parent can discard a reply it has stopped waiting for
        # (e.g. the late pong of a timed-out probe) instead of
        # attributing it to the next request.
        if msg[0] == "ping":
            try:
                conn.send((msg[1], True, "pong"))
            except (BrokenPipeError, OSError):
                break
            continue
        # ("accum", seq, op_bytes, ("shm", offset) | ("pipe", blob))
        seq = msg[1]
        try:
            _, _, op_bytes, payload = msg
            op = pickle.loads(op_bytes)
            if payload[0] == "shm":
                values, _ = decode_frame(req_buf, payload[1])
            else:
                values = pickle.loads(payload[1])
            state = _fold_state(op, values)
            try:
                encode_frame(state, resp_buf, 0)
                reply = (seq, True, ("shm", 0))
            except (FrameTooLarge, TransferError):
                reply = (seq, True, ("pipe", state))
        except (KeyboardInterrupt, SystemExit):
            break
        except Exception as exc:  # noqa: BLE001 - reported to parent
            reply = (seq, False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception:
            # The state itself refused to pickle through the pipe; the
            # parent is still waiting, so degrade to a miss report.
            try:
                conn.send((seq, False, "state not transferable"))
            except Exception:
                break
    os._exit(0)


class _Ring:
    """A per-worker shared-memory frame arena with a bump cursor.

    One request is outstanding per worker, so successive frames are
    placed back-to-back and the cursor wraps to zero whenever the next
    frame would not fit — a single-producer ring whose slots are
    implicitly freed by the request/reply handshake.
    """

    __slots__ = ("shm", "buf", "capacity", "cursor")

    def __init__(self, shm):
        self.shm = shm
        self.buf = shm.buf
        self.capacity = len(self.buf)
        self.cursor = 0

    def place(self, need: int) -> int:
        """Reserve ``need`` bytes; returns the write offset."""
        if need <= 0 or need > self.capacity:
            raise FrameTooLarge(need)
        if self.cursor + need > self.capacity:
            self.cursor = 0
        return self.cursor


class _Worker:
    __slots__ = ("rank", "proc", "conn", "req", "resp", "lock", "alive", "seq")

    def __init__(self, rank: int, req: _Ring, resp: _Ring):
        self.rank = rank
        self.req = req
        self.resp = resp
        self.lock = threading.Lock()
        self.proc = None
        self.conn = None
        self.alive = False
        self.seq = 0

    def spawn(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.req.shm, self.resp.shm),
            name=f"repro-procworld-{self.rank}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.alive = True
        self.seq = 0
        self.req.cursor = 0


class ProcPool:
    """A pool of forked rank workers executing accumulate folds.

    One worker per pool rank: the engine runs at most one job rank per
    world rank at a time, so worker ``r`` serves exactly the thread that
    owns world rank ``r`` and requests never queue behind each other.

    The pool is installed on a :class:`~repro.runtime.world.World` as
    ``world.proc_pool``; :func:`repro.core.reduce._accumulate_impl`
    consults it and falls back to the in-process fold whenever
    :meth:`accumulate` returns :data:`MISS`.
    """

    def __init__(self, nranks: int):
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        from multiprocessing import shared_memory

        self._ctx = multiprocessing.get_context("fork")
        self._closed = False
        self._stats_lock = threading.Lock()
        self._frames = 0
        self._bytes = 0
        self._shm_hits = 0
        self._pickle_fallbacks = 0
        self._inline_fallbacks = 0
        self._worker_deaths = 0
        self._worker_restarts = 0
        self._shms: list[Any] = []
        self._workers: list[_Worker] = []
        # Pickled-operator memo: operators rarely change between
        # requests, so their bytes are cached per op instance instead of
        # re-pickled on every accumulate (weak keys — the memo never
        # keeps an operator alive).
        self._op_cache: "weakref.WeakKeyDictionary[Any, bytes]" = (
            weakref.WeakKeyDictionary()
        )
        try:
            for r in range(nranks):
                req = shared_memory.SharedMemory(
                    create=True, size=RING_BYTES,
                    name=f"{SHM_PREFIX}-{os.getpid()}-{id(self) & 0xFFFF:x}-{r}-req",
                )
                resp = shared_memory.SharedMemory(
                    create=True, size=RING_BYTES,
                    name=f"{SHM_PREFIX}-{os.getpid()}-{id(self) & 0xFFFF:x}-{r}-resp",
                )
                self._shms.extend((req, resp))
                w = _Worker(r, _Ring(req), _Ring(resp))
                w.spawn(self._ctx)
                self._workers.append(w)
        except Exception:
            self.shutdown(timeout=0.5)
            raise
        _pool_registry.add(self)

    # -- the hot path -------------------------------------------------------

    def accumulate(self, rank: int, op: Any, values: Any) -> Any:
        """Offload one accumulate fold to worker ``rank``.

        Returns the folded state, or :data:`MISS` when the request was
        not offloadable (small block, unpicklable operator, dead or
        missing worker) — the caller then folds in-process, which is
        always correct, just not parallel.
        """
        if self._closed or not 0 <= rank < len(self._workers):
            return MISS
        w = self._workers[rank]
        if not w.alive:
            return MISS
        if isinstance(values, np.ndarray):
            nbytes = int(values.nbytes)
        else:
            nbytes = payload_nbytes(values)
        if nbytes < MIN_OFFLOAD_BYTES:
            return MISS
        try:
            op_bytes = self._op_bytes(op)
        except TransferError:
            with self._stats_lock:
                self._inline_fallbacks += 1
            return MISS
        with w.lock:
            if not w.alive:
                return MISS
            try:
                return self._roundtrip(w, op_bytes, values)
            except (BrokenPipeError, EOFError, OSError):
                self._mark_dead(w)
                return MISS
            except TransferError:
                with self._stats_lock:
                    self._inline_fallbacks += 1
                return MISS

    def _op_bytes(self, op: Any) -> bytes:
        """Pickle ``op`` for the process boundary, memoized per operator
        instance (raises :class:`TransferError` exactly as
        :func:`ensure_transferable` does)."""
        try:
            cached = self._op_cache.get(op)
        except TypeError:  # unhashable or non-weakrefable operator
            return ensure_transferable(op)
        if cached is not None:
            return cached
        blob = ensure_transferable(op)
        try:
            self._op_cache[op] = blob
        except TypeError:
            pass
        return blob

    @staticmethod
    def _matched_recv(w: _Worker, seq: int) -> tuple:
        """Receive the reply to request ``seq``, discarding any stale
        reply an abandoned earlier request (e.g. a timed-out probe) left
        queued on the pipe — the worker echoes every request's sequence
        id, so a late reply can never be attributed to the wrong
        request."""
        while True:
            reply = w.conn.recv()
            if reply[0] == seq:
                return reply[1], reply[2]

    def _roundtrip(self, w: _Worker, op_bytes, values) -> Any:
        need = frame_nbytes_needed(values)
        payload = None
        if need:
            try:
                off = w.req.place(need)
                end, _ = encode_frame(values, w.req.buf, off)
                w.req.cursor = end
                payload = ("shm", off)
                shm_hit = True
                framed = end - off
            except FrameTooLarge:
                payload = None
        if payload is None:
            # Not a raw-encodable ndarray (or too big for the ring):
            # send the validated pickle bytes themselves over the
            # command pipe — the worker loads them, so the payload is
            # pickled exactly once.
            blob = ensure_transferable(values)
            payload = ("pipe", blob)
            shm_hit = False
            framed = len(blob)
        w.seq += 1
        seq = w.seq
        w.conn.send(("accum", seq, op_bytes, payload))
        ok, result = self._matched_recv(w, seq)
        with self._stats_lock:
            self._frames += 2
            self._bytes += framed
            if shm_hit:
                self._shm_hits += 1
            else:
                self._pickle_fallbacks += 1
        if not ok:
            # The worker's fold raised.  Recompute in-process so the
            # genuine exception (with its real traceback) surfaces
            # exactly as the thread backend would raise it.
            with self._stats_lock:
                self._inline_fallbacks += 1
            return MISS
        kind, val = result
        if kind == "shm":
            state, end = decode_frame(w.resp.buf, val, copy=True)
            with self._stats_lock:
                self._bytes += end - val
                self._shm_hits += 1
            return state
        with self._stats_lock:
            self._bytes += payload_nbytes(val)
            self._pickle_fallbacks += 1
        return val

    # -- health -------------------------------------------------------------

    def _mark_dead(self, w: _Worker) -> None:
        w.alive = False
        with self._stats_lock:
            self._worker_deaths += 1

    def worker_alive(self, rank: int) -> bool:
        """True when worker ``rank`` is believed serviceable."""
        w = self._workers[rank]
        return w.alive and w.proc is not None and w.proc.is_alive()

    def dead_workers(self) -> list[int]:
        """Ranks whose worker process is dead or marked failed."""
        out = []
        for w in self._workers:
            if not w.alive or w.proc is None or not w.proc.is_alive():
                if w.alive:
                    self._mark_dead(w)
                out.append(w.rank)
        return out

    def ping(self, rank: int, timeout: float = 1.0) -> bool:
        """Liveness probe: one command-pipe round trip to worker
        ``rank``.  Non-blocking with respect to in-flight accumulates:
        a busy worker (lock held) counts as alive.

        A probe that times out marks the worker **dead**: its late
        reply would otherwise sit queued on the pipe in front of the
        next request's reply, so the pipe cannot be trusted again until
        :meth:`restart_worker` re-forks the worker with a fresh one.
        (The per-request sequence ids are a second line of defense: a
        stale reply that does reach a reader is discarded, never
        returned as a fold result.)"""
        if self._closed:
            return False
        w = self._workers[rank]
        if not w.alive:
            return False
        if not w.lock.acquire(timeout=timeout):
            return True  # busy folding == alive
        try:
            w.seq += 1
            seq = w.seq
            w.conn.send(("ping", seq))
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not w.conn.poll(remaining):
                    self._mark_dead(w)
                    return False
                reply = w.conn.recv()
                if reply[0] == seq:
                    return bool(reply[1]) and reply[2] == "pong"
                # Stale reply from an earlier abandoned request: discard
                # and keep waiting for our own pong.
        except (BrokenPipeError, EOFError, OSError):
            self._mark_dead(w)
            return False
        finally:
            w.lock.release()

    def restart_worker(self, rank: int) -> bool:
        """Re-fork a dead or unresponsive worker over its existing shm
        rings.

        An ``is_alive()`` process is not proof of a serviceable worker:
        the state a ping timeout leaves behind is alive-but-unresponsive
        with a desynced pipe.  So a seemingly healthy worker is trusted
        only after a fresh ping round trip; anything else is terminated
        and re-forked with a fresh pipe."""
        if self._closed:
            return False
        w = self._workers[rank]
        if w.alive and w.proc is not None and w.proc.is_alive():
            if self.ping(rank):
                return True
            # The ping failed and marked the worker dead: fall through
            # to the re-fork so the desynced pipe is replaced.
        with w.lock:
            if self._closed:
                return False
            try:
                if w.proc is not None:
                    w.proc.terminate()
                    w.proc.join(timeout=1.0)
                    if w.proc.is_alive():
                        # SIGTERM stays pending on a stopped process;
                        # SIGKILL does not.
                        w.proc.kill()
                        w.proc.join(timeout=1.0)
                if w.conn is not None:
                    w.conn.close()
                w.spawn(self._ctx)
            except Exception:
                w.alive = False
                return False
        with self._stats_lock:
            self._worker_restarts += 1
        return self.ping(rank)

    # -- lifecycle ----------------------------------------------------------

    def shm_names(self) -> list[str]:
        """The pool's segment names (leak-check hook for tests)."""
        return [shm.name for shm in self._shms]

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop every worker and reap every shared-memory segment.

        Idempotent.  Workers get a graceful stop command, then
        ``terminate()``; segments are closed and unlinked by the parent
        (the sole owner), so repeated engine create/shutdown cycles
        leak neither processes nor ``/dev/shm`` entries.
        """
        if self._closed:
            return
        self._closed = True
        for w in self._workers:
            w.alive = False
            try:
                if w.conn is not None:
                    w.conn.send(None)
            except Exception:
                pass
        for w in self._workers:
            p = w.proc
            if p is None:
                continue
            p.join(timeout=timeout)
            if p.is_alive():
                p.terminate()
                p.join(timeout=timeout)
            try:
                if w.conn is not None:
                    w.conn.close()
            except Exception:
                pass
        for shm in self._shms:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._shms.clear()
        _pool_registry.discard(self)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- observability ------------------------------------------------------

    def ipc_stats(self) -> dict[str, int]:
        """IPC counters (see ``docs/backends.md``): ``frames`` and
        ``bytes`` count both directions; ``shm_hits`` are zero-copy
        shared-memory frames, ``pickle_fallbacks`` pipe-pickled ones;
        ``inline_fallbacks`` are requests that returned :data:`MISS`
        after an offload was attempted (unpicklable payload or worker
        error)."""
        with self._stats_lock:
            return {
                "frames": self._frames,
                "bytes": self._bytes,
                "shm_hits": self._shm_hits,
                "pickle_fallbacks": self._pickle_fallbacks,
                "inline_fallbacks": self._inline_fallbacks,
                "worker_deaths": self._worker_deaths,
                "worker_restarts": self._worker_restarts,
            }
