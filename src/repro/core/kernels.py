"""Kernel-compilation tier for the accumulate phase.

The paper's accumulate phase is a local fold over the rank's block —
"should be optimized at the combine function's expense" (§3).  This
module lowers an operator's ``pre_accum``/``accum`` (and ``scan_gen``
for scans) into single-pass NumPy kernels over whole input blocks, the
CPU mirror of Jradi et al.'s generic GPU scan kernels (arXiv
1710.07358): one vectorized sweep instead of one interpreter dispatch
per element.

Three kernel classes cover the ~31 built-in operators:

* :class:`ElementwiseKernel` — the operator is a pure binary ufunc with
  default pre/post hooks (``UfuncOp`` and subclasses).  Accumulate is
  ``ufunc.reduce`` over the block, scan is ``ufunc.accumulate`` —
  numerically *identical* to the operator's own block methods.
* :class:`SegmentedKernel` — the operator ships its own multi-pass
  vectorized block methods (counts' ``bincount``, mink's ``partition``,
  segmented's head-location pass, ...).  The kernel delegates to them;
  classification exists so the cache, metrics, and batching tiers can
  reason about the op uniformly.
* :class:`FallbackKernel` — everything else (stateful per-element
  operators like ``TranslateMinKOp``).  Runs the base-class scalar
  loop, unchanged.

**Identity-oracle guarantee.**  Every kernel path produces results
byte-identical to the path the operator took before this tier existed:
elementwise kernels execute the *same* ufunc expressions as
``UfuncOp.accum_block``/``scan_block``, segmented/fallback kernels call
the operator's own methods.  Faster routings that could change
numerics are gated on provable exactness:

* ``loop_exact`` — the per-element scalar loop is bit-identical to the
  vectorized block path.  True exactly when the ufunc is exactly
  associative on the data's dtype: ``min``/``max``/``logical_*``/
  ``bitwise_*`` on any dtype, ``add``/``multiply`` on bool/int dtypes
  (modular arithmetic), never ``add``/``multiply`` on floats (NumPy's
  pairwise reduction orders differently than a sequential fold).  Only
  loop-exact kernels may be routed to the scalar path by the ``kernel``
  tuning decision — the decision can change speed, never results.
* ``tile_exact`` — threading the state through cache-sized tiles is
  bit-identical to one whole-block pass.  Same ufunc/dtype rule for
  elementwise kernels; trivially true for the fallback loop; assumed
  false for custom segmented block methods (e.g. ``MeanVarOp``'s
  Chan-style combine is order-sensitive in the last bits).  Only a
  batch whose kernels are *all* tile-exact takes the shared single
  sweep in :func:`batched_accumulate`.

**Numba opt-in.**  When numba is importable and enabled
(``configure(numba=True)`` or ``REPRO_NUMBA=1``), loop-exact
elementwise kernels get an ``@njit`` specialization.  The jitted fold
is verified bit-for-bit against the pure-NumPy oracle on a probe block
at build time and discarded on any mismatch — the NumPy path remains
the identity oracle.

The process-wide :class:`KernelCache` memoizes compiled kernels by
``(operator signature, dtype, shape class)``.  Like the PR 5
``ScheduleCache`` it is generation-invalidated: :func:`configure`
bumps :func:`cache_generation`, and a cache whose stored generation is
stale flushes itself on next use.  Hit/miss counts surface through
``stats()`` into engine telemetry, ``repro top`` and Prometheus.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.ops.arithmetic import UfuncOp

__all__ = [
    "Kernel",
    "ElementwiseKernel",
    "SegmentedKernel",
    "FallbackKernel",
    "KernelCache",
    "compile_kernel",
    "default_cache",
    "configure",
    "kernels_enabled",
    "numba_available",
    "numba_enabled",
    "numba_requested",
    "cache_generation",
    "batched_accumulate",
]


# --------------------------------------------------------------------------
# Configuration: process-wide enable switches with a generation counter.

_lock = threading.Lock()
_enabled: bool = os.environ.get("REPRO_KERNELS", "1") != "0"
_numba_requested: bool | None = (
    True if os.environ.get("REPRO_NUMBA", "") not in ("", "0") else None
)
_generation: int = 0


def configure(*, enabled: bool | None = None, numba: bool | None = None) -> None:
    """Flip the kernel tier (``enabled=``) or the numba specialization
    (``numba=``) process-wide.  Any change bumps the cache generation,
    so every :class:`KernelCache` flushes and recompiles lazily."""
    global _enabled, _numba_requested, _generation
    with _lock:
        if enabled is not None:
            _enabled = bool(enabled)
        if numba is not None:
            _numba_requested = bool(numba)
        _generation += 1


def kernels_enabled() -> bool:
    """True when the kernel tier is active (default; ``REPRO_KERNELS=0``
    or ``configure(enabled=False)`` turns it off)."""
    return _enabled


def numba_available() -> bool:
    """True when numba is importable in this environment."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def numba_enabled() -> bool:
    """True when numba specialization is both requested (opt-in via
    ``configure(numba=True)`` or ``REPRO_NUMBA=1``) and importable."""
    return bool(_numba_requested) and numba_available()


def numba_requested() -> bool | None:
    """The raw numba opt-in flag: ``True``/``False`` after an explicit
    ``configure(numba=...)`` or ``REPRO_NUMBA=1``, ``None`` when unset.
    Unlike :func:`numba_enabled` this ignores importability — it is what
    another process must pass to :func:`configure` to mirror this one."""
    return _numba_requested


def cache_generation() -> int:
    """Monotonic configuration generation; bumped by :func:`configure`."""
    return _generation


# --------------------------------------------------------------------------
# Exactness rules (see module docstring).

#: Ufuncs whose fold is exactly associative on every supported dtype.
_EXACT_ANY_DTYPE = frozenset(
    {
        np.minimum,
        np.maximum,
        np.logical_and,
        np.logical_or,
        np.logical_xor,
        np.bitwise_and,
        np.bitwise_or,
        np.bitwise_xor,
    }
)

#: Ufuncs exactly associative only on exact (bool / integer) dtypes.
_EXACT_ON_INT_DTYPES = frozenset({np.add, np.multiply})


def _ufunc_exact(ufunc: np.ufunc, dtype_kind: str | None) -> bool:
    """Is folding ``ufunc`` over data of this dtype kind order-exact?

    ``dtype_kind`` is a NumPy dtype ``kind`` char, or ``None`` for
    plain Python sequences whose element type is unknown (then only the
    any-dtype ufuncs qualify)."""
    if ufunc in _EXACT_ANY_DTYPE:
        return True
    if ufunc in _EXACT_ON_INT_DTYPES:
        return dtype_kind in ("b", "i", "u")
    return False


# --------------------------------------------------------------------------
# Kernel classes.


class Kernel:
    """A compiled accumulate/scan strategy for one (operator, dtype,
    shape-class) combination.  Kernels hold no per-call state: the
    operator instance is passed to every call, so parameterized ops
    (``MinKOp(3)`` vs ``MinKOp(5)``) share one cache entry per class."""

    kind = "fallback"
    #: Scalar per-element loop is bit-identical to :meth:`accumulate`.
    loop_exact = False
    #: Threading state through tiles is bit-identical to one block pass.
    tile_exact = False

    def accumulate(self, op: ReduceScanOp, state: Any, values: Any) -> Any:
        """Fold a whole block into ``state`` (pre/post hooks excluded —
        the driver applies those, exactly as ``accumulate_local`` does)."""
        return op.accum_block(state, values)

    def scan(
        self, op: ReduceScanOp, state: Any, values: Any, *, exclusive: bool
    ) -> tuple[list[Any], Any]:
        """Second scan phase over a whole block: outputs plus final state."""
        return op.scan_block(state, values, exclusive=exclusive)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} kind={self.kind}>"


class FallbackKernel(Kernel):
    """Stateful per-element operator: run the base-class scalar loop.

    The block "path" *is* the loop, so the loop is trivially exact, and
    splitting the loop across tiles threads the identical state through
    the identical calls — tile-exact as well."""

    kind = "fallback"
    loop_exact = True
    tile_exact = True


class SegmentedKernel(Kernel):
    """Operator with custom multi-pass vectorized block methods.

    Delegates to the operator's own ``accum_block``/``scan_block``.
    Neither loop- nor tile-exact: custom block numerics (Chan-style
    mean/variance combines, partition-based top-k) need not match a
    sequential fold or a tiled re-association bit-for-bit."""

    kind = "segmented"
    loop_exact = False
    tile_exact = False


class ElementwiseKernel(Kernel):
    """Pure binary-ufunc operator: one ``ufunc.reduce`` sweep per block.

    Executes exactly the expressions of ``UfuncOp.accum_block`` /
    ``scan_block``, so results are byte-identical to the pre-kernel
    path by construction.  ``loop_exact``/``tile_exact`` are computed
    per dtype at compile time from the associativity rules above.  When
    numba is enabled, a jitted sequential fold replaces the reduce for
    loop-exact dtypes — after passing a bit-identity probe against the
    NumPy oracle."""

    kind = "elementwise"

    def __init__(self, ufunc: np.ufunc, dtype_kind: str | None):
        self.ufunc = ufunc
        self.dtype_kind = dtype_kind
        exact = _ufunc_exact(ufunc, dtype_kind)
        self.loop_exact = exact
        self.tile_exact = exact
        self._jit: Callable[[Any, np.ndarray], Any] | None = None
        if exact and dtype_kind is not None and numba_enabled():
            self._jit = _build_numba_fold(ufunc, dtype_kind)

    def accumulate(self, op: ReduceScanOp, state: Any, values: Any) -> Any:
        if len(values) == 0:
            return state
        arr = np.asarray(values)
        if self._jit is not None and arr.ndim == 1:
            try:
                return self._jit(state, arr)
            except Exception:
                # Unsupported state type for the jitted fold (e.g. an
                # object identity): permanently fall back to the oracle.
                self._jit = None
        return self.ufunc(state, self.ufunc.reduce(arr))

    def scan(
        self, op: ReduceScanOp, state: Any, values: Any, *, exclusive: bool
    ) -> tuple[list[Any], Any]:
        n = len(values)
        if n == 0:
            return [], state
        arr = np.asarray(values)
        inclusive = self.ufunc(state, self.ufunc.accumulate(arr))
        final = inclusive[-1]
        if exclusive:
            out = np.concatenate(([state], inclusive[:-1]))
            return list(out), final
        return list(inclusive), final


# --------------------------------------------------------------------------
# Numba specialization (optional, verified against the NumPy oracle).

#: Scalar bodies for the jitted fold, keyed by ufunc.  Plain operators
#: so numba's type inference sees native arithmetic.
_NUMBA_BODIES: dict[np.ufunc, Callable[[Any, Any], Any]] = {
    np.add: lambda a, b: a + b,
    np.multiply: lambda a, b: a * b,
    np.minimum: lambda a, b: a if a < b else b,
    np.maximum: lambda a, b: a if a > b else b,
    np.bitwise_and: lambda a, b: a & b,
    np.bitwise_or: lambda a, b: a | b,
    np.bitwise_xor: lambda a, b: a ^ b,
    np.logical_and: lambda a, b: bool(a) and bool(b),
    np.logical_or: lambda a, b: bool(a) or bool(b),
    np.logical_xor: lambda a, b: bool(a) != bool(b),
}


def _build_numba_fold(
    ufunc: np.ufunc, dtype_kind: str
) -> Callable[[Any, np.ndarray], Any] | None:
    """Build and *verify* an ``@njit`` sequential fold for ``ufunc``.

    Returns None when numba is unavailable, the ufunc has no scalar
    body, compilation fails, or — crucially — the jitted result is not
    bit-identical to the pure-NumPy oracle on a probe block.  The
    NumPy path always remains the identity oracle."""
    body = _NUMBA_BODIES.get(ufunc)
    if body is None:
        return None
    try:
        import numba
    except Exception:  # pragma: no cover - numba_enabled() gates this
        return None
    try:
        jit_body = numba.njit(cache=False)(body)

        @numba.njit(cache=False)
        def fold(state, arr):
            acc = state
            for i in range(arr.shape[0]):
                acc = jit_body(acc, arr[i])
            return acc

        # Bit-identity probe against the oracle on representative data.
        if dtype_kind == "b":
            probe = np.array([True, False, True, True, False])
            seed = True
        else:
            dtype = {"i": np.int64, "u": np.uint64, "f": np.float64}.get(
                dtype_kind, np.int64
            )
            probe = (np.arange(1, 65) % 7 + 1).astype(dtype)
            seed = probe.dtype.type(1)
        oracle = ufunc(seed, ufunc.reduce(probe))
        got = fold(seed, probe)
        if np.asarray(got).tobytes() != np.asarray(oracle).tobytes():
            return None
    except Exception:
        return None

    def call(state, arr):
        return fold(arr.dtype.type(state), arr)

    return call


# --------------------------------------------------------------------------
# The compiler.


def _classify_value(values: Any) -> tuple[str, str | None]:
    """Cache-key component: ``(shape class, dtype kind)``.

    NumPy arrays key by dtype string and a coarse rank class; plain
    Python sequences share one ``"pyseq"`` class (their element dtype
    is unknown without materializing them)."""
    if isinstance(values, np.ndarray):
        ndim = values.ndim if values.ndim < 2 else 2
        return (f"nd{ndim}:{values.dtype.str}", values.dtype.kind)
    return ("pyseq", None)


def compile_kernel(op: ReduceScanOp, values: Any) -> Kernel:
    """Pattern-match ``op`` into a kernel class for this value shape.

    * ``UfuncOp`` (and subclasses) with the stock block methods and
      default pre/post hooks → :class:`ElementwiseKernel`.
    * Any operator overriding ``accum_block`` or ``scan_block`` →
      :class:`SegmentedKernel` (its own vectorized multi-pass code).
    * Everything else → :class:`FallbackKernel` (base-class loop).
    """
    cls = type(op)
    _, dtype_kind = _classify_value(values)
    if (
        isinstance(op, UfuncOp)
        and cls.accum_block is UfuncOp.accum_block
        and cls.scan_block is UfuncOp.scan_block
        and cls.pre_accum is ReduceScanOp.pre_accum
        and cls.post_accum is ReduceScanOp.post_accum
    ):
        return ElementwiseKernel(op._ufunc, dtype_kind)
    if (
        cls.accum_block is not ReduceScanOp.accum_block
        or cls.scan_block is not ReduceScanOp.scan_block
    ):
        return SegmentedKernel()
    return FallbackKernel()


# --------------------------------------------------------------------------
# The process-wide cache.


class KernelCache:
    """Compiled-kernel memo keyed by ``(operator signature, shape/dtype
    class)``, generation-invalidated like the PR 5 ``ScheduleCache``:
    when :func:`configure` bumps :func:`cache_generation`, the next
    lookup flushes every entry and recompiles lazily.  Hit/miss
    counters feed engine telemetry and the benchmark reports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[tuple, Kernel] = {}
        self._generation = cache_generation()
        self.hits = 0
        self.misses = 0

    def get(self, op: ReduceScanOp, values: Any) -> Kernel:
        """The kernel for ``op`` over ``values``, compiling on miss."""
        key = (op.kernel_signature(), _classify_value(values)[0])
        gen = cache_generation()
        with self._lock:
            if gen != self._generation:
                self._kernels.clear()
                self._generation = gen
            kern = self._kernels.get(key)
            if kern is not None:
                self.hits += 1
                return kern
            self.misses += 1
        # Compile outside the lock (numba builds can be slow); a racing
        # duplicate compile is harmless — last write wins.
        kern = compile_kernel(op, values)
        with self._lock:
            self._kernels[key] = kern
        return kern

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._kernels.clear()

    def stats(self) -> dict[str, Any]:
        """JSON-serializable ``{entries, hits, misses, hit_rate}``."""
        with self._lock:
            entries = len(self._kernels)
            hits, misses = self.hits, self.misses
        total = hits + misses
        return {
            "entries": entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else 0.0,
        }


_DEFAULT_CACHE = KernelCache()


def default_cache() -> KernelCache:
    """The shared process-wide cache (every ``World`` references it, so
    engines and repeated ``spmd_run`` calls reuse compilations)."""
    return _DEFAULT_CACHE


# --------------------------------------------------------------------------
# Batched multi-operator accumulation: one data sweep for K operators.

#: Tile size (elements) for the shared sweep — small enough that a tile
#: of int64 stays L2-resident while K kernels each fold it.
_TILE_ELEMS = 1 << 15


def batched_accumulate(
    ops: Sequence[ReduceScanOp],
    values: Any,
    *,
    cache: KernelCache | None = None,
    metrics: Any = None,
) -> list[Any]:
    """Accumulate the *same* block under K operators, sharing the sweep.

    When every operator's kernel is tile-exact, the block is walked
    once in cache-sized tiles and each tile is folded into all K states
    while hot — one pass over memory instead of K.  Any non-tile-exact
    member demotes the whole batch to per-operator whole-block passes
    (identical numerics are non-negotiable).  Either way each result is
    byte-identical to ``accumulate_local(comm, op, values)`` per op:
    same pre/post hook placement, same kernel per op.
    """
    cache = cache if cache is not None else _DEFAULT_CACHE
    states = [op.ident() for op in ops]
    n = len(values)
    if n == 0:
        return states
    kernels = [cache.get(op, values) for op in ops]
    for i, op in enumerate(ops):
        states[i] = op.pre_accum(states[i], values[0])
    single_sweep = (
        len(ops) > 1
        and n > _TILE_ELEMS
        and all(k.tile_exact for k in kernels)
    )
    if single_sweep:
        for lo in range(0, n, _TILE_ELEMS):
            tile = values[lo : lo + _TILE_ELEMS]
            for i, op in enumerate(ops):
                states[i] = kernels[i].accumulate(op, states[i], tile)
        if metrics is not None and metrics.enabled:
            metrics.counter("kernels.batch.sweeps").inc()
            metrics.counter("kernels.batch.members").inc(len(ops))
    else:
        for i, op in enumerate(ops):
            states[i] = kernels[i].accumulate(op, states[i], values)
        if metrics is not None and metrics.enabled:
            metrics.counter("kernels.batch.fallback_passes").inc(len(ops))
    for i, op in enumerate(ops):
        states[i] = op.post_accum(states[i], values[n - 1])
    return states
