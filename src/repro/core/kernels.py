"""How a block is folded: the kernel tier for the accumulate phase.

The paper's accumulate phase is a local fold over the rank's block —
"should be optimized at the combine function's expense" (§3).  Every
operator does that optimizing itself, in its ``accum_block`` /
``scan_block`` methods (``UfuncOp``'s ``ufunc.reduce``, counts'
``bincount``, mink's compare against its running k-th value, ...; the
base class loops over ``accum``).  A :class:`Kernel` is those methods
plus a *classification* the drivers, the span profile and the batching tier
can reason about uniformly — the one-generic-kernel idea of Jradi et al.
(arXiv 1710.07358) applied to classification rather than code
generation:

* :class:`ElementwiseKernel` — a pure binary ufunc with ``UfuncOp``'s own
  block methods and the default pre/post hooks.
* :class:`SegmentedKernel` — the operator ships custom multi-pass block
  methods (counts, mink, meanvar, segmented, ...).
* :class:`FallbackKernel` — everything else: the base-class scalar loop.

All three fold by calling the operator's methods, so a result can never
depend on the classification.  What the classification decides is
``tile_exact`` — whether threading the state through cache-sized tiles
is bit-identical to one whole-block pass.  True for elementwise kernels
exactly when the ufunc is exactly associative on the data's dtype
(``min``/``max``/``logical_*``/``bitwise_*`` on any dtype,
``add``/``multiply`` on bool/int dtypes, never on floats: NumPy's
pairwise reduction orders differently per tile); trivially true for the
fallback loop; for custom segmented block methods it is what the
operator declares (``ReduceScanOp.tile_exact``, default False:
``MeanVarOp``'s Chan-style combine is order-sensitive in the last bits;
True on the k-selection family and the integer bin counters, whose
folds are exactly associative — ``check_operator`` samples the claim).
Only a batch whose kernels are *all* tile-exact takes the
shared single sweep in :func:`batched_accumulate` — the cache-tiling
argument of Prajapati (arXiv 1801.05909).

The process-wide :class:`KernelCache` memoizes classifications by
``(operator signature, dtype, shape class)``; hit/miss counts surface
through ``stats()`` into ``Engine.stats()["kernel_cache"]``.
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

import numpy as np

from repro.core.operator import TILE_ELEMS, ReduceScanOp
from repro.ops.arithmetic import UfuncOp

__all__ = [
    "Kernel",
    "ElementwiseKernel",
    "SegmentedKernel",
    "FallbackKernel",
    "KernelCache",
    "compile_kernel",
    "default_cache",
    "numba_available",
    "batched_accumulate",
    "sweep_width",
]


def numba_available() -> bool:
    """True when numba is installed on this host.

    A host fact kept for the benchmark's fingerprint — nothing in the
    package uses numba — so it looks the distribution up without
    importing it (an import would load numba and llvmlite into the
    process whose memory and start-up time are being recorded)."""
    from importlib.util import find_spec

    return find_spec("numba") is not None


# --------------------------------------------------------------------------
# Tile-exactness rules (see module docstring).

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
    """How one (operator, dtype, shape-class) combination folds a block:
    the operator's own block methods plus their classification.  Kernels
    hold no per-call state: the operator instance is passed to every
    call, so parameterized ops (``MinKOp(3)`` vs ``MinKOp(5)``) share
    one cache entry per class."""

    kind = "fallback"
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
    """Stateful per-element operator: the base-class scalar loop.

    Splitting the loop across tiles threads the identical state through
    the identical calls, so it is tile-exact."""

    kind = "fallback"
    tile_exact = True


class SegmentedKernel(Kernel):
    """Operator with custom multi-pass vectorized block methods.

    Tile-exact when the operator declares it: custom block numerics
    (Chan-style mean/variance combines) need not match a tiled
    re-association bit-for-bit, exact ones (k-selection, integer bin
    counts) say so with ``tile_exact = True`` on the class."""

    kind = "segmented"

    def __init__(self, tile_exact: bool):
        self.tile_exact = tile_exact


class ElementwiseKernel(Kernel):
    """Pure binary-ufunc operator: ``UfuncOp``'s one ``ufunc.reduce``
    sweep per block (``ufunc.accumulate`` for scans).  ``tile_exact`` is
    computed per dtype from the associativity rules above."""

    kind = "elementwise"

    def __init__(self, ufunc: np.ufunc, dtype_kind: str | None):
        self.ufunc = ufunc
        self.dtype_kind = dtype_kind
        self.tile_exact = _ufunc_exact(ufunc, dtype_kind)


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
      :class:`SegmentedKernel` (its own vectorized multi-pass code),
      tile-exact when the operator declares ``tile_exact``.
    * Everything else → :class:`FallbackKernel` (base-class loop).

    The test is structural — which class's methods ``type(op)`` ends up
    with — so a subclass that overrides a block method or hook drops out
    of the elementwise class by itself.
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
        return SegmentedKernel(bool(op.tile_exact))
    return FallbackKernel()


# --------------------------------------------------------------------------
# The process-wide cache.


class KernelCache:
    """Kernel memo keyed by ``(operator signature, shape/dtype class)``.
    A classification depends on nothing but that key, so entries never
    go stale.  Hit/miss counters feed ``Engine.stats()`` and the
    benchmark reports."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[tuple, Kernel] = {}
        self.hits = 0
        self.misses = 0

    def get(self, op: ReduceScanOp, values: Any) -> Kernel:
        """The kernel for ``op`` over ``values``, compiling on miss."""
        key = (op.kernel_signature(), _classify_value(values)[0])
        with self._lock:
            kern = self._kernels.get(key)
            if kern is not None:
                self.hits += 1
                return kern
            self.misses += 1
            kern = self._kernels[key] = compile_kernel(op, values)
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


def sweep_width(kernels: Sequence[Kernel], n: int) -> int:
    """How many operators one walk over an ``n``-element block folds in
    :func:`batched_accumulate`: all of them when every kernel is
    tile-exact and the block spans more than one tile, else 1 (each
    operator gets its own whole-block pass)."""
    if (
        len(kernels) > 1
        and n > TILE_ELEMS
        and all(k.tile_exact for k in kernels)
    ):
        return len(kernels)
    return 1


def batched_accumulate(
    ops: Sequence[ReduceScanOp],
    values: Any,
    *,
    cache: KernelCache | None = None,
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
    if sweep_width(kernels, n) > 1:
        for lo in range(0, n, TILE_ELEMS):
            tile = values[lo : lo + TILE_ELEMS]
            for i, op in enumerate(ops):
                states[i] = kernels[i].accumulate(op, states[i], tile)
    else:
        for i, op in enumerate(ops):
            states[i] = kernels[i].accumulate(op, states[i], values)
    for i, op in enumerate(ops):
        states[i] = op.post_accum(states[i], values[n - 1])
    return states
