"""The global-view operator protocol (paper Section 3).

A user-defined reduction/scan operator supplies up to seven functions
with the paper's type signatures (``in`` = input element type, ``state``
= accumulation type, ``out`` = result type)::

    ident      : ()              -> state
    pre_accum  : (state, in)     -> state      (optional)
    accum      : (state, in)     -> state
    post_accum : (state, in)     -> state      (optional)
    combine    : (state, state)  -> state
    red_gen    : (state)         -> out        (optional; default: gen)
    scan_gen   : (state, in)     -> out        (optional; default: gen)

plus a compile-time ``commutative`` flag (Listing 7's ``param``): when
False, the runtime restricts itself to order-preserving combining
schedules; when True, wider fan-out / combine-as-available schedules may
be used.

Conventions (matching the Chapel classes in Listings 4–7 and the RSMPI
DSL in Listing 8):

* ``accum``/``pre_accum``/``post_accum``/``combine`` may mutate their
  (left/state) argument and must return the state; ``combine`` must not
  mutate its *right* argument.  The driver owns every state object it
  passes in, so mutation is always safe.
* ``combine(s1, s2)``: ``s1`` is the accumulation of an *earlier*
  (lower-rank) contiguous run of the data than ``s2``.  Commutative
  operators may ignore this.
* The *generate* functions translate final states to outputs.  Like
  Chapel's shared ``gen``, :meth:`ReduceScanOp.gen` serves both roles
  unless ``red_gen``/``scan_gen`` are overridden (the ``counts``
  operator of Listing 6 overrides both).

Performance extensions (beyond the paper, but in its spirit — §3 notes
the accumulate function "should be optimized at the combine function's
expense"):

* ``accum_block(state, values)`` — vectorized accumulation of a whole
  local block (default: a Python loop over ``accum``).
* ``scan_block(state, values)`` — vectorized "generate + re-accumulate"
  pass for the scan's second phase (default: a Python loop).
* ``tile_exact`` — class attribute declaring that ``accum_block`` may be
  applied tile by tile with a byte-identical result (default False).
* ``accum_rate`` / ``combine_seconds`` — cost-model hooks the drivers
  use to charge virtual time for the accumulate and combine phases.
"""

from __future__ import annotations

from typing import Generic, Sequence, TypeVar

import numpy as np

from repro import _lazy

__all__ = ["ReduceScanOp", "state_equal", "TILE_ELEMS"]

#: Tile size (elements) of the shared accumulate sweep, and of the block
#: folds that walk a block tile by tile themselves — small enough that a
#: tile of int64 stays L2-resident while K kernels each fold it.
TILE_ELEMS = 1 << 15

In = TypeVar("In")
State = TypeVar("State")
Out = TypeVar("Out")


class ReduceScanOp(Generic[In, State, Out]):
    """Base class for global-view reduction/scan operators."""

    #: Listing 7's ``param commutative``; assumed True when not overridden
    #: ("If it is undefined, it is assumed to be true by the compiler").
    commutative: bool = True

    #: True when ``combine`` applies independently per element of a 1-D
    #: NumPy array state, so the runtime may *segment* the state across
    #: ranks (ring / Rabenseifner / pipelined schedules).  Operators
    #: whose state is a whole object (mink, meanvar, ...) must leave
    #: this False.
    elementwise: bool = False

    #: True when ``accum_block`` is exactly associative over the block:
    #: threading the state through any cut of the block into tiles gives
    #: the byte-identical state as one whole-block call (k-selection,
    #: integer bin counts; never a float sum).  The kernel tier folds
    #: such operators tile by tile in a sweep shared with others;
    #: ``check_operator`` samples the claim.
    tile_exact: bool = False

    #: Optional cost-model rate name for charging the accumulate phase
    #: (seconds/element); None disables accumulate charging.
    accum_rate: str | None = None

    #: Optional per-combine-call virtual-time charge (seconds).
    combine_seconds: float = 0.0

    # -- required ----------------------------------------------------------

    def ident(self) -> State:
        """Return a fresh identity state (the default constructor of the
        Chapel operator class)."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement ident()"
        )

    def accum(self, state: State, x: In) -> State:
        """Fold one input element into the state; return the state."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement accum()"
        )

    def combine(self, s1: State, s2: State) -> State:
        """Combine two states; ``s1`` covers the earlier run.  May mutate
        and return ``s1``; must not mutate ``s2``."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement combine()"
        )

    # -- optional hooks ------------------------------------------------------

    def pre_accum(self, state: State, x: In) -> State:
        """Called with the rank's *first* element before accumulation."""
        return state

    def post_accum(self, state: State, x: In) -> State:
        """Called with the rank's *last* element after accumulation."""
        return state

    def gen(self, state: State) -> Out:
        """Shared generate function; defaults to the state itself."""
        return state  # type: ignore[return-value]

    def red_gen(self, state: State) -> Out:
        """Generate the reduction result from the final state."""
        return self.gen(state)

    def scan_gen(self, state: State, x: In) -> Out:
        """Generate one scan output from a prefix state and the input at
        that position (the input lets e.g. ``counts`` emit per-octant
        rankings, Listing 6)."""
        return self.gen(state)

    # -- block fast paths ------------------------------------------------------

    def accum_block(self, state: State, values: Sequence[In] | np.ndarray) -> State:
        """Accumulate a whole local block; override to vectorize."""
        for x in values:
            state = self.accum(state, x)
        return state

    def scan_block(
        self, state: State, values: Sequence[In] | np.ndarray, *, exclusive: bool
    ) -> tuple[list[Out], State]:
        """Second phase of the scan on one rank: emit one output per
        element while re-accumulating.  Exclusive emits before
        accumulating (Listing 3 lines 12–13); inclusive after (the
        line-interchange noted under Listing 3).  Override to vectorize.
        """
        out: list[Out] = []
        if exclusive:
            for x in values:
                out.append(self.scan_gen(state, x))
                state = self.accum(state, x)
        else:
            for x in values:
                state = self.accum(state, x)
                out.append(self.scan_gen(state, x))
        return out, state

    # -- metadata ----------------------------------------------------------------

    def kernel_signature(self) -> tuple:
        """Hashable key under which the kernel tier caches this
        operator's compiled kernel (see :mod:`repro.core.kernels`).

        The default — the concrete class — is right for any operator
        whose block-path *structure* is determined by its type:
        parameterized instances (``MinKOp(3)`` vs ``MinKOp(5)``) share
        one kernel because kernels hold no per-instance state.
        Override when instances of one class need distinct kernels
        (``UfuncOp`` adds its ufunc)."""
        return (type(self),)

    @property
    def name(self) -> str:
        return type(self).__name__

    def state_eq(self, s1: State, s2: State) -> bool:
        """Equality of states (used by operator-law validation)."""
        from repro.core.validation import state_equal

        return state_equal(s1, s2)

    def __repr__(self) -> str:
        kind = "commutative" if self.commutative else "non-commutative"
        return f"{self.name}({kind})"


# ``state_equal`` lives beside ``check_operator`` in :mod:`repro.core.validation`.
__getattr__, __dir__, _ = _lazy.attach(__name__, {"validation": ("state_equal",)})
