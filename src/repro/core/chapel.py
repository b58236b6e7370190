"""Chapel-style operator classes: the state lives in ``self``.

The paper's Chapel listings (4–7) store the reduction state in the
*fields of the operator class* — ``accum`` mutates ``this``, ``combine``
takes the other instance as its only argument, the default constructor
computes the identity.  The :class:`~repro.core.operator.ReduceScanOp`
protocol instead passes explicit state values, which is the natural
Python shape — but translating a Chapel listing then requires moving
every field access.

:class:`ChapelOp` removes that friction: subclass it exactly like a
Chapel reduction class and each *instance* is one accumulation state.

    class mink(ChapelOp):                     # Listing 4, line for line
        commutative = True

        def __init__(self, in_t_max, k=10):   # default constructor
            self.k = k                        #   computes the identity
            self.v = np.full(k, in_t_max)

        def accum(self, x):
            if x < self.v[0]:
                self.v[0] = x
                for i in range(1, self.k):
                    if self.v[i - 1] < self.v[i]:
                        self.v[i - 1], self.v[i] = self.v[i], self.v[i - 1]

        def combine(self, s):
            for x in s.v:
                self.accum(x)

        def gen(self):
            return self.v

    minimums = global_reduce(comm, mink.as_op(INT_MAX, 10), A)

``as_op(*ctor_args)`` returns the ReduceScanOp adapter; fresh states are
fresh instances (the "compiler creates as many instances of that class
as are needed", §3.1.1).  Optional methods mirror the protocol:
``pre_accum``/``post_accum``/``red_gen``/``scan_gen(x)``, all taking
``self`` as the state.
"""

from __future__ import annotations

from typing import Any

from repro.core.operator import ReduceScanOp
from repro.core.validation import state_equal
from repro.errors import OperatorError
from repro.util.sizing import payload_nbytes

__all__ = ["ChapelOp", "ChapelOpAdapter"]


class ChapelOp:
    """Base class for Chapel-style reduction/scan operator classes.

    Subclasses must define ``accum(self, x)`` and ``combine(self, s)``;
    may define ``pre_accum``/``post_accum``/``gen``/``red_gen``/
    ``scan_gen``; may set ``commutative`` (default True, like Chapel's
    undeclared param).  The constructor is the identity function.
    """

    commutative: bool = True

    def accum(self, x: Any) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must define accum(self, x)"
        )

    def combine(self, s: "ChapelOp") -> None:
        raise NotImplementedError(
            f"{type(self).__name__} must define combine(self, s)"
        )

    def gen(self) -> Any:
        return self

    def transfer_nbytes(self) -> int:
        return payload_nbytes(vars(self))

    @classmethod
    def as_op(cls, *ctor_args: Any, **ctor_kwargs: Any) -> "ChapelOpAdapter":
        """The ReduceScanOp adapter; arguments go to every fresh state's
        constructor (Chapel's ``mink(integer, 10)`` instantiation)."""
        return ChapelOpAdapter(cls, ctor_args, ctor_kwargs)


class ChapelOpAdapter(ReduceScanOp):
    """Adapts a ChapelOp subclass to the explicit-state protocol.

    A class that defines the optional ``accum_block(self, values)`` hook
    gets the subclass that overrides ``accum_block``; one that does not
    keeps the base-class loop *as the base class's method*, which is
    what the kernel tier classifies operators by."""

    def __new__(cls, chapel_cls: type | None = None, *args: Any, **kwargs: Any):
        if cls is ChapelOpAdapter and hasattr(chapel_cls, "accum_block"):
            cls = _BlockChapelOpAdapter
        return super().__new__(cls)

    def __init__(self, cls: type, ctor_args: tuple, ctor_kwargs: dict):
        if not (isinstance(cls, type) and issubclass(cls, ChapelOp)):
            raise OperatorError(
                f"as_op() needs a ChapelOp subclass, got {cls!r}"
            )
        self._cls = cls
        self._args = ctor_args
        self._kwargs = ctor_kwargs
        self.commutative = bool(cls.commutative)

    @property
    def name(self) -> str:
        return self._cls.__name__

    # -- protocol ----------------------------------------------------------

    def ident(self) -> ChapelOp:
        return self._cls(*self._args, **self._kwargs)

    def accum(self, state: ChapelOp, x: Any) -> ChapelOp:
        state.accum(x)
        return state

    def combine(self, s1: ChapelOp, s2: ChapelOp) -> ChapelOp:
        s1.combine(s2)
        return s1

    def pre_accum(self, state: ChapelOp, x: Any) -> ChapelOp:
        hook = getattr(state, "pre_accum", None)
        if hook is not None:
            hook(x)
        return state

    def post_accum(self, state: ChapelOp, x: Any) -> ChapelOp:
        hook = getattr(state, "post_accum", None)
        if hook is not None:
            hook(x)
        return state

    def gen(self, state: ChapelOp) -> Any:
        return state.gen()

    def red_gen(self, state: ChapelOp) -> Any:
        hook = getattr(state, "red_gen", None)
        if hook is not None:
            return hook()
        return state.gen()

    def scan_gen(self, state: ChapelOp, x: Any) -> Any:
        hook = getattr(state, "scan_gen", None)
        if hook is not None:
            return hook(x)
        return state.gen()

    def state_eq(self, s1: ChapelOp, s2: ChapelOp) -> bool:
        return state_equal(vars(s1), vars(s2))


class _BlockChapelOpAdapter(ChapelOpAdapter):
    """The adapter of a ChapelOp subclass with an ``accum_block`` hook."""

    def accum_block(self, state: ChapelOp, values) -> ChapelOp:
        state.accum_block(values)
        return state
