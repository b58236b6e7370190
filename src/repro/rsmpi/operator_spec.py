"""Programmatic RSMPI operator declarations (decorator style).

The middle road between writing a full :class:`ReduceScanOp` subclass
and the textual DSL: declare the state record and register the
functions, in the same order and with the same names as a Listing-8
operator block::

    sorted_spec = OperatorSpec(
        "sorted",
        commutative=False,
        state={"first": INT_MAX, "last": INT_MIN, "status": 1},
    )

    @sorted_spec.ident
    def _(s):
        s.first, s.last, s.status = INT_MAX, INT_MIN, 1

    @sorted_spec.pre_accum
    def _(s, i):
        s.first = i

    @sorted_spec.accum
    def _(s, i):
        if s.last > i:
            s.status = 0
        s.last = i

    @sorted_spec.combine
    def _(s1, s2):
        s1.status &= s2.status and (s1.last <= s2.first)
        s1.last = s2.last

    @sorted_spec.generate
    def _(s):
        return s.status

    sorted_op = sorted_spec.build()

All registered functions *mutate* their state argument (the C/RSMPI
convention); the spec wraps them into the return-the-state protocol the
drivers expect.  The DSL preprocessor's code generator targets exactly
this class.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.core.operator import ReduceScanOp
from repro.errors import DslSemanticError, OperatorError
from repro.util.sizing import payload_nbytes

__all__ = ["OperatorSpec", "StateRecord", "INT_MAX", "INT_MIN", "DBL_MAX", "DBL_MIN"]

INT_MAX = 2**31 - 1
INT_MIN = -(2**31)
DBL_MAX = np.finfo(np.float64).max
DBL_MIN = -np.finfo(np.float64).max


def _storer(convert: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def store(value: Any) -> Any:
        if isinstance(value, (list, np.ndarray)):
            return value  # array values are stored as they are
        return convert(value)

    return store


#: C type -> the conversion of a scalar assigned to a state field of
#: that type (the DSL's generated block folds apply the same).
_CONVERT: dict[str, Callable[[Any], Any]] = {
    "int": int,  # Python int() truncates toward zero, like C conversion
    "long": int,
    "float": float,
    "double": float,
    "bool": lambda v: int(bool(v)),
}
#: C type -> what an assignment to a field of that type stores.
_STORE = {ctype: _storer(convert) for ctype, convert in _CONVERT.items()}


def _int_argument(value: Any) -> Any:
    """An argument passed to an ``int`` parameter: an integer stays what
    it is (a NumPy integer keeps its type, so a block fold over an
    integer array need not touch its elements); anything else converts
    as a store to an ``int`` does — a double truncates toward zero."""
    return value if isinstance(value, (int, np.integer)) else int(value)


#: C type -> the conversion of an argument at the call (the integer
#: parameter types; a double parameter takes its argument as it is).
_PARAM = {"int": _int_argument, "long": _int_argument}


def input_components(x: Any, n: int, fname: str) -> tuple | list:
    """The ``n`` components of one input element ``x`` of a
    multi-parameter function ``fname`` (an array row becomes a tuple of
    its elements); raises :class:`OperatorError` on any other shape."""
    if isinstance(x, np.ndarray):
        x = tuple(x)
    if not isinstance(x, (tuple, list)) or len(x) != n:
        raise OperatorError(
            f"{fname} expects {n} input components, got {x!r}"
        )
    return x


class StateRecord:
    """A mutable record with a fixed field set (the operator's ``state``
    struct).  Fields are created from the spec's defaults; assigning an
    unknown field raises, catching DSL typos early.

    When field *types* are supplied (the DSL path), scalar assignments
    are coerced to the declared C type — so ``double n; ... s->n = 0;``
    really stores ``0.0`` and later divisions stay floating-point, and
    assigning a float expression to an ``int`` field truncates toward
    zero exactly as C would.  (Array fields are stored as lists and not
    element-coerced.)
    """

    __slots__ = ("_fields", "_types")

    def __init__(
        self,
        defaults: Mapping[str, Any],
        types: Mapping[str, str] | None = None,
    ):
        object.__setattr__(self, "_fields", dict())
        object.__setattr__(self, "_types", dict(types) if types else None)
        for k, v in defaults.items():
            if isinstance(v, np.ndarray):
                v = v.copy()
            elif isinstance(v, list):
                v = list(v)
            self._fields[k] = v

    def __getattr__(self, name: str) -> Any:
        # Protocol probes (__deepcopy__, __getstate__, ...) and the slot
        # itself must fail fast, or deepcopy/pickle would recurse through
        # this very method before _fields exists.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            fields = object.__getattribute__(self, "_fields")
        except AttributeError:
            raise AttributeError(name) from None
        try:
            return fields[name]
        except KeyError:
            raise AttributeError(
                f"state has no field {name!r}; fields: {sorted(fields)}"
            ) from None

    def __setattr__(self, name: str, value: Any) -> None:
        if name in ("_fields", "_types"):  # slot restoration during copy
            object.__setattr__(self, name, value)
            return
        if name not in self._fields:
            raise AttributeError(
                f"state has no field {name!r}; fields: {sorted(self._fields)}"
            )
        types = object.__getattribute__(self, "_types")
        if types is not None:
            ctype = types.get(name)
            if ctype is not None:
                value = _STORE[ctype](value)
        self._fields[name] = value

    def transfer_nbytes(self) -> int:
        return payload_nbytes(self._fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateRecord):
            return NotImplemented
        if self._fields.keys() != other._fields.keys():
            return False
        for k, v in self._fields.items():
            w = other._fields[k]
            if isinstance(v, np.ndarray) or isinstance(w, np.ndarray):
                if not np.array_equal(v, w):
                    return False
            elif v != w:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        inner = ", ".join(f"{k}={v!r}" for k, v in self._fields.items())
        return f"StateRecord({inner})"


class _SpecOp(ReduceScanOp):
    """ReduceScanOp backed by an OperatorSpec's registered functions."""

    def __init__(self, spec: "OperatorSpec"):
        self._spec = spec
        self.commutative = spec.commutative

    @property
    def name(self) -> str:
        return self._spec.name

    def ident(self):
        s = StateRecord(self._spec.state_defaults, self._spec.state_types)
        if self._spec.fn_ident is not None:
            self._spec.fn_ident(s)
        return s

    def pre_accum(self, state, x):
        if self._spec.fn_pre_accum is not None:
            self._spec.call_with_input(self._spec.fn_pre_accum, state, x)
        return state

    def accum(self, state, x):
        self._spec.call_with_input(self._spec.fn_accum, state, x)
        return state

    def post_accum(self, state, x):
        if self._spec.fn_post_accum is not None:
            self._spec.call_with_input(self._spec.fn_post_accum, state, x)
        return state

    def combine(self, s1, s2):
        self._spec.fn_combine(s1, s2)
        return s1

    def gen(self, state):
        if self._spec.fn_generate is not None:
            return self._spec.fn_generate(state)
        return state

    def red_gen(self, state):
        if self._spec.fn_red_generate is not None:
            return self._spec.fn_red_generate(state)
        return self.gen(state)

    def scan_gen(self, state, x):
        if self._spec.fn_scan_generate is not None:
            return self._spec.call_with_input(
                self._spec.fn_scan_generate, state, x
            )
        return self.gen(state)

    def state_eq(self, s1, s2):
        # field-wise comparison with float tolerance (exact == would
        # flag floating-point drift in e.g. Chan-style combines as a
        # law violation)
        from repro.core.validation import state_equal

        return state_equal(s1._fields, s2._fields)


class _BlockSpecOp(_SpecOp):
    """A DSL operator whose preprocessor generated a block fold: its
    ``accum`` statements run over the whole block on state fields held
    in locals (``repro.rsmpi.preprocessor.codegen``).  Threading those
    same per-element statements through tiles is the same fold, so the
    operator is tile-exact."""

    tile_exact = True

    def accum_block(self, state, values):
        return self._spec.fn_accum_block(state, values)


class OperatorSpec:
    """Collects an RSMPI operator declaration and builds the operator."""

    def __init__(
        self,
        name: str,
        *,
        commutative: bool = True,
        state: Mapping[str, Any] | None = None,
        state_types: Mapping[str, str] | None = None,
    ):
        self.name = name
        self.commutative = bool(commutative)
        self.state_defaults: dict[str, Any] = dict(state or {})
        #: optional field -> C-type map enabling C-style assignment
        #: coercion in the states (the DSL path supplies it)
        self.state_types: dict[str, str] | None = (
            dict(state_types) if state_types else None
        )
        self.fn_ident: Callable | None = None
        self.fn_pre_accum: Callable | None = None
        self.fn_accum: Callable | None = None
        self.fn_post_accum: Callable | None = None
        self.fn_combine: Callable | None = None
        self.fn_generate: Callable | None = None
        self.fn_red_generate: Callable | None = None
        self.fn_scan_generate: Callable | None = None
        #: ``accum`` over a whole block, ``(state, values) -> state``;
        #: generated by the DSL preprocessor (None: the per-element loop)
        self.fn_accum_block: Callable | None = None
        #: why the preprocessor generated no block fold (None if it did,
        #: or for a spec that did not come from the DSL)
        self.block_fallback: str | None = None

    # -- registration decorators ---------------------------------------------

    def ident(self, fn: Callable) -> Callable:
        self.fn_ident = fn
        return fn

    def pre_accum(self, fn: Callable) -> Callable:
        self.fn_pre_accum = fn
        return fn

    def accum(self, fn: Callable) -> Callable:
        self.fn_accum = fn
        return fn

    def post_accum(self, fn: Callable) -> Callable:
        self.fn_post_accum = fn
        return fn

    def combine(self, fn: Callable) -> Callable:
        self.fn_combine = fn
        return fn

    def generate(self, fn: Callable) -> Callable:
        self.fn_generate = fn
        return fn

    def red_generate(self, fn: Callable) -> Callable:
        self.fn_red_generate = fn
        return fn

    def scan_generate(self, fn: Callable) -> Callable:
        self.fn_scan_generate = fn
        return fn

    # -- input plumbing ----------------------------------------------------------

    @staticmethod
    def call_with_input(fn: Callable, state: Any, x: Any) -> Any:
        """Multi-parameter accumulate functions receive tuple inputs
        unpacked: ``accum(state s, int v, int i)`` takes ``(v, i)``."""
        nargs = fn.__code__.co_argcount
        if nargs <= 2:
            return fn(state, x)
        return fn(state, *input_components(x, nargs - 1, fn.__name__))

    # -- build ----------------------------------------------------------------------

    def build(self) -> ReduceScanOp:
        """Validate the declaration and return the operator."""
        if self.fn_accum is None:
            raise DslSemanticError(
                f"operator {self.name!r}: missing required function 'accum'"
            )
        if self.fn_combine is None:
            raise DslSemanticError(
                f"operator {self.name!r}: missing required function 'combine'"
            )
        if not self.state_defaults and self.fn_ident is None:
            raise DslSemanticError(
                f"operator {self.name!r}: declare a state block or an "
                "ident function"
            )
        if self.fn_accum_block is not None:
            return _BlockSpecOp(self)
        return _SpecOp(self)
