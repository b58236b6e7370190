"""Slot records: the package's one idiom for a plain data class.

A :class:`Record` keeps its fields in its class's ``__slots__`` and is
compared, printed and pickled by those values, as a dataclass would be.
Slots whose names start with ``_`` are private state (a memo, a cache):
they are not fields, so they are neither compared, printed nor pickled.

``class Span(Record)`` is mutable and unhashable, like ``@dataclass``;
``class Band(Record, frozen=True)`` refuses assignment and hashes by
value, like ``@dataclass(frozen=True)``.  A record without an
``__init__`` of its own takes its fields positionally; one with
defaults or checks writes its ``__init__``, and a frozen one stores
through ``Record.__init__(self, *values)`` (which the refusal does not
stop).

Why not ``@dataclass``: creating a dataclass runs generated code through
``exec``, about 1 ms per class here, which every cold start of a job
paid a dozen times over.  A record class costs what a plain class does.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record"]


class Record:
    """A record whose fields are its class's public ``__slots__``."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]  (mutable unless frozen)
    #: The field names, in ``__init__`` order (set per class).
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = tuple(f for f in slots if not f.startswith("_"))
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
            cls.__hash__ = _hash_by_value
        if "__init__" not in cls.__dict__ and cls._fields:
            cls.__init__ = _initializer(
                tuple(cls.__dict__[f].__set__ for f in cls._fields)
            )

    def __init__(self, *values: Any):
        """Store ``values`` positionally, one per field (frozen or not)."""
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {fields}, "
                f"got {len(values)} values"
            )
        for f, v in zip(fields, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def replace(self, **changes: Any):
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        unknown = changes.keys() - set(self._fields)
        if unknown:
            raise TypeError(
                f"{type(self).__name__} has no fields {sorted(unknown)}"
            )
        return self.__class__(
            *[changes.get(f, getattr(self, f)) for f in self._fields]
        )


def _refuse_assignment(self: Record, name: str, value: Any) -> None:
    raise AttributeError(
        f"cannot assign field {name!r}: {type(self).__name__} is immutable"
    )


def _refuse_deletion(self: Record, name: str) -> None:
    raise AttributeError(
        f"cannot delete field {name!r}: {type(self).__name__} is immutable"
    )


def _hash_by_value(self: Record) -> int:
    return hash(self._values())


def _initializer(puts: tuple) -> Any:
    """A positional ``__init__`` storing its arguments through the slot
    setters ``puts``, unrolled for small arities (the DSL parser builds
    a node per token or two)."""
    if len(puts) == 1:
        (p0,) = puts

        def __init__(self, a):
            p0(self, a)
    elif len(puts) == 2:
        p0, p1 = puts

        def __init__(self, a, b):
            p0(self, a)
            p1(self, b)
    elif len(puts) == 3:
        p0, p1, p2 = puts

        def __init__(self, a, b, c):
            p0(self, a)
            p1(self, b)
            p2(self, c)
    elif len(puts) == 4:
        p0, p1, p2, p3 = puts

        def __init__(self, a, b, c, d):
            p0(self, a)
            p1(self, b)
            p2(self, c)
            p3(self, d)
    else:
        return Record.__init__
    return __init__
