"""AST for the RSMPI operator DSL.

Every node is a :class:`Node`: an immutable record whose fields are its
class's ``__slots__``, compared, hashed and printed by value.  (Plain
slot classes rather than frozen dataclasses: creating a dataclass runs
generated code through ``exec``, which for 28 node classes cost tens of
milliseconds of every import of the preprocessor.)
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "Node",
    "OperatorDecl",
    "ParamDecl",
    "FieldDecl",
    "FuncDecl",
    "ParamVar",
    # statements
    "Stmt",
    "Block",
    "VarDecl",
    "ExprStmt",
    "If",
    "For",
    "While",
    "Return",
    "Break",
    "Continue",
    # expressions
    "Expr",
    "Num",
    "BoolLit",
    "Name",
    "Unary",
    "Binary",
    "Assign",
    "AugAssign",
    "Ternary",
    "Index",
    "Field",
    "Call",
    "IncDec",
]


class Node:
    """An immutable record.  Its fields are the class's ``__slots__``,
    given positionally; equality, hashing and ``repr`` go by class and
    field values."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _initializer(
                tuple(cls.__dict__[f].__set__ for f in cls.__slots__)
            )

    def __init__(self, *values: Any):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {fields}, "
                f"got {len(values)} values"
            )
        for f, v in zip(fields, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"cannot assign field {name!r}: {type(self).__name__} is immutable"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r}: {type(self).__name__} is immutable"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __reduce__(self):
        return (self.__class__, self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({inner})"


def _initializer(puts: tuple) -> Any:
    """A positional ``__init__`` storing its arguments through the slot
    setters ``puts`` — unrolled for the arities the DSL uses, since the
    parser builds a node per token or two."""
    if len(puts) == 0:
        def __init__(self):
            pass
    elif len(puts) == 1:
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
        return Node.__init__
    return __init__


# -- expressions -------------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)  # int | float


class BoolLit(Expr):
    __slots__ = ("value",)  # bool


class Name(Expr):
    __slots__ = ("ident",)


class Unary(Expr):
    __slots__ = ("op", "operand")  # op: "!", "-", "+", "~"


class Binary(Expr):
    __slots__ = ("op", "left", "right")


class Ternary(Expr):
    __slots__ = ("cond", "then", "other")


class Assign(Expr):
    __slots__ = ("target", "value")  # target: Name | Index | Field


class AugAssign(Expr):
    # op: "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"
    __slots__ = ("op", "target", "value")


class Index(Expr):
    __slots__ = ("base", "index")


class Field(Expr):
    __slots__ = ("base", "name")  # via "->" or "."


class Call(Expr):
    __slots__ = ("func", "args")  # args: tuple[Expr, ...]


class IncDec(Expr):
    __slots__ = ("op", "target", "prefix")  # op: "++" or "--"


# -- statements --------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)  # tuple[Stmt, ...]


class VarDecl(Stmt):
    # names: tuple of (name, array-size or None, initializer or None)
    __slots__ = ("ctype", "names")


class ExprStmt(Stmt):
    __slots__ = ("expr",)


class If(Stmt):
    __slots__ = ("cond", "then", "other")  # other: Optional[Stmt]


class For(Stmt):
    # init: VarDecl | ExprStmt | None; cond, update: Optional[Expr]
    __slots__ = ("init", "cond", "update", "body")


class While(Stmt):
    __slots__ = ("cond", "body")


class Return(Stmt):
    __slots__ = ("value",)  # Optional[Expr]


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


# -- declarations -------------------------------------------------------------


class ParamDecl(Node):
    """``param int k = 10;`` — a compile-time constant, overridable at
    compile_operator() time (our analogue of Chapel's ``const k``)."""

    __slots__ = ("ctype", "name", "default")  # default: Optional[Expr]


class FieldDecl(Node):
    """One state field: ``int v[10];`` has array_size; scalars don't."""

    __slots__ = ("ctype", "name", "array_size")  # array_size: Optional[Expr]


class ParamVar(Node):
    """A function parameter: ``state s`` or ``int i`` or ``int a[]``."""

    __slots__ = ("ctype", "name", "is_array")  # ctype: "state" or a scalar type


class FuncDecl(Node):
    # params: tuple[ParamVar, ...]; body: Block
    __slots__ = ("rettype", "name", "params", "body")


class OperatorDecl(Node):
    """A whole ``rsmpi operator`` block."""

    __slots__ = ("name", "commutative", "params", "state_fields", "functions")

    def __init__(
        self,
        name: str,
        commutative: bool = True,
        params: Optional[list[ParamDecl]] = None,
        state_fields: Optional[list[FieldDecl]] = None,
        functions: Optional[dict[str, FuncDecl]] = None,
    ):
        Node.__init__(
            self, name, commutative, list(params or ()), list(state_fields or ()),
            dict(functions or {}),
        )
