"""AST for the RSMPI operator DSL.

Every node is a :class:`Node`: a frozen
:class:`~repro.util.record.Record` whose fields are its class's
``__slots__``, compared, hashed and printed by value.
"""

from __future__ import annotations

from typing import Optional

from repro.util.record import Record

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


class Node(Record, frozen=True):
    """An immutable AST record (:class:`repro.util.record.Record`): its
    fields are the class's ``__slots__``, given positionally."""

    __slots__ = ()


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
