"""Recursive-descent parser for the RSMPI operator DSL.

Grammar (paper Listing 8 plus small conveniences)::

    operator    : "rsmpi" "operator" IDENT "{" item* "}"
    item        : "commutative" | "non-commutative"
                | "param" type IDENT ("=" expr)? ";"
                | "state" "{" fielddecl* "}"
                | funcdef
    fielddecl   : type declarator ("," declarator)* ";"
    declarator  : IDENT ("[" expr "]")?
    funcdef     : rettype IDENT "(" params? ")" block
    rettype     : type | "void" | "state"
    param       : ("state" | type) IDENT ("[" "]")?

Statements and expressions are a C subset: declarations, assignment and
compound assignment, ``if``/``else``, C-style ``for``, ``while``,
``return``, ``break``, ``continue`` (in ``while`` loops), blocks; the
ternary operator, short-circuit ``&&``/``||``,
bitwise/relational/additive/multiplicative operators, unary ``!``/``-``/
``~``, postfix indexing, ``->`` and ``.`` field access, and
``++``/``--`` (statement and for-update positions only).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DslSyntaxError
from repro.rsmpi.preprocessor import ast_nodes as A
from repro.rsmpi.preprocessor.lexer import Token, tokenize

__all__ = ["parse_operator"]

_TYPES = {"int", "long", "float", "double", "bool"}
_AUG_OPS = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token helpers -------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, msg: str, tok: Token | None = None) -> DslSyntaxError:
        tok = tok or self.peek()
        got = tok.text or "<eof>"
        return DslSyntaxError(f"{msg} (got {got!r})", tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}", tok)
        return tok

    def expect_ident(self) -> str:
        tok = self.next()
        if tok.kind != "ident":
            raise self.error("expected an identifier", tok)
        return tok.text

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    # -- top level ------------------------------------------------------------

    def parse(self) -> A.OperatorDecl:
        self.expect("rsmpi")
        self.expect("operator")
        name = self.expect_ident()
        commutative: bool | None = None
        params: list[A.ParamDecl] = []
        state_fields: list[A.FieldDecl] = []
        functions: dict[str, A.FuncDecl] = {}
        self.expect("{")
        while not self.at("}"):
            tok = self.peek()
            if tok.text in ("commutative", "non-commutative"):
                if commutative is not None:
                    raise self.error("duplicate commutativity flag", tok)
                commutative = tok.text == "commutative"
                self.next()
            elif tok.text == "param":
                params.append(self.parse_param_decl())
            elif tok.text == "state":
                if state_fields:
                    raise self.error("duplicate state block", tok)
                state_fields = self.parse_state_block()
            elif tok.text in _TYPES or tok.text in ("void", "state"):
                fn = self.parse_function()
                if fn.name in functions:
                    raise self.error(f"duplicate function {fn.name!r}", tok)
                functions[fn.name] = fn
            else:
                raise self.error(
                    "expected a commutativity flag, 'param', 'state' or a "
                    "function definition",
                    tok,
                )
        self.expect("}")
        if self.peek().kind != "eof":
            raise self.error("trailing input after operator block")
        return A.OperatorDecl(
            name, commutative is not False, params, state_fields, functions
        )

    def parse_param_decl(self) -> A.ParamDecl:
        self.expect("param")
        ctype = self.next().text
        if ctype not in _TYPES:
            raise self.error(f"bad param type {ctype!r}")
        name = self.expect_ident()
        default = None
        if self.accept("="):
            default = self.parse_expr()
        self.expect(";")
        return A.ParamDecl(ctype, name, default)

    def parse_state_block(self) -> list[A.FieldDecl]:
        self.expect("state")
        self.expect("{")
        fields: list[A.FieldDecl] = []
        while not self.at("}"):
            ctype = self.next().text
            if ctype not in _TYPES:
                raise self.error(f"bad state field type {ctype!r}")
            while True:
                name = self.expect_ident()
                size = None
                if self.accept("["):
                    size = self.parse_expr()
                    self.expect("]")
                fields.append(A.FieldDecl(ctype, name, size))
                if not self.accept(","):
                    break
            self.expect(";")
        self.expect("}")
        return fields

    def parse_function(self) -> A.FuncDecl:
        rettype = self.next().text
        name = self.expect_ident()
        self.expect("(")
        params: list[A.ParamVar] = []
        if not self.at(")"):
            while True:
                ptok = self.next()
                ptype = ptok.text
                if ptype != "state" and ptype not in _TYPES:
                    raise self.error(f"bad parameter type {ptype!r}", ptok)
                pname = self.expect_ident()
                is_array = False
                if self.accept("["):
                    self.expect("]")
                    is_array = True
                params.append(A.ParamVar(ptype, pname, is_array))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_block()
        return A.FuncDecl(rettype, name, tuple(params), body)

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> A.Block:
        self.expect("{")
        stmts: list[A.Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return A.Block(tuple(stmts))

    def parse_stmt(self) -> A.Stmt:
        tok = self.peek()
        if tok.text == "{":
            return self.parse_block()
        if tok.text == ";":
            self.next()
            return A.Block(())
        if tok.text in _TYPES:
            return self.parse_var_decl()
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "return":
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return A.Return(value)
        if tok.text == "break":
            self.next()
            self.expect(";")
            return A.Break()
        if tok.text == "continue":
            self.next()
            self.expect(";")
            return A.Continue()
        expr = self.parse_expr()
        self.expect(";")
        return A.ExprStmt(expr)

    def parse_var_decl(self) -> A.VarDecl:
        ctype = self.next().text
        entries: list[tuple[str, Optional[A.Expr], Optional[A.Expr]]] = []
        while True:
            name = self.expect_ident()
            size = None
            init = None
            if self.accept("["):
                size = self.parse_expr()
                self.expect("]")
            if self.accept("="):
                init = self.parse_expr()
            entries.append((name, size, init))
            if not self.accept(","):
                break
        self.expect(";")
        return A.VarDecl(ctype, tuple(entries))

    def parse_if(self) -> A.If:
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_stmt()
        other = self.parse_stmt() if self.accept("else") else None
        return A.If(cond, then, other)

    def parse_for(self) -> A.For:
        self.expect("for")
        self.expect("(")
        init: Optional[A.Stmt] = None
        if not self.accept(";"):
            if self.peek().text in _TYPES:
                init = self.parse_var_decl()  # consumes ';'
            else:
                init = A.ExprStmt(self.parse_expr())
                self.expect(";")
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        update = None if self.at(")") else self.parse_expr()
        self.expect(")")
        body = self.parse_stmt()
        return A.For(init, cond, update, body)

    def parse_while(self) -> A.While:
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return A.While(cond, self.parse_stmt())

    # -- expressions (precedence climbing) --------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> A.Expr:
        left = self.parse_ternary()
        tok = self.peek()
        if tok.text == "=":
            self._check_lvalue(left, tok)
            self.next()
            return A.Assign(left, self.parse_assignment())
        if tok.text in _AUG_OPS:
            self._check_lvalue(left, tok)
            self.next()
            return A.AugAssign(_AUG_OPS[tok.text], left, self.parse_assignment())
        return left

    def _check_lvalue(self, e: A.Expr, tok: Token) -> None:
        if not isinstance(e, (A.Name, A.Index, A.Field)):
            raise self.error("invalid assignment target", tok)

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_expr()
            self.expect(":")
            other = self.parse_ternary()
            return A.Ternary(cond, then, other)
        return cond

    _LEVELS = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", ">", "<=", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def parse_binary(self, level: int) -> A.Expr:
        if level >= len(self._LEVELS):
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        while self.peek().text in self._LEVELS[level]:
            op = self.next().text
            right = self.parse_binary(level + 1)
            left = A.Binary(op, left, right)
        return left

    def parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.text in ("!", "-", "+", "~"):
            self.next()
            return A.Unary(tok.text, self.parse_unary())
        if tok.text in ("++", "--"):
            self.next()
            target = self.parse_unary()
            self._check_lvalue(target, tok)
            return A.IncDec(tok.text, target, True)
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            tok = self.peek()
            if tok.text == "[":
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                expr = A.Index(expr, idx)
            elif tok.text in ("->", "."):
                self.next()
                expr = A.Field(expr, self.expect_ident())
            elif tok.text in ("++", "--"):
                self.next()
                self._check_lvalue(expr, tok)
                expr = A.IncDec(tok.text, expr, False)
            elif tok.text == "(" and isinstance(expr, A.Name):
                self.next()
                args: list[A.Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                expr = A.Call(expr.ident, tuple(args))
            else:
                return expr

    def parse_primary(self) -> A.Expr:
        tok = self.next()
        if tok.kind == "number":
            text = tok.text
            if any(c in text for c in ".eE"):
                return A.Num(float(text))
            return A.Num(int(text))
        if tok.text in ("true", "false"):
            return A.BoolLit(tok.text == "true")
        if tok.kind == "ident":
            return A.Name(tok.text)
        if tok.text == "(":
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error("expected an expression", tok)


def parse_operator(src: str) -> A.OperatorDecl:
    """Parse one ``rsmpi operator`` block; raises DslSyntaxError."""
    return _Parser(tokenize(src)).parse()
