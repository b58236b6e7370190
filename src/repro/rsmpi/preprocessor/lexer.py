"""Tokenizer for the RSMPI operator DSL (the C-like language of paper
Listing 8).

The token stream carries line/column positions so parse errors point at
the offending source.  Comments (``//`` and ``/* */``) are skipped.
"""

from __future__ import annotations

from repro.errors import DslSyntaxError
from repro.rsmpi.preprocessor.ast_nodes import Node

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "rsmpi",
        "operator",
        "state",
        "commutative",
        "non-commutative",
        "param",
        "void",
        "int",
        "long",
        "float",
        "double",
        "bool",
        "if",
        "else",
        "for",
        "while",
        "return",
        "break",
        "continue",
        "true",
        "false",
    }
)

# Longest-match-first punctuation.
_PUNCT = [
    "<<=", ">>=",
    "->", "++", "--", "&&", "||", "<<", ">>",
    "<=", ">=", "==", "!=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "{", "}", "(", ")", "[", "]", ";", ",",
    "<", ">", "=", "+", "-", "*", "/", "%",
    "&", "|", "^", "!", "~", "?", ":", ".",
]


class Token(Node):
    # kind: "ident" | "keyword" | "number" | "punct" | "eof"
    __slots__ = ("kind", "text", "line", "col")

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(src: str) -> list[Token]:
    """Tokenize DSL source; raises DslSyntaxError on illegal characters."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def bump(text: str) -> None:
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = src[i]
        # whitespace
        if ch in " \t\r\n":
            bump(ch)
            i += 1
            continue
        # comments
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            bump(src[i:j])
            i = j
            continue
        if src.startswith("/*", i):
            j = src.find("*/", i + 2)
            if j < 0:
                raise DslSyntaxError("unterminated /* comment", line, col)
            bump(src[i : j + 2])
            i = j + 2
            continue
        # identifiers / keywords (allow the hyphen of "non-commutative")
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            # special case: "non-commutative" is one keyword
            if word == "non" and src.startswith("-commutative", j):
                word = "non-commutative"
                j += len("-commutative")
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            bump(src[i:j])
            i = j
            continue
        # numbers (ints and simple floats, with exponents)
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = src[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    seen_exp = True
                    j += 1
                    if j < n and src[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token("number", src[i:j], line, col))
            bump(src[i:j])
            i = j
            continue
        # punctuation
        for p in _PUNCT:
            if src.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                bump(p)
                i += len(p)
                break
        else:
            raise DslSyntaxError(f"illegal character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens
