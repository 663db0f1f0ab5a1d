"""Tokenizer shared by programs, predicates, domains, and bindings.

Max-munch over a fixed punctuation table; `//` comments run to end of line.
Identifiers are ASCII letters, digits and `_`, not starting with a digit,
and integer literals ASCII digits; any other character outside comments
and whitespace is a ParseError. Reserved words are rejected as identifiers
by the parser, not here, so the same token stream serves every grammar.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from ..errors import ParseError

PUNCT = (
    ":=", "==", "!=", "<=", ">=", "&&", "||", "..",
    "{", "}", "(", ")", ",", ";", ":", "=", "<", ">",
    "+", "-", "*", "/", "%", "^", "!",
)

RESERVED = frozenset(
    ("proc", "in", "out", "var", "skip", "if", "else", "while",
     "exists", "TRUE", "FALSE")
)

EOF = "<eof>"


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "int" | a punctuation string | EOF
    text: str
    line: int
    col: int


_DIGITS = frozenset(string.digits)
_IDENT_START = frozenset(string.ascii_letters + "_")
_IDENT_REST = _IDENT_START | _DIGITS


def _is_ident_start(c: str) -> bool:
    return c in _IDENT_START


def _is_ident_rest(c: str) -> bool:
    return c in _IDENT_REST


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if _is_ident_start(c):
            start = i
            while i < n and _is_ident_rest(text[i]):
                i += 1
            word = text[start:i]
            tokens.append(Token("ident", word, line, col))
            col += i - start
            continue
        if c in _DIGITS:
            start = i
            while i < n and text[i] in _DIGITS:
                i += 1
            tokens.append(Token("int", text[start:i], line, col))
            col += i - start
            continue
        for punct in PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token(punct, punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token(EOF, "", line, col))
    return tokens
