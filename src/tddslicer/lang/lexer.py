"""Tokenizer shared by programs, predicates, domains, and bindings.

Max-munch over a fixed punctuation table; `//` comments run to end of line.
Reserved words are rejected as identifiers by the parser, not here, so the
same token stream serves every grammar.
"""

from __future__ import annotations

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


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_rest(c: str) -> bool:
    return c.isalnum() or c == "_"


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
        if c.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
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
