"""Tokenizer shared by programs, predicates, domains, and bindings.

One compiled pattern scans the text. Its named groups are tried in order at
each position: a newline; a run of other whitespace (`[^\\S\\n]`, the
`str.isspace()` characters other than a newline, one column each); a `//`
comment to the end of the line, which leaves the column where it began; an
identifier of ASCII letters, digits and `_`, not starting with a digit; an
integer literal of ASCII digits; a punctuation token, longest first (max
munch); and finally any one other character, which is a ParseError.
Reserved words are rejected as identifiers by the parser, not here, so the
same token stream serves every grammar.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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

# ASCII classes only: \w, \d and re.IGNORECASE also accept `²`, `٣` and
# the Kelvin sign
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<comment>//[^\n]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    f"|(?P<punct>{'|'.join(map(re.escape, sorted(PUNCT, key=len, reverse=True)))})"
    r"|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str  # "ident" | "int" | a punctuation string | EOF
    text: str  # "end of input" for EOF
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    match = None
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind != "space" and kind != "comment":
            word = match.group()
            col = match.start() - line_start + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {word!r}", line, col)
            tokens.append(Token(word if kind == "punct" else kind, word, line, col))
    end = match.start() if match and match.lastgroup == "comment" else len(text)
    tokens.append(Token(EOF, "end of input", line, end - line_start + 1))
    return tokens
