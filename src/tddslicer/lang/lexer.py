"""Tokenizer shared by programs, predicates, domains, and bindings.

`scan` turns a text into two parallel lists, the kinds and the texts of its
tokens, with one `findall` of one compiled pattern. Whitespace (any
`str.isspace()` character) and `//` comments to the end of the line are its
non-capturing prefix; its one group is the token: an identifier of ASCII
letters, digits and `_`, not starting with a digit; an integer literal of
ASCII digits; a punctuation token, longest first (max munch); or any one
other character. A punctuation token's kind is its text; any other kind
comes from a table on its first character: "ident", "int", or none, which
makes the character a ParseError. The lists end with EOF, whose text is
"end of input". Reserved words are rejected as identifiers by the parser,
not here, so the same tokens serve every grammar.

A successful scan computes no position. Only an error asks for one:
`position` walks the text once with `tokenize`, which gives every token its
line and column (a newline starts the next line, any other whitespace
character is one column, a comment leaves the column where it began), and
picks one token's.
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
_IDENT, _INT = r"[A-Za-z_][A-Za-z0-9_]*", r"[0-9]+"
_PUNCT = "|".join(map(re.escape, sorted(PUNCT, key=len, reverse=True)))

# `.` is any character but a newline, which the prefix always takes. A scan
# ends with a newline and a NUL of its own, so that a token always follows
# the prefix: the prefix is never backtracked into, and the NUL becomes EOF
_SCAN = re.compile(rf"(?:\s+|//[^\n]*)*({_IDENT}|{_INT}|{_PUNCT}|.)")
_SENTINEL = "\n\0"

#: a punctuation token's kind, or the kind an identifier or integer literal
#: takes from its first character
_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("0123456789", "int"),
    **{p: p for p in PUNCT},
}

# the positional walk's pattern, compiled (and cached by `re`) on the first
# walk: only an error needs one
_TOKEN = (
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<comment>//[^\n]*)"
    rf"|(?P<ident>{_IDENT})|(?P<int>{_INT})|(?P<punct>{_PUNCT})|(?P<bad>.)"
)


def scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of text's tokens, EOF last; a character no
    token starts with is a ParseError at its line and column."""
    texts = _SCAN.findall(text + _SENTINEL)
    kind = _KINDS.get
    kinds = [kind(word) or kind(word[0]) for word in texts]
    kinds[-1], texts[-1] = EOF, "end of input"
    if None in kinds:
        tokenize(text)  # raises the first bad character's ParseError
    return kinds, texts


class Token(NamedTuple):
    kind: str  # "ident" | "int" | a punctuation string | EOF
    text: str  # "end of input" for EOF
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Every token of text with its line and column, EOF last: the walk
    behind `position`, token for token the tokens of `scan`."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    match = None
    for match in re.finditer(_TOKEN, text):
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


def position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token `index` of text (EOF included)."""
    token = tokenize(text)[index]
    return token.line, token.col
