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
`position` runs the same pattern again with `finditer` up to the token it
is asked about and counts lines and columns from the token's offset: a
newline starts the next line and any other character is one column, so a
comment leaves the column where it began. The end of input sits at the
end of the text, or where a comment that ends the text begins.
"""

from __future__ import annotations

import re
from itertools import islice

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


def scan(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of text's tokens, EOF last; a character no
    token starts with is a ParseError at its line and column."""
    texts = _SCAN.findall(text + _SENTINEL)
    kind = _KINDS.get
    kinds = [kind(word) or kind(word[0]) for word in texts]
    kinds[-1], texts[-1] = EOF, "end of input"
    if None in kinds:
        index = kinds.index(None)
        raise ParseError(f"unexpected character {texts[index]!r}", *position(text, index))
    return kinds, texts


def position(text: str, index: int) -> tuple[int, int]:
    """The line and column of token `index` of text (EOF included)."""
    match = next(islice(_SCAN.finditer(text + _SENTINEL), index, None))
    at = match.start(1)
    if at > len(text):  # EOF, past the sentinel's newline
        # the prefix before it holds whitespace and comments only, so a
        # `//` after its last newline begins a comment that ends the text
        comment = text.find("//", max(match.start(), text.rfind("\n") + 1))
        at = comment if comment >= 0 else len(text)
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
