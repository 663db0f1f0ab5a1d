"""Parse parity over a seeded corpus of texts, valid and broken.

Every text maps to the `repr` of what it parses to, or to its ParseError's
message, line and column. The SHA-256 of that map was recorded before the
front end moved to a kinds/texts scan with lazily computed positions and an
index-based parser; the front end must reproduce it exactly. The texts stay
far below the nesting depth limits, which may differ between front ends.
"""

from __future__ import annotations

import hashlib
import random
import re

from tddslicer import ParseError, parse_predicate, parse_program, pretty_print
from tddslicer.corpus import corpus_path
from tddslicer.lang import parse_bindings, parse_domain_spec

from generators import predicate_text, random_program

PARSERS = {
    "program": parse_program,
    "predicate": parse_predicate,
    "domain": parse_domain_spec,
    "bindings": parse_bindings,
}

#: session keys whose values are predicate, domain and binding texts
SESSION_KINDS = {
    "contract.pre": "predicate", "contract.post": "predicate",
    "domain": "domain", "outrange": "domain",
    "test.inputs": "bindings", "test.expect": "bindings",
}

#: the digest of every (kind, text, outcome) line, recorded with the
#: token-object lexer and method-per-token parser
PARITY_DIGEST = "f4a73f0f98afdd11922ac742a745a16bd87fce83528fbc9b850ab44923d0db15"

#: texts at the corners of the expression grammar: negative literals and
#: negation around ^, chains of unary operators, and parentheses that open
#: a boolean or an arithmetic operand
EDGE_TEXTS = (
    ("predicate", "-2 ^ 2 == -4"), ("predicate", "- 2 ^ 2 < a"), ("predicate", "--3 == a"),
    ("predicate", "-(3) == a - -3"), ("predicate", "a ^ -2 ^ 2 > 0"), ("predicate", "2 ^ 3 ^ 2 == a"),
    ("predicate", "-a ^ 2 < 0 && -a * -b >= 0"), ("predicate", "((a + 1)) * 2 > (b) || (a) > 0"),
    ("predicate", "!(a > 0) || !!(b < 0) && !TRUE"), ("predicate", "exists k in -2..-1 : k < a || b > k"),
    ("predicate", "(exists k in 0..1 : (k) == a) && ((a > b))"),
    ("program", "proc f(in a, out o) { o := -2 ^ a - -1 * (a % -3) / 2; if ((a) > -1) { o := -o; } }"),
    ("program", "proc f(in a, in b, out o) { var t, u; while ((a + t) * 2 < (b)) { t := t + 1; } u := t; o := u; }"),
    ("program", "proc f(in a, out o) { if (TRUE) { o := 1; } }"),
    ("program", "proc f(in a, out o) { while (exists k in 0..1 : k == a) { skip; } }"),
)

#: where a mutation may cut: a comment, a word, a number, a two-character
#: punctuation, or any other non-space character
_PIECE = re.compile(r"//[^\n]*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|:=|==|!=|<=|>=|&&|\|\||\.\.|\S")

#: what a replaced or inserted piece may become: every token kind, reserved
#: words, characters that start a longer token, whitespace other than a
#: space, comments, and characters \w, \d or re.IGNORECASE would accept
REPLACEMENTS = (
    ":=", "==", "!=", "<=", ">=", "&&", "||", "..", "{", "}", "(", ")", ",", ";", ":",
    "=", "<", ">", "+", "-", "*", "/", "%", "^", "!", "&", "|", ".",
    "proc", "in", "out", "var", "skip", "if", "else", "while", "exists", "TRUE", "FALSE",
    "a", "b", "o", "x", "y", "q", "r", "t", "d", "zz", "_1", "0", "7", "-3", "042",
    "\n", "\t", "\r\n", "\x0b", "\u00a0", "\u2028", "// c", "// c\n", "//",
    "\u00b2", "\u0663", "\u00e9", "\u212a", "#", "$", "@", "?",
)


def _padded(rng: random.Random, lines: list[str], dead: tuple[str, ...]) -> list[str]:
    """lines with 2-6 dead assignments to d inserted at statement positions."""
    lines = list(lines)
    for _ in range(rng.randint(2, 6)):
        spot = rng.randrange(1, len(lines) + 1)
        lines.insert(spot, rng.choice(dead).format(c=rng.randint(1, 9)))
    return lines


def _padded_div(rng: random.Random) -> str:
    body = ["t := x;", "q := 0;"]
    for _ in range(rng.randint(1, 4)):
        body += ["if (t >= y) {", "t := t - y;", "q := q + 1;", "}"]
    body.append("r := t;")
    dead = ("d := d + {c};", "d := x * {c};", "skip;", "d := d - y;", "d := {c} - d;")
    lines = ["proc div(in x, in y, out q, out r) {", "var t;", "var d;"]
    return "\n    ".join(lines + _padded(rng, body, dead)) + "\n}\n"


def _padded_max(rng: random.Random) -> str:
    body = ["if (a > b) {", "max := a;", "} else {", "max := b;", "}"]
    dead = ("d := d + {c};", "d := a * {c};", "skip;", "d := d - b;")
    lines = ["proc max2(in a, in b, out max) {", "var d;"]
    return "\n    ".join(lines + _padded(rng, body, dead)) + "\n}\n"


def base_texts(rng: random.Random) -> list[tuple[str, str]]:
    """(kind, text) for the corpus files, the session's fields and seeded
    generated programs, predicates, domains and bindings."""
    texts = list(EDGE_TEXTS)
    for path in sorted(corpus_path("div.session").parent.iterdir()):
        if path.suffix == ".prog":
            texts.append(("program", path.read_text()))
        elif path.suffix == ".session":
            for line in path.read_text().splitlines():
                key, _, value = line.partition(" = ")
                if key in SESSION_KINDS:
                    texts.append((SESSION_KINDS[key], value))
    for i in range(60):
        program = random_program(rng, 8, allow_while=True, faults=i % 3 == 0)
        texts.append(("program", pretty_print(program)))
    for _ in range(15):
        texts.append(("program", _padded_div(rng)))
        texts.append(("program", _padded_max(rng)))
    for i in range(70):
        small = ("a", "b") if i % 4 == 0 else ()
        texts.append(("predicate", predicate_text(rng, ("a", "b", "o"), 3, small)))
    names = ("a", "b", "x", "y", "q")
    for _ in range(25):
        chosen = rng.sample(names, rng.randint(1, 4))
        ranges = []
        for name in chosen:
            lo = rng.randint(-9, 9)
            ranges.append(f"{name} in {lo}..{lo + rng.randint(-1, 20)}")
        texts.append(("domain", ", ".join(ranges)))
        texts.append(("bindings", ", ".join(f"{n}={rng.randint(-9, 9)}" for n in chosen)))
    return texts


def mutate(rng: random.Random, text: str) -> str:
    """text with one piece deleted, duplicated, swapped with the next,
    replaced by a token or character, or with one inserted."""
    spans = [m.span() for m in _PIECE.finditer(text)]
    if not spans:
        return text + rng.choice(REPLACEMENTS)
    i = rng.randrange(len(spans))
    start, end = spans[i]
    piece = text[start:end]
    roll = rng.randrange(5)
    if roll == 0:
        return text[:start] + text[end:]
    if roll == 1:
        return text[:end] + piece + text[end:]
    if roll == 2 and i + 1 < len(spans):
        nstart, nend = spans[i + 1]
        return text[:start] + text[nstart:nend] + text[end:nstart] + piece + text[nend:]
    if roll == 3:
        return text[:start] + rng.choice(REPLACEMENTS) + text[end:]
    return text[:start] + rng.choice(REPLACEMENTS) + " " + text[start:]


def parity_corpus() -> list[tuple[str, str]]:
    rng = random.Random(2525)
    bases = base_texts(rng)
    texts = list(bases)
    for kind, text in bases:
        for _ in range(22):
            texts.append((kind, mutate(rng, text)))
    return texts


def outcome(kind: str, text: str) -> str:
    try:
        node = PARSERS[kind](text)
    except ParseError as err:
        return f"error {err.message!r} {err.line} {err.col}"
    if kind == "program":  # the locals' set prints in hash order
        node = (node.name, node.params, sorted(node.locals), node.body)
    return repr(node)


def parity_lines() -> list[str]:
    return [f"{kind}\t{text!r}\t{outcome(kind, text)}" for kind, text in parity_corpus()]


def test_parse_outcomes_match_the_recorded_digest():
    lines = parity_lines()
    errors = sum("\terror " in line for line in lines)
    assert len(lines) >= 5000 and min(errors, len(lines) - errors) > 1000, (len(lines), errors)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PARITY_DIGEST
