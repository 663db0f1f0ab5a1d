"""Lexer, parser, printer, and interpreter behavior."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tddslicer
from tddslicer import (
    Domain,
    ParseError,
    RunResult,
    UnboundVariableError,
    eval_predicate,
    parse_predicate,
    parse_program,
    pretty_print,
    project,
    run,
)
from tddslicer.lang import ast
from tddslicer.lang import interp
from tddslicer.lang.interp import BUDGET_EXCEEDED, FAULT, NEST_FROM_POINTS, OK, TrajectoryEntry, runner
from tddslicer.lang.lexer import EOF, position, scan
from tddslicer.lang.parser import parse_bindings, parse_domain_spec
from tddslicer.slicer import STATEMENT, DeletionUnit
from tddslicer.corpus import corpus_path

from bruteforce import bf_delete, bf_run, bf_tokenize, replay_trajectory
from generators import random_program
from slices import lint

MINIMAL = "proc id(in x, out y){ y := x; }"

#: the most digits int() converts from a string; 0 where there is no limit
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


class TestParsing:
    def test_minimal_program(self):
        program = parse_program(MINIMAL)
        assert program.name == "id"
        assert program.in_params == ("x",)
        assert program.out_params == ("y",)
        stmts = program.statements()
        assert len(stmts) == 1
        assert isinstance(stmts[0], ast.Assign)
        assert stmts[0].stmt_id == 1

    def test_div_oracle_shape(self, div_oracle):
        # var t is a declaration, not a statement; the loop body adds two.
        assert [s.stmt_id for s in div_oracle.statements()] == [1, 2, 3, 4, 5, 6]
        assert div_oracle.locals == frozenset({"t"})
        kinds = [type(s).__name__ for s in div_oracle.statements()]
        assert kinds == ["Assign", "Assign", "While", "Assign", "Assign", "Assign"]

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable 'z'"):
            parse_program("proc f(in x, out y){ z := 1; }")

    def test_undeclared_read(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_program("proc f(in x, out y){ y := q + 1; }")

    def test_duplicate_param(self):
        with pytest.raises(ParseError, match="duplicate identifier"):
            parse_program("proc f(in x, out x){ x := 1; }")

    def test_duplicate_local(self):
        with pytest.raises(ParseError, match="duplicate identifier"):
            parse_program("proc f(in x, out y){ var x; y := 1; }")

    def test_requires_out_param(self):
        with pytest.raises(ParseError, match="no out parameter"):
            parse_program("proc f(in x){ skip; }")

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("proc f(in x, out y){\n  y := ;\n}")
        assert excinfo.value.line == 2
        assert "expected expression" in str(excinfo.value)

    def test_reserved_word_as_identifier(self):
        with pytest.raises(ParseError, match="reserved word"):
            parse_program("proc f(in while, out y){ y := 1; }")

    def test_preorder_ids_are_contiguous(self):
        text = """
        proc g(in a, out o) {
            if (a > 0) {
                o := 1;
                if (a > 2) { o := 2; } else { skip; }
            } else {
                while (o < a) { o := o + 1; }
            }
        }
        """
        program = parse_program(text)
        ids = [s.stmt_id for s in program.statements()]
        assert ids == list(range(1, len(ids) + 1))

    def test_comments_are_ignored(self):
        program = parse_program("// header\nproc f(in x, out y){ y := x; // tail\n}")
        assert len(program.statements()) == 1

    def test_power_is_right_associative(self):
        program = parse_program("proc f(in x, out y){ y := 2 ^ 2 ^ 3; }")
        assert run(program, {"x": 0}).final["y"] == 2**8

    def test_precedence_unary_minus_below_power(self):
        program = parse_program("proc f(in x, out y){ y := -x ^ 2; }")
        assert run(program, {"x": 3}).final["y"] == -9

    def test_predicate_nested_too_deeply_is_a_parse_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_predicate("(" * 3000 + "a > 0" + ")" * 3000)
        assert str(excinfo.value) == "expression nested too deeply"

    def test_program_nested_too_deeply_is_a_parse_error(self):
        deep_expr = "(" * 3000 + "x" + ")" * 3000
        deep_blocks = "if (x > 0) { " * 3000 + "skip; " + "} " * 3000
        for body in (f"y := {deep_expr};", deep_blocks):
            with pytest.raises(ParseError) as excinfo:
                parse_program(f"proc f(in x, out y){{ {body} }}")
            assert str(excinfo.value) == "expression nested too deeply"

    def test_parsed_but_too_deep_to_compile_is_a_parse_error(self):
        terms = " + ".join(["a"] * 5000)
        program = parse_program(f"proc f(in a, out o) {{ o := {terms}; }}")
        with pytest.raises(ParseError) as excinfo:
            run(program, {"a": 1})
        assert str(excinfo.value) == "expression nested too deeply"
        with pytest.raises(ParseError) as excinfo:
            eval_predicate(parse_predicate(f"{terms} > 0"), {"a": 1})
        assert str(excinfo.value) == "expression nested too deeply"

    def test_programs_of_any_depth_compare_by_shape(self):
        """same_shape keeps its own stack: two parses of a 5,000-term sum
        compare equal, and unequal when the last term differs. A program
        that has run, and keeps its compiled code, compares by its fields."""
        text = "proc f(in a, out o) { skip; o := " + " + ".join(["a"] * 5000) + "; }"
        assert ast.same_shape(parse_program(text), parse_program(text))
        assert not ast.same_shape(parse_program(text), parse_program(text.replace("a;", "1;")))
        ran = parse_program(MINIMAL)
        run(ran, {"x": 1})
        assert ast.same_shape(ran, parse_program(MINIMAL))

    @pytest.mark.parametrize("parse, text, col", [
        (parse_program, "proc f(in x, out y){ y := 2²; }", 28),
        (parse_predicate, "x == ²", 6),
        (parse_bindings, "x=1²", 4),
        (parse_domain_spec, "x in 0..9²", 10),
    ])
    def test_only_decimal_digits_make_an_integer(self, parse, text, col):
        """A character that is a digit but not a decimal one (a superscript)
        is an unexpected character, not a raw ValueError from int()."""
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert (excinfo.value.message, excinfo.value.line, excinfo.value.col) == (
            "unexpected character '²'", 1, col,
        )

    @pytest.mark.parametrize("parse, text, char, col", [
        (parse_program, "proc f(in x\u00b2, out y){ y := 1; }", "\u00b2", 12),
        (parse_program, "proc f(in x, out y){ y := x + \u0663; }", "\u0663", 31),
        (parse_predicate, "x\u00b2 > 0", "\u00b2", 2),
        (parse_predicate, "\u00e9 > 0", "\u00e9", 1),
        (parse_bindings, "x=\u0663", "\u0663", 3),
    ])
    def test_identifiers_and_integers_are_ascii(self, parse, text, char, col):
        """Only ASCII letters, digits and _ make identifiers and integers: a
        superscript two after a letter, an Arabic-Indic three and an accented
        letter are unexpected characters, not a name or the integer 3."""
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert (excinfo.value.message, excinfo.value.line, excinfo.value.col) == (
            f"unexpected character {char!r}", 1, col,
        )

    def test_moderate_nesting_still_parses(self):
        assert parse_predicate("(" * 50 + "a > 0" + ")" * 50) == parse_predicate("a > 0")


def _in_program(body: str) -> str:
    return f"proc f(in x, out y){{ {body} }}"


#: each nesting form: whether it is a predicate or a program, its text at
#: depth n, and the deepest n that parses at module level in a fresh
#: CPython 3.11 process at the default recursion limit
DEPTH_FORMS = {
    "predicate parentheses": ("predicate", lambda n: "(" * n + "a > 0" + ")" * n, 328),
    "arithmetic parentheses": ("program", lambda n: _in_program(f"y := {'(' * n}x{')' * n};"), 329),
    "! chain": ("predicate", lambda n: "!" * n + "a > 0", 986),
    "unary - chain": ("program", lambda n: _in_program(f"y := {'-' * n}x;"), 989),
    "^ chain": ("program", lambda n: _in_program("y := " + " ^ ".join(["x"] * (n + 1)) + ";"), 989),
    "nested if": ("program", lambda n: _in_program("if (x > 0) { " * n + "skip; " + "} " * n), 986),
}

#: parses each (kind, text) read as JSON from stdin at module level, where
#: the limits were measured, and prints "ok" or the ParseError for each
_DEPTH_PROBE = """
import json, sys
from tddslicer import ParseError, parse_predicate, parse_program
outcomes = []
for kind, text in json.load(sys.stdin):
    try:
        (parse_predicate if kind == "predicate" else parse_program)(text)
        outcomes.append("ok")
    except ParseError as err:
        outcomes.append(str(err))
print(json.dumps(outcomes))
"""


def _fresh_env() -> dict:
    """The environment of a fresh process that imports this package."""
    return {**os.environ, "PYTHONPATH": str(Path(tddslicer.__file__).parents[1])}


class TestDepthLimits:
    def test_deepest_nesting_that_parses(self):
        """Each form parses at its pinned depth and is ParseError(TOO_DEEP)
        one level deeper. Other interpreters may count frames a little
        differently: there the pin is checked to within 10 levels."""
        slack = 0 if sys.implementation.name == "cpython" and sys.version_info[:2] == (3, 11) else 10
        cases = []
        for kind, make, limit in DEPTH_FORMS.values():
            cases += [(kind, make(limit - slack)), (kind, make(limit + 1 + slack))]
        probe = subprocess.run([sys.executable, "-c", _DEPTH_PROBE], input=json.dumps(cases),
                               capture_output=True, text=True, env=_fresh_env(), timeout=120)
        assert probe.returncode == 0, probe.stderr
        assert json.loads(probe.stdout) == ["ok", "expression nested too deeply"] * len(DEPTH_FORMS)

    def test_cli_at_each_limit_ends_without_a_traceback(self, tmp_path):
        """check, slice and trace (trace only on programs) on each form at
        its limit exit 0, 1 or 2 with at most one line on stderr and never
        a traceback. The CLI parses from deeper in the stack than the probe,
        so a form at its limit may be too deep there; a 600-deep ^ chain
        gets a verdict."""
        max2 = str(corpus_path("max2.prog"))
        outcomes = {}
        for name, (kind, make, limit) in DEPTH_FORMS.items():
            for depth in (limit, 600) if name == "^ chain" else (limit,):
                if kind == "program":
                    path = tmp_path / "deep.prog"
                    path.write_text(make(depth))
                    contract = ["--pre", "TRUE", "--post", "TRUE", "--domain", "x in 0..1"]
                    commands = [["check", str(path), *contract], ["slice", str(path), *contract],
                                ["trace", str(path), "--inputs", "x=1"]]
                else:
                    dom = ["--domain", "a in 0..1, b in 0..1"]
                    commands = [["check", max2, "--pre", make(depth), "--post", "TRUE", *dom],
                                ["slice", max2, "--pre", "TRUE", "--post", make(depth), *dom]]
                for command in commands:
                    done = subprocess.run(
                        [sys.executable, "-m", "tddslicer.cli", *command, "--format", "machine"],
                        capture_output=True, text=True, env=_fresh_env(), timeout=120,
                    )
                    assert done.returncode in (0, 1, 2), (name, command[0], done.stderr)
                    assert "Traceback" not in done.stderr and done.stderr.count("\n") <= 1
                    outcomes[name, depth, command[0]] = done.returncode, done.stderr.strip()
        assert outcomes["^ chain", 600, "check"] == (0, "")
        deepest_if = DEPTH_FORMS["nested if"][2]
        assert outcomes["nested if", deepest_if, "check"] == (2, "error: expression nested too deeply")


#: the text of every bundled corpus file, programs and the session
CORPUS_TEXT = "".join(
    path.read_text()
    for path in sorted(corpus_path("div.session").parent.iterdir())
    if path.suffix in (".prog", ".session")
)


class TestLexer:
    #: characters the corpus lacks: punctuation that starts a longer one,
    #: whitespace other than a space (U+00A0 and U+2028 are str.isspace()),
    #: and non-ASCII characters that \w, \d or re.IGNORECASE would accept
    EXTRA = "/.:=<>!&|\n\r\t\x0b\x1c\u00a0\u2028\u00b2\u0663\u212a"

    @staticmethod
    def random_text(rng, alphabet) -> str:
        pieces = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                start = rng.randrange(len(CORPUS_TEXT))
                pieces.append(CORPUS_TEXT[start:start + rng.randint(0, 40)])
            else:
                pieces.append("".join(rng.choices(alphabet, k=rng.randint(1, 6))))
        return "".join(pieces)

    def test_tokenize_matches_bf_tokenize(self):
        """scan's kinds and texts with position's line and column for
        every token, the end of input's position, or scan's ParseError for
        the first bad character, as the character-by-character oracle gives
        them."""
        alphabet = sorted(set(CORPUS_TEXT + self.EXTRA))
        rng = random.Random(1414)
        texts = [corpus_path(name).read_text() for name in ("div_oracle.prog", "max2.prog")]
        texts += ["x // c", "a//b\n//c", ":==", "...", "&&&", "|||", "!==", "<=>", "x\r\ny",
                  "7x_9 x7", "a\u00a0\u2028\x1cb", "\u212a", ""]
        texts += [self.random_text(rng, alphabet) for _ in range(3000)]
        outcomes = {"tokens": 0, "error": 0}
        for text in texts:
            try:
                want = bf_tokenize(text)
            except ParseError as err:
                with pytest.raises(ParseError) as excinfo:
                    scan(text)
                got = excinfo.value
                assert (got.message, got.line, got.col) == (err.message, err.line, err.col), text
                outcomes["error"] += 1
                continue
            kinds, texts = scan(text)
            places = [position(text, index) for index in range(len(kinds))]
            got = list(zip(kinds, texts, *zip(*places)))[:-1], places[-1]
            assert got == want and kinds[-1] == EOF, text
            outcomes["tokens"] += 1
        assert min(outcomes.values()) > 500, outcomes


class TestParseErrors:
    """The message, line and column of each kind of syntax error."""

    @pytest.mark.parametrize("parse, text, message, line, col", [
        # a trailing comma, and end of input after a trailing comment
        (parse_program, "proc f(in a, out o,) { o := a; }", "expected 'in' or 'out', found ')'", 1, 20),
        (parse_program, "proc f(in a, out o) { var t,; o := a; }", "expected local name, found ';'", 1, 29),
        (parse_domain_spec, "x in 0..3,", "expected variable name, found 'end of input'", 1, 11),
        (parse_domain_spec, "x in 0..3, ", "expected variable name, found 'end of input'", 1, 12),
        (parse_bindings, "x=1,", "expected variable name, found 'end of input'", 1, 5),
        (parse_bindings, "x=1,// c", "expected variable name, found 'end of input'", 1, 5),
        (parse_program, "proc f(in a, out o) { o := a; // hi",
         "expected statement, found 'end of input'", 1, 31),
        (parse_predicate, "a >\n  // c", "expected expression, found 'end of input'", 2, 3),
        (parse_predicate, "a >\n  // c\n", "expected expression, found 'end of input'", 3, 1),
        # a duplicate range or binding, and an empty range
        (parse_domain_spec, "x in 0..3, x in 1..2", "duplicate range for 'x'", 1, 12),
        (parse_domain_spec, "x in 0..3, x in 5..1", "duplicate range for 'x'", 1, 12),
        (parse_bindings, "x=1, y=2, x=3", "duplicate binding for 'x'", 1, 11),
        (parse_domain_spec, "x in 0..3, y in 3..-4", "empty range 3..-4 for 'y'", 1, 12),
        (parse_predicate, "a > 0 && exists k in 3..0 : k > a",
         "existential range 3..0 is empty (lo > hi)", 1, 10),
        # a reserved word used as a name
        (parse_program, "proc f(in while, out y){ y := 1; }",
         "reserved word 'while' used as parameter name", 1, 11),
        (parse_program, "proc if(in a, out y){ y := 1; }", "reserved word 'if' used as procedure name", 1, 6),
        (parse_program, "proc f(in a, out y){ var skip; y := 1; }",
         "reserved word 'skip' used as local name", 1, 26),
        (parse_predicate, "exists out in 0..1 : a > 0", "reserved word 'out' used as bound variable", 1, 8),
        (parse_domain_spec, "in in 0..3", "reserved word 'in' used as variable name", 1, 1),
        (parse_bindings, "TRUE=1", "reserved word 'TRUE' used as variable name", 1, 1),
        # expected 'in' or 'out', and other tokens in the wrong place
        (parse_program, "proc f(a, out o) { o := a; }", "expected 'in' or 'out', found 'a'", 1, 8),
        (parse_program, "func f(in a, out o) { o := a; }", "expected 'proc', found 'func'", 1, 1),
        (parse_domain_spec, "x = 3", "expected 'in', found '='", 1, 3),
        (parse_domain_spec, "x in 0..3 y in 1..2", "unexpected trailing input 'y'", 1, 11),
        (parse_bindings, ",x=1", "expected variable name, found ','", 1, 1),
        (parse_bindings, "x=-y", "expected integer literal, found 'y'", 1, 4),
        (parse_predicate, "a > 0 )", "unexpected trailing input ')'", 1, 7),
        (parse_predicate, "a + 1", "expected comparison operator, found 'end of input'", 1, 6),
        (parse_program, "proc f(in a, out o) { o := a; } }", "unexpected trailing input '}'", 1, 33),
        # each place that can find the end of input
        (parse_program, "", "expected 'proc', found 'end of input'", 1, 1),
        (parse_program, "proc", "expected procedure name, found 'end of input'", 1, 5),
        (parse_program, "proc f", "expected '(', found 'end of input'", 1, 7),
        (parse_program, "proc f(", "expected 'in' or 'out', found 'end of input'", 1, 8),
        (parse_program, "proc f(in", "expected parameter name, found 'end of input'", 1, 10),
        (parse_program, "proc f(in a, out o", "expected ')', found 'end of input'", 1, 19),
        (parse_program, "proc f(in a, out o)", "expected '{', found 'end of input'", 1, 20),
        (parse_program, "proc f(in a, out o) {", "expected statement, found 'end of input'", 1, 22),
        (parse_program, "proc f(in a, out o) { var", "expected local name, found 'end of input'", 1, 26),
        (parse_program, "proc f(in a, out o) {\n  o :=", "expected expression, found 'end of input'", 2, 7),
        (parse_program, "proc f(in a, out o) { o := a", "expected ';', found 'end of input'", 1, 29),
        (parse_program, "proc f(in a, out o) { if (a > 0", "expected ')', found 'end of input'", 1, 32),
        (parse_predicate, "", "expected expression, found 'end of input'", 1, 1),
        (parse_predicate, "a", "expected comparison operator, found 'end of input'", 1, 2),
        (parse_predicate, "exists k", "expected 'in', found 'end of input'", 1, 9),
        (parse_predicate, "exists k in 0..1", "expected ':', found 'end of input'", 1, 17),
        (parse_predicate, "exists k in -", "expected integer literal, found 'end of input'", 1, 14),
        (parse_domain_spec, "x in", "expected integer literal, found 'end of input'", 1, 5),
        (parse_domain_spec, "x in 0", "expected '..', found 'end of input'", 1, 7),
        (parse_bindings, "x", "expected '=', found 'end of input'", 1, 2),
        (parse_bindings, "x=", "expected integer literal, found 'end of input'", 1, 3),
    ])
    def test_error(self, parse, text, message, line, col):
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert (excinfo.value.message, excinfo.value.line, excinfo.value.col) == (message, line, col)

    @pytest.mark.parametrize("parse, text, value", [
        (parse_domain_spec, "", {}),
        (parse_domain_spec, "  // none\n", {}),
        (parse_domain_spec, "x in -3..-3, y in 0..2", {"x": (-3, -3), "y": (0, 2)}),
        (parse_bindings, "", {}),
        (parse_bindings, "b=-2, a=7 // c", {"b": -2, "a": 7}),
    ])
    def test_comma_lists(self, parse, text, value):
        result = parse(text)
        assert result == value and list(result) == list(value)

    @pytest.mark.skipif(not INT_DIGITS, reason="int() takes strings of any length")
    @pytest.mark.parametrize("parse, template, col", [
        (parse_program, "proc f(in a, out o) {{ o := a + {}; }}", 32),
        (parse_program, "proc f(in a, out o) {{ o := -{}; }}", 29),
        (parse_predicate, "a > -{} || a < 0", 6),
        (parse_predicate, "(a + {}) > 0", 6),
        (Domain.parse, "a in 0..{}", 9),
        (parse_bindings, "a=-{}", 4),
    ])
    def test_integer_literal_too_long(self, parse, template, col):
        """A literal int() refuses to convert is a ParseError at the literal,
        not the ValueError int() raises; one digit fewer still parses."""
        with pytest.raises(ParseError) as excinfo:
            parse(template.format("9" * (INT_DIGITS + 1)))
        assert (excinfo.value.message, excinfo.value.line, excinfo.value.col) == (
            "integer literal too long", 1, col,
        )
        parse(template.format("9" * INT_DIGITS))


class TestPrettyPrint:
    GOLDEN = (
        "proc clamp_sum(in a, in b, out s) {\n"
        "    var i;\n"
        "    i := 0;\n"
        "    while (i < b) {\n"
        "        if (a > 0) {\n"
        "            s := s + a;\n"
        "        } else {\n"
        "            s := s - 1;\n"
        "        }\n"
        "        i := i + 1;\n"
        "    }\n"
        "}\n"
    )

    def test_golden_nested(self):
        squeezed = (
            "proc clamp_sum(in a, in b, out s) { var i; i := 0;"
            " while (i < b) { if (a > 0) { s := s + a; } else { s := s - 1; }"
            " i := i + 1; } }"
        )
        assert pretty_print(parse_program(squeezed)) == self.GOLDEN

    def test_empty_body_explicit_block(self):
        assert pretty_print(parse_program("proc f(in x, out y){}")) == "proc f(in x, out y) { }\n"

    @pytest.mark.parametrize(
        "name",
        [
            "max2.prog", "max2_slice.prog", "div_oracle.prog",
            *[f"div_cycle{i}.prog" for i in range(1, 10)],
        ],
    )
    def test_corpus_round_trip(self, name):
        program = parse_program(corpus_path(name).read_text())
        assert parse_program(pretty_print(program)) == program

    def test_random_round_trip(self):
        rng = random.Random(20240811)
        for _ in range(150):
            program = random_program(rng, max_stmts=8, allow_while=True)
            assert parse_program(pretty_print(program)) == program

    def test_expression_parens_survive(self):
        program = parse_program("proc f(in x, out y){ y := (x + 1) * (x - 2) % 5; }")
        assert parse_program(pretty_print(program)) == program


class TestRun:
    def test_div_7_by_2(self, div_oracle):
        result = run(div_oracle, {"x": 7, "y": 2}, 10000)
        assert result.ok
        assert result.final["q"] == 3
        assert result.final["r"] == 1

    def test_div_2_by_9(self, div_oracle):
        result = run(div_oracle, {"x": 2, "y": 9})
        assert (result.final["q"], result.final["r"]) == (0, 2)

    def test_trajectory_records_assignments_in_order(self, div_oracle):
        result = run(div_oracle, {"x": 4, "y": 2})
        assert result.trajectory[0] == TrajectoryEntry(1, "t", 4)
        assert [e for e in result.trajectory if e.var == "q"] == [
            TrajectoryEntry(2, "q", 0),
            TrajectoryEntry(5, "q", 1),
            TrajectoryEntry(5, "q", 2),
        ]

    def test_nontermination_hits_budget(self):
        program = parse_program("proc f(in x, out y){ while (x == x) { } }")
        result = run(program, {"x": 1}, 100)
        assert result.status == "budget_exceeded"
        assert result.fault_stmt_id == 1

    def test_division_by_zero_fault(self):
        program = parse_program("proc f(in x, out y){ y := 1; y := x / 0; }")
        result = run(program, {"x": 1})
        assert result.status == "fault"
        assert result.fault_stmt_id == 2
        assert result.fault_reason == "division by zero"
        assert result.final["y"] == 1  # partial state up to the fault

    def test_negative_exponent_fault(self):
        program = parse_program("proc f(in x, out y){ y := 2 ^ x; }")
        assert run(program, {"x": -1}).status == "fault"

    def test_truncating_division(self):
        program = parse_program("proc f(in a, in b, out q, out r){ q := a / b; r := a % b; }")
        for a, b in [(7, 2), (-7, 2), (7, -2), (-7, -2)]:
            final = run(program, {"a": a, "b": b}).final
            assert final["q"] == int(a / b)
            assert a == final["q"] * b + final["r"]

    def test_inputs_must_bind_exactly(self, div_oracle):
        with pytest.raises(ValueError, match="missing"):
            run(div_oracle, {"x": 1})
        with pytest.raises(ValueError, match="unexpected"):
            run(div_oracle, {"x": 1, "y": 1, "z": 1})

    def test_outs_and_locals_start_at_zero(self):
        program = parse_program("proc f(in x, out y){ var w; y := w; }")
        result = run(program, {"x": 5})
        assert result.final["y"] == 0
        assert result.final["w"] == 0

    def test_determinism_and_budget_monotonicity(self):
        rng = random.Random(7)
        for _ in range(40):
            program = random_program(rng, max_stmts=6, allow_while=True)
            inputs = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
            first = run(program, inputs, 500)
            second = run(program, inputs, 500)
            assert first == second
            if first.ok:
                assert run(program, inputs, 500 + 123) == first

    def test_trajectory_replay_reproduces_final(self):
        rng = random.Random(8)
        for _ in range(40):
            program = random_program(rng, max_stmts=6, allow_while=True)
            inputs = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
            result = run(program, inputs, 500)
            if result.ok:
                assert replay_trajectory(program, inputs, result.trajectory) == result.final


def _oracle_cases(seed: int, count: int = 300):
    """Programs that fault, loop forever or finish, under budgets from 1 up."""
    rng = random.Random(seed)
    for _ in range(count):
        program = random_program(rng, max_stmts=8, allow_while=True, faults=True)
        inputs = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
        budget = rng.randint(1, 12) if rng.random() < 0.4 else rng.randint(13, 400)
        yield program, inputs, budget


class TestRunAgainstOracle:
    def test_every_field_matches_bf_run(self):
        statuses = {OK: 0, FAULT: 0, BUDGET_EXCEEDED: 0}
        for program, inputs, budget in _oracle_cases(20261017):
            result = run(program, inputs, budget)
            expected = bf_run(program, inputs, budget)
            got = (result.status, result.steps, result.fault_stmt_id, result.fault_reason,
                   result.final, result.trajectory)
            assert got == expected, pretty_print(program)
            statuses[result.status] += 1
        assert min(statuses.values()) >= 30, statuses

    def test_unrecorded_run_differs_only_in_trajectory(self):
        for program, inputs, budget in _oracle_cases(11, count=100):
            recorded = run(program, inputs, budget)
            unrecorded = run(program, inputs, budget, record=False)
            assert unrecorded.trajectory == ()
            assert unrecorded == RunResult(recorded.status, recorded.final, (), recorded.steps,
                                           recorded.fault_stmt_id, recorded.fault_reason)


def _loaded_runs(monkeypatch):
    """Each run function interp compiles from here on, None where Python
    refused its source."""
    loaded = []
    real = interp._load

    def spy(name, function, emit):
        code = real(name, function, emit)
        if function == "run":
            loaded.append(code)
        return code

    monkeypatch.setattr(interp, "_load", spy)
    return loaded


def _outcome(execute, inputs):
    """What execute, a runner's function, gives at inputs, with final's key
    order, or the name of the variable it found unbound."""
    try:
        result = execute(inputs)
    except UnboundVariableError as unbound:
        return "unbound", unbound.name
    return result, list(result[1])


def _bf_outcome(program, inputs, budget):
    """What bf_run gives, as _outcome gives a runner's."""
    try:
        status, steps, stmt_id, reason, final, _ = bf_run(program, inputs, budget)
    except KeyError as unbound:
        return "unbound", unbound.args[0]
    return (status, final, (), steps, stmt_id, reason), list(final)


class TestCompiledRun:
    """A runner made for NEST_FROM_POINTS calls or more runs the program's
    emitted source; wherever that raises, the closures run the point."""

    def test_every_field_matches_the_closures_and_bf_run(self, monkeypatch):
        loaded = _loaded_runs(monkeypatch)
        rng = random.Random(34)
        returned = 0  # results the emitted function gave itself
        for program, inputs, budget in _oracle_cases(20261017):
            ids = [stmt.stmt_id for stmt in program.statements()]
            for kept in (None, frozenset(rng.sample(ids, rng.randint(0, len(ids))))):
                built = program if kept is None else bf_delete(
                    program, [DeletionUnit(STATEMENT, i) for i in ids if i not in kept])
                for steps in (budget, rng.randint(1, 60)):
                    closures = runner(program, steps, kept=kept)
                    compiled = runner(program, steps, kept=kept, calls=NEST_FROM_POINTS)
                    (emitted,) = loaded
                    loaded.clear()
                    # an extra key, an out-parameter bound first, b missing
                    points = (inputs, {**inputs, "zz": 7}, {"o": 5, **inputs}, {"a": inputs["a"]})
                    for point in points:
                        got = _outcome(compiled, point)
                        assert got == _outcome(closures, point) == _bf_outcome(built, point, steps), \
                            pretty_print(program)
                        # the source itself returns exactly where the run is
                        # ok with every in-parameter bound, and raises elsewhere
                        try:
                            mine = emitted(point)
                        except Exception:
                            mine = None
                        assert (mine is not None) == ("b" in point and got[0][0] == OK)
                        if mine is not None:
                            assert mine == got[0]
                            returned += 1
        assert returned >= 1000

    def test_a_program_python_refuses_stays_on_the_closures(self, monkeypatch):
        """300 nested parentheses are past Python's parser, not past the
        closures; 5,000 terms are past both, so runner refuses the run
        as run does and emits nothing."""
        loaded = _loaded_runs(monkeypatch)
        nested = parse_program(f"proc f(in a, out o) {{ o := {'a - (' * 300}a{')' * 300}; }}")
        compiled = runner(nested, 100, calls=NEST_FROM_POINTS)
        assert loaded == [None]
        assert compiled({"a": 3}) == runner(nested, 100)({"a": 3}) == (OK, {"a": 3, "o": 3}, (), 1, None, None)
        deep = parse_program(f"proc f(in a, out o) {{ o := {' + '.join(['a'] * 5000)}; }}")
        with pytest.raises(ParseError, match="too deeply"):
            runner(deep, 100, calls=NEST_FROM_POINTS)({"a": 1})
        assert loaded == [None]

    def test_recorded_runs_and_fewer_calls_never_compile(self, monkeypatch, div_oracle):
        loaded = _loaded_runs(monkeypatch)
        point = {"x": 7, "y": 2}
        recorded = runner(div_oracle, 100, record=True, calls=10**6)(point)
        assert recorded[2] and run(div_oracle, point, 100) == RunResult(*recorded)
        runner(div_oracle, 100, calls=NEST_FROM_POINTS - 1)(point)
        assert loaded == []
        compiled = runner(div_oracle, 100, calls=NEST_FROM_POINTS)
        assert len(loaded) == 1
        assert RunResult(*compiled(point)) == run(div_oracle, point, 100, record=False)


class TestUnboundVariable:
    PARAMS = (ast.Param("x", "in"), ast.Param("y", "out"))

    def test_hand_built_program_reading_an_undeclared_variable(self):
        reads_z = ast.Assign(1, "y", ast.Arith("+", ast.Var("x"), ast.Var("z")))
        program = ast.Program("f", self.PARAMS, frozenset(), ast.Block((reads_z,)))
        with pytest.raises(UnboundVariableError) as excinfo:
            run(program, {"x": 1})
        assert excinfo.value.name == "z"

    def test_hand_built_loop_condition_on_an_undeclared_variable(self):
        loop = ast.While(1, ast.Cmp("<", ast.Var("z"), ast.IntLit(1)), ast.Block())
        program = ast.Program("f", self.PARAMS, frozenset(), ast.Block((loop,)))
        with pytest.raises(UnboundVariableError):
            run(program, {"x": 1}, record=False)

    def test_runner_reads_an_input_only_where_the_program_does(self):
        """runner checks no inputs: one missing an in-parameter fails where
        the program reads it, or not at all."""
        two_ins = parse_program("proc f(in a, in b, out o){ o := 1; o := a + b; }")
        execute = runner(two_ins, 10)
        assert execute({"a": 1, "b": 2}) == (OK, {"a": 1, "b": 2, "o": 3}, (), 2, None, None)
        with pytest.raises(UnboundVariableError) as excinfo:
            execute({"a": 1})
        assert excinfo.value.name == "b"
        assert runner(two_ins, 1)({}) == (BUDGET_EXCEEDED, {"o": 1}, (), 2, 2, "step budget exceeded")

    def test_predicate_on_a_state_missing_one_of_its_variables(self):
        state = {"a": 1}
        with pytest.raises(UnboundVariableError) as excinfo:
            eval_predicate(parse_predicate("exists n in 0..2 : n == a + b"), state)
        assert excinfo.value.name == "b"
        assert state == {"a": 1}


class TestProject:
    def test_identity_projection(self, div_oracle):
        traj = run(div_oracle, {"x": 6, "y": 2}).trajectory
        assert project(traj, {"t", "q", "r", "x", "y"}) == traj
        assert project(traj) == traj

    def test_project_on_q(self, div_oracle):
        traj = run(div_oracle, {"x": 4, "y": 2}).trajectory
        assert [e.value for e in project(traj, {"q"})] == [0, 1, 2]

    def test_empty_vars(self, div_oracle):
        traj = run(div_oracle, {"x": 4, "y": 2}).trajectory
        assert project(traj, set()) == ()


def test_lint_flags_in_param_assignment():
    program = parse_program("proc f(in x, out y){ x := 1; y := x; }")
    findings = lint(program)
    assert len(findings) == 1
    assert "in-parameter 'x'" in findings[0]
    assert lint(parse_program(MINIMAL)) == []
