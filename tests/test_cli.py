"""End-to-end CLI behavior: exit codes, output formats, error paths."""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tddslicer import cli
from tddslicer.cli import main
from tddslicer.corpus import corpus_path
from tddslicer.errors import ParseError
from tddslicer.lang.parser import load_program
from tddslicer.lang.printer import render_json

MAX2 = str(corpus_path("max2.prog"))
DIV_ORACLE = str(corpus_path("div_oracle.prog"))
DIV_SESSION = str(corpus_path("div.session"))
DOM = "a in -8..8, b in -8..8"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _unrenderable(*args):
    raise ValueError("cannot render")


#: what a command gives when a line after its first fails to render: no
#: line at all
NOTHING_RENDERED = (2, "", "error: value too large to print\n")


class TestCheck:
    def test_verified_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", MAX2,
            "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
        )
        assert code == 0
        assert "verdict: verified" in out

    def test_counterexample_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", MAX2,
            "--pre", "a > b", "--post", "max == b", "--domain", DOM,
        )
        assert code == 1
        assert "counterexample" in out
        assert "witness" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "missing.prog",
            "--pre", "TRUE", "--post", "TRUE", "--domain", "x in 0..1",
        )
        assert code == 2
        assert "not found" in err

    def test_a_program_that_is_not_utf8_exits_two_naming_its_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.prog"
        path.write_bytes("proc f(in a, out o) { o := a; } // café\n".encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.prog: not UTF-8 text"):
            load_program(path)
        code, out, err = run_cli(capsys, "check", str(path), "--pre", "TRUE", "--post", "TRUE",
                                 "--domain", "a in 0..1")
        assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text (invalid continuation byte)\n")

    def test_bad_predicate_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "check", MAX2,
            "--pre", "a >", "--post", "TRUE", "--domain", DOM,
        )
        assert code == 2
        assert "expected expression" in err

    def test_machine_format_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", MAX2,
            "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["format_version"] == 1
        assert payload["command"] == "check"
        assert payload["verdict"] == "verified"
        assert payload["witness"] is None
        assert payload["checked_points"] == 136
        assert payload["domain"] == DOM

    def test_machine_output_is_golden(self, capsys):
        _, out, _ = run_cli(
            capsys, "check", MAX2,
            "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
            "--format", "machine",
        )
        assert out == (
            "{\n"
            '  "checked_points": 136,\n'
            '  "command": "check",\n'
            '  "domain": "a in -8..8, b in -8..8",\n'
            '  "format_version": 1,\n'
            '  "verdict": "verified",\n'
            '  "witness": null\n'
            "}\n"
        )

    def test_machine_witness_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", MAX2,
            "--pre", "a > b", "--post", "max == b", "--domain", DOM,
            "--format", "machine",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "counterexample"
        assert payload["witness"]["inputs"] == {"a": -7, "b": -8}


class TestSlice:
    def test_listing_slice_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "slice", MAX2,
            "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
        )
        assert code == 0
        assert "if (a > b) {" in out
        assert "} else {" not in out  # the else branch is gone
        assert "retained: statement@1, statement@2" in out

    def test_unverified_contract_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "slice", MAX2,
            "--pre", "a > b", "--post", "max == b", "--domain", DOM,
        )
        assert code == 1
        assert "does not verify" in err

    def test_cap_refusal_suggests_greedy(self, capsys, tmp_path):
        """17 units, each an assignment to o, which the postcondition reads."""
        body = " ".join(f"o := {i};" for i in range(17))
        wide = tmp_path / "wide.prog"
        wide.write_text(f"proc f(in a, in b, out o) {{ {body} }}")
        code, _, err = run_cli(
            capsys, "slice", str(wide),
            "--pre", "TRUE", "--post", "o == 16", "--domain", DOM,
        )
        assert code == 2
        assert "greedy" in err

    def test_machine_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "slice", MAX2,
            "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["minimal"] is True
        assert {"kind": "statement", "anchor": 1} in payload["retained"]
        assert payload["verification"]["verdict"] == "verified"

    def test_human_output_prints_nothing_unless_every_line_renders(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verdict_text", _unrenderable)  # the last line's
        result = run_cli(capsys, "slice", MAX2, "--pre", "a > b", "--post", "a > b && max == a",
                         "--domain", DOM)
        assert result == NOTHING_RENDERED


class TestUnion:
    def test_paper_union_with_tautology(self, capsys):
        code, out, _ = run_cli(
            capsys, "union",
            "--pre", "a > b", "--post", "a > b && max == a",
            "--pre", "a <= b", "--post", "a <= b && max == b",
            "--domain", DOM,
        )
        assert code == 0
        assert "pre:  a > b || a <= b" in out
        assert "post: (a > b && max == a) || (a <= b && max == b)" in out
        assert "precondition is a tautology over domain: true" in out

    def test_union_without_domain_skips_tautology(self, capsys):
        code, out, _ = run_cli(
            capsys, "union",
            "--pre", "a > b", "--post", "max == a",
            "--pre", "a > b", "--post", "max == a",
        )
        assert code == 0
        assert "tautology" not in out

    def test_needs_two_pairs(self, capsys):
        code, _, err = run_cli(
            capsys, "union", "--pre", "TRUE", "--post", "TRUE",
        )
        assert code == 2
        assert "exactly two" in err

    def test_non_tautology_prints_counterexample(self, capsys):
        code, out, _ = run_cli(
            capsys, "union",
            "--pre", "a > b", "--post", "max == a",
            "--pre", "a == b", "--post", "max == a",
            "--domain", DOM,
        )
        assert code == 0
        assert "tautology over domain: false" in out
        assert "counterexample: a=-8, b=-7" in out

    def test_human_output_prints_nothing_unless_every_line_renders(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fmt_state", _unrenderable)  # the counterexample's
        result = run_cli(capsys, "union", "--pre", "a > b", "--post", "max == a",
                         "--pre", "a == b", "--post", "max == a", "--domain", DOM)
        assert result == NOTHING_RENDERED

    def test_an_empty_domain_judges_the_pre_at_its_one_point(self, capsys):
        """--domain "" is the domain of no variables, not a missing --domain."""
        code, out, _ = run_cli(capsys, "union", "--pre", "TRUE", "--post", "o == 1",
                               "--pre", "FALSE", "--post", "o == 2", "--domain", "",
                               "--format", "machine")
        assert code == 0
        assert json.loads(out)["pre_tautology"] is True

    def test_an_empty_domain_refuses_a_pre_with_a_free_variable(self, capsys):
        result = run_cli(capsys, "union", "--pre", "a > 1", "--post", "o == 1",
                         "--pre", "FALSE", "--post", "o == 2", "--domain", "")
        assert result == (2, "", "error: domain does not cover free variables: ['a']\n")


class TestReplay:
    def test_div_session_ok(self, capsys):
        code, out, _ = run_cli(capsys, "replay", DIV_SESSION)
        assert code == 0
        assert "QLTY: 100.0" in out
        assert "result: OK" in out

    def test_broken_session_exits_one(self, capsys, tmp_path):
        (tmp_path / "inc.prog").write_text("proc inc(in x, out y) { y := x + 1; }")
        (tmp_path / "bad.session").write_text(
            "[session]\nfinal = inc.prog\ndomain = x in 0..3\n"
            "[cycle 1]\ntest.name = t\ntest.inputs = x=1\ntest.expect = y=3\n"
            "contract.pre = TRUE\ncontract.post = TRUE\nsnapshot = inc.prog\n"
        )
        code, out, _ = run_cli(capsys, "replay", str(tmp_path / "bad.session"))
        assert code == 1
        assert "green check failed" in out

    def test_malformed_session_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "nope.session"
        bad.write_text("[cycle 1]\n")
        code, _, err = run_cli(capsys, "replay", str(bad))
        assert code == 2
        assert "session" in err

    def test_machine_report_is_byte_identical_across_runs(self, capsys):
        code1, out1, _ = run_cli(capsys, "replay", DIV_SESSION, "--format", "machine")
        code2, out2, _ = run_cli(capsys, "replay", DIV_SESSION, "--format", "machine")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["format_version"] == 1
        assert payload["qlty"] == 100.0
        assert len(payload["cycles"]) == 9

    def test_human_output_prints_nothing_unless_every_line_renders(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_verdict_text", _unrenderable)  # each cycle's contract line's
        assert run_cli(capsys, "replay", DIV_SESSION) == NOTHING_RENDERED

    def test_a_chain_check_that_raised_reads_error(self, capsys, tmp_path):
        """A cycle's contract is a disjunct of the union it is checked
        against, so its chain check holds or raises. With cycle 2's
        precondition dividing by zero at x = 12, the check raises in five
        cycles (2 and 6-9): the human report says `chain error` there, as
        it says `error` for a point, snapshot or oracle check that raised.
        The machine report is the one it always was, chain_holds null."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        session = corpus / "div.session"
        pre = "contract.pre = (x == 2 || x == 4) && y == 2\n"
        text = session.read_text()
        assert text.count(pre) == 1
        session.write_text(text.replace(pre, "contract.pre = 10 / (x - 12) > -100 && y == 2\n"))
        code, out, err = run_cli(capsys, "replay", str(session))
        assert (code, err) == (1, "")
        assert out.count(" | chain error\n") == 5 and "BROKEN" not in out
        assert out.count("error: chain subsumption: predicate undefined") == 5
        code, out, err = run_cli(capsys, "replay", str(session), "--format", "machine")
        assert (code, err) == (1, "")
        assert [cycle["chain_holds"] for cycle in json.loads(out)["cycles"]].count(None) == 5
        digest = "773c17ca4f6e61ba0b6d35f97a58cda9e32664c30fdf6f97ebe061571243ec09"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8, which some editors put at the start of a file


class TestByteOrderMark:
    """A byte-order mark at the start of a program, session or snapshot
    file is dropped; a U+FEFF anywhere else is text, and refused."""

    def _copies(self, tmp_path):
        """Two copies of the corpus, plain and marked, to mark files in."""
        for name in ("plain", "marked"):
            shutil.copytree(corpus_path("div.session").parent, tmp_path / name)
        return tmp_path / "plain", tmp_path / "marked"

    @pytest.mark.parametrize("form", ["human", "machine"])
    def test_a_marked_program_checks_as_the_plain_one(self, capsys, tmp_path, form):
        plain, marked = self._copies(tmp_path)
        path = marked / "max2.prog"
        path.write_bytes(BOM + path.read_bytes())
        argv = ("--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM, "--format", form)
        want = run_cli(capsys, "check", str(plain / "max2.prog"), *argv)
        assert want[0] == 0
        assert run_cli(capsys, "check", str(path), *argv) == want

    @pytest.mark.parametrize("marked_files", [["div.session"], ["div_cycle3.prog"],
                                              ["div.session", "div_cycle3.prog", "div_oracle.prog"]])
    def test_a_marked_session_and_snapshot_replay_as_the_plain_ones(self, capsys, tmp_path,
                                                                   marked_files):
        plain, marked = self._copies(tmp_path)
        for name in marked_files:
            (marked / name).write_bytes(BOM + (marked / name).read_bytes())
        for form in ("human", "machine"):
            want = run_cli(capsys, "replay", str(plain / "div.session"), "--format", form)
            assert want[0] == 0
            assert run_cli(capsys, "replay", str(marked / "div.session"), "--format", form) == want

    def test_a_syntax_error_on_the_first_line_keeps_its_place(self, tmp_path):
        text = "proc f(in a, out o) { o := ; }\n"
        (tmp_path / "plain.prog").write_text(text, encoding="utf-8")
        (tmp_path / "marked.prog").write_bytes(BOM + text.encode("utf-8"))
        with pytest.raises(ParseError) as plain:
            load_program(tmp_path / "plain.prog")
        with pytest.raises(ParseError) as marked:
            load_program(tmp_path / "marked.prog")
        assert "at 1:28" in str(plain.value)
        assert str(marked.value) == str(plain.value)

    @pytest.mark.parametrize("text, where", [
        ("proc f(in a, out o) { o := a;\ufeff }\n", "1:30"),
        ("\ufeffproc f(in a, out o) { o := a; }\n", "1:1"),
        ("proc f(in a, out o) {\n\ufeff o := a; }\n", "2:1"),
    ])
    def test_a_mark_past_the_first_is_refused_in_a_program(self, capsys, tmp_path, text, where):
        """Each file starts with a mark, dropped, and has a second."""
        path = tmp_path / "f.prog"
        path.write_bytes(BOM + text.encode("utf-8"))
        code, out, err = run_cli(capsys, "check", str(path), "--pre", "TRUE", "--post", "TRUE",
                                 "--domain", "a in 0..1")
        assert (code, out, err) == (2, "", f"error: unexpected character '\\ufeff' at {where}\n")

    def test_a_mark_past_the_first_is_refused_in_a_session(self, capsys, tmp_path):
        _, marked = self._copies(tmp_path)
        path = marked / "div.session"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[4] == "[session]\n"
        lines[4] = "\ufeff" + lines[4]
        path.write_bytes(BOM + "".join(lines).encode("utf-8"))
        code, out, err = run_cli(capsys, "replay", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "'\\ufeff[session]' (line 5)" in err


class TestTrace:
    def test_projected_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", DIV_ORACLE, "--inputs", "x=4, y=2", "--vars", "q",
        )
        assert code == 0
        assert out.splitlines()[:3] == [
            "stmt 2: q := 0",
            "stmt 5: q := 1",
            "stmt 5: q := 2",
        ]

    def test_full_trace_when_vars_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "trace", DIV_ORACLE, "--inputs", "x=4, y=2")
        assert code == 0
        assert "stmt 1: t := 4" in out

    def test_budget_exhaustion_partial_trace_exit_one(self, capsys, tmp_path):
        looping = tmp_path / "loop.prog"
        looping.write_text("proc f(in x, out y) { y := 7; while (x == x) { } }")
        code, out, _ = run_cli(
            capsys, "trace", str(looping), "--inputs", "x=1", "--budget", "10",
        )
        assert code == 1
        assert "stmt 1: y := 7" in out  # partial trajectory survives
        assert "budget_exceeded" in out

    @pytest.mark.parametrize("names", ["", ",", " , "])
    def test_an_empty_variable_list_projects_onto_no_variable(self, capsys, names):
        argv = ("trace", DIV_ORACLE, "--inputs", "x=7, y=2", "--vars", names)
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "final: q=3, r=1, t=1, x=7, y=2\nsteps: 13\n"
        code, out, err = run_cli(capsys, *argv, "--format", "machine")
        assert (code, err) == (0, "")
        assert json.loads(out)["trajectory"] == []

    def test_machine_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", DIV_ORACLE, "--inputs", "x=7, y=2", "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["final"]["q"] == 3
        assert payload["final"]["r"] == 1
        assert payload["status"] == "ok"


def _sum_program(tmp_path, terms):
    path = tmp_path / "sum.prog"
    path.write_text("proc f(in a, out o) { o := " + " + ".join(["a"] * terms) + "; }")
    return str(path)


class TestDeepExpressions:
    def test_check_reports_nesting_with_exit_two(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "check", _sum_program(tmp_path, 5000),
            "--pre", "TRUE", "--post", "TRUE", "--domain", "a in 0..1",
        )
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply\n"

    def test_trace_reports_nesting_with_exit_two(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "trace", _sum_program(tmp_path, 5000), "--inputs", "a=1",
        )
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply\n"

    def test_precondition_nested_too_deeply_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "check", MAX2, "--pre", "(" * 3000 + "a > b" + ")" * 3000,
            "--post", "TRUE", "--domain", DOM,
        )
        assert (code, out) == (2, "")
        assert err == "error: expression nested too deeply\n"

    def test_postcondition_too_deep_to_walk_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "check", MAX2, "--pre", "TRUE",
            "--post", " + ".join(["a"] * 5000) + " > max", "--domain", DOM,
        )
        assert (code, out, err) == (2, "", "error: expression nested too deeply\n")

    def test_session_predicate_nested_too_deeply_names_its_cycle(self, capsys, tmp_path):
        (tmp_path / "f.prog").write_text("proc f(in a, out o) { o := a; }")
        deep = "(" * 3000 + "a > 0" + ")" * 3000
        session = tmp_path / "deep.session"
        session.write_text(
            "[session]\nfinal = f.prog\ndomain = a in 0..3\n\n[cycle 1]\n"
            "test.name = t\ntest.inputs = a=1\ntest.expect = o=1\n"
            f"contract.pre = {deep}\ncontract.post = o == a\nsnapshot = f.prog\n"
        )
        code, out, err = run_cli(capsys, "replay", str(session))
        assert (code, out) == (2, "")
        assert err == "error: [cycle 1]: expression nested too deeply\n"

    def test_slice_reports_nesting_with_exit_two(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "slice", _sum_program(tmp_path, 5000),
            "--pre", "TRUE", "--post", "TRUE", "--domain", "a in 0..1",
        )
        assert (code, out, err) == (2, "", "error: expression nested too deeply\n")

    def test_replay_records_nesting_for_a_snapshot_too_deep_to_compile(self, capsys, tmp_path):
        snapshot = _sum_program(tmp_path, 5000)
        (tmp_path / "f.prog").write_text("proc f(in a, out o) { o := a; }")
        session = tmp_path / "deep.session"
        session.write_text(
            "[session]\nfinal = f.prog\ndomain = a in 0..3\n\n[cycle 1]\n"
            "test.name = t\ntest.inputs = a=1\ntest.expect = o=1\n"
            f"contract.pre = TRUE\ncontract.post = o == a\nsnapshot = {snapshot}\n"
        )
        code, out, err = run_cli(capsys, "replay", str(session), "--format", "machine")
        assert (code, err) == (1, "")
        (cycle,) = json.loads(out)["cycles"]
        assert cycle["errors"] == [
            f"{check}: expression nested too deeply"
            for check in ("green check", "contract point check", "snapshot contract")
        ]

    def test_replay_compares_a_final_program_of_any_depth(self, capsys, tmp_path):
        deep = _sum_program(tmp_path, 5000)
        session = tmp_path / "deep.session"
        session.write_text(
            f"[session]\nfinal = {deep}\ndomain = a in 0..3\n\n[cycle 1]\n"
            "test.name = t\ntest.inputs = a=1\ntest.expect = o=5000\n"
            f"contract.pre = TRUE\ncontract.post = o == 5000 * a\nsnapshot = {deep}\n"
        )
        code, out, err = run_cli(capsys, "replay", str(session), "--format", "machine")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["final_matches_last_snapshot"] is True
        assert not any("final program comparison" in failure for failure in report["failures"])
        assert "final program differs from the last snapshot" not in report["warnings"]

    def test_replay_reports_a_qlty_it_could_not_compute_as_null(self, capsys, tmp_path):
        """The final program is too deep to run, so no assertion is scored:
        QLTY is null in machine output and None in text, not 0.0."""
        deep = _sum_program(tmp_path, 5000)
        session = tmp_path / "deep.session"
        session.write_text(
            f"[session]\nfinal = {deep}\ndomain = a in 0..3\n\n[cycle 1]\n"
            "test.name = t\ntest.inputs = a=1\ntest.expect = o=5000\n"
            f"contract.pre = TRUE\ncontract.post = o == 5000 * a\nsnapshot = {deep}\n"
        )
        code, out, err = run_cli(capsys, "replay", str(session), "--format", "machine")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["qlty"] is None
        assert "qlty: expression nested too deeply" in report["failures"]
        code, out, err = run_cli(capsys, "replay", str(session))
        assert (code, err) == (1, "")
        assert "\nQLTY: None\n" in out
        assert "failure: qlty: expression nested too deeply" in out

    def test_900_terms_still_run(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "check", _sum_program(tmp_path, 900),
            "--pre", "TRUE", "--post", "o == 900 * a", "--domain", "a in -2..2",
        )
        assert code == 0
        assert "verdict: verified" in out


class TestLongChains:
    """A `||` or `&&` chain of 2,000 terms is one node: check judges it on
    the closures (100 points) and in the loop nest (1,000 points), and
    union prints it and decides its tautology."""

    OR = " || ".join(f"a == {n}" for n in range(2000))
    AND = " && ".join(f"a != {n}" for n in range(2000, 4000))

    @pytest.mark.parametrize("domain", ["a in 0..9, b in 0..9", "a in 0..99, b in 0..9"])
    def test_check(self, capsys, domain):
        for pre, post in ((self.OR, "max >= a"), (self.AND, self.AND)):
            code, out, err = run_cli(capsys, "check", MAX2, "--pre", pre, "--post", post,
                                     "--domain", domain, "--format", "machine")
            assert (code, err) == (0, "")
            assert json.loads(out)["verdict"] == "verified"

    def test_union(self, capsys):
        code, out, err = run_cli(capsys, "union", "--pre", self.OR, "--post", "o == a",
                                 "--pre", self.AND, "--post", self.AND,
                                 "--domain", "a in 0..99, b in 0..9", "--format", "machine")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["pre"] == f"{self.OR} || ({self.AND})"
        assert report["post"] == f"o == a || ({self.AND})"
        assert report["pre_tautology"] is True


def test_range_wider_than_sys_maxsize_is_a_plain_counterexample(capsys, tmp_path):
    path = tmp_path / "copy.prog"
    path.write_text("proc f(in a, out o){ o := a; }")
    code, out, err = run_cli(
        capsys, "check", str(path), "--pre", "TRUE", "--post", "o == 1",
        "--domain", "a in 1..9999999999999999999", "--format", "machine",
    )
    assert (code, err) == (1, "")
    result = json.loads(out)
    assert result["verdict"] == "counterexample"
    assert result["witness"]["inputs"] == {"a": 2}


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="int() takes strings of any length",
)
def test_integer_literal_too_long_exits_two(capsys, tmp_path):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.prog"
    path.write_text(f"proc f(in a, out o) {{ o := a + {digits}; }}")
    for argv, where in [
        (("trace", str(path), "--inputs", "a=1"), "1:32"),
        (("check", str(path), "--pre", "TRUE", "--post", "o > a", "--domain", "a in 0..1"), "1:32"),
        (("check", MAX2, "--pre", "TRUE", "--post", "TRUE", "--domain", f"a in 0..{digits}"), "1:9"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: integer literal too long at {where}\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="str() takes ints of any length",
)
def test_value_too_large_to_print_exits_two_and_prints_nothing(capsys, tmp_path):
    """A run-time value longer than CPython's int-to-string limit is one
    error line, exit 2, with nothing on stdout, not even the lines before
    the value."""
    path = tmp_path / "big.prog"
    path.write_text("proc f(in a, out o) { o := 1; o := 10 ^ 5000; }")
    session = tmp_path / "big.session"
    session.write_text("\n".join([
        "[session]", "final = big.prog", "domain = a in 0..3", "[cycle 1]", "test.name = t",
        "test.inputs = a=1", "test.expect = o=1", "contract.pre = TRUE",
        "contract.post = o == 1", "snapshot = big.prog",
    ]))
    for argv, forms in [
        (("check", str(path), "--pre", "TRUE", "--post", "o == 1", "--domain", "a in 0..1"),
         ("human", "machine")),
        (("trace", str(path), "--inputs", "a=1"), ("human", "machine")),
        # the machine report holds the contract's witness, final state and all
        (("replay", str(session)), ("machine",)),
    ]:
        for form in forms:
            result = run_cli(capsys, *argv, "--format", form)
            assert result == (2, "", "error: value too large to print\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="str() takes ints of any length",
)
def test_replay_counts_an_output_too_large_to_print_as_a_failed_test(capsys, tmp_path):
    """A test whose output is longer than the int-to-string limit fails,
    with a detail that names the variable and not its value, instead of
    erroring; the human replay reports it as one failure (exit 1)."""
    (tmp_path / "big.prog").write_text("proc f(in a, out o) { o := 10 ^ 5000; }")
    session = tmp_path / "big.session"
    session.write_text("\n".join([
        "[session]", "final = big.prog", "domain = a in 0..3", "[cycle 1]", "test.name = t",
        "test.inputs = a=1", "test.expect = o=5", "contract.pre = TRUE",
        "contract.post = TRUE", "snapshot = big.prog",
    ]))
    code, out, err = run_cli(capsys, "replay", str(session))
    assert (code, err) == (1, "")
    detail = "o is too large to print (expected 5)"
    assert f"\n  green:  FAIL ({detail})\n" in out
    assert f"\nfailure: cycle 1: green check failed: {detail}\n" in out
    assert "error" not in out
    assert "result: FAILED (1 failures, 0 warnings)" in out


def test_no_color_codes_when_not_a_tty(capsys, monkeypatch):
    monkeypatch.setenv("TDDSLICER_COLOR", "0")
    _, out, _ = run_cli(
        capsys, "check", MAX2,
        "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
    )
    assert "\033[" not in out


def test_usage_error_exits_two(capsys):
    assert main(["unknown-command"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("budget", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ["check", MAX2, "--pre", "a > b", "--post", "TRUE", "--domain", DOM],
    ["slice", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM],
    ["union", "--pre", "a > b", "--post", "o == a", "--pre", "a <= b", "--post", "o == b", "--domain", DOM],
    ["replay", DIV_SESSION],
    ["trace", MAX2, "--inputs", "a=1, b=2"],
], ids=lambda argv: argv[0])
def test_a_nonpositive_budget_is_a_usage_error_for_every_command(capsys, argv, budget):
    """union runs no program and takes no --budget: argparse refuses it."""
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    if argv[0] == "union":
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --budget" in err
    else:
        assert (code, out, err) == (2, "", "error: step_budget must be positive\n")


def test_one_parser_serves_every_call_in_a_process(capsys):
    """main builds its argument parser once per process; each call gives
    the exit code, stdout and stderr it gives on a parser of its own."""
    div = ["--pre", "x >= 0 && y > 0", "--post", "0 <= r && r < y && x == y * q + r",
           "--domain", "x in 0..16, y in 1..9"]
    calls = [
        ["check", DIV_ORACLE, *div, "--format", "machine"],
        ["check", MAX2, "--pre", "a > b"],
        ["slice", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM],
        ["replay", DIV_SESSION, "--format", "machine"],
        ["check", DIV_ORACLE, *div, "--format", "machine"],
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0]
    assert "the following arguments are required: --post, --domain" in shared[1][2]


EVERY_COMMAND = [
    ("check", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM),
    ("slice", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM),
    ("union", "--pre", "a > b", "--post", "max == a", "--pre", "a <= b", "--post", "max == b"),
    ("replay", DIV_SESSION),
    ("trace", DIV_ORACLE, "--inputs", "x=7, y=2"),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_the_cli_stamps_every_machine_header(capsys, monkeypatch, argv):
    """format_version and command are written by the command line alone,
    on every command's machine document."""
    monkeypatch.setattr(cli, "FORMAT_VERSION", 2)
    code, out, err = run_cli(capsys, *argv, "--format", "machine")
    assert (code, err) == (0, "")
    document = json.loads(out)
    assert (document["format_version"], document["command"]) == (2, argv[0])


def test_a_run_builds_only_the_output_of_its_format(capsys, monkeypatch):
    """A human replay builds no payload, and a machine one draws no line."""
    from tddslicer.session import Report

    def unbuilt(report):
        raise AssertionError("built the payload")

    def undrawn(report, failures):
        raise AssertionError("drew a line")
        yield

    human = run_cli(capsys, "replay", DIV_SESSION)
    machine = run_cli(capsys, "replay", DIV_SESSION, "--format", "machine")
    monkeypatch.setattr(Report, "to_dict", unbuilt)
    assert run_cli(capsys, "replay", DIV_SESSION) == human
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_report_lines", undrawn)
    assert run_cli(capsys, "replay", DIV_SESSION, "--format", "machine") == machine


def test_internal_error_exits_three_with_one_line_and_no_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("lost\ntrack")

    monkeypatch.setattr(cli, "check", broken)
    code, out, err = run_cli(
        capsys, "check", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
    )
    assert (code, out, err) == (3, "", "internal error: RuntimeError: lost track\n")


class TestRenderJson:
    """The machine output is render_json's, which is json.dumps(value,
    indent=2, sort_keys=True) byte for byte."""

    @staticmethod
    def _dumps(value):
        return json.dumps(value, indent=2, sort_keys=True)

    def test_every_command_payload(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "inc.prog").write_text("proc inc(in x, out y) { y := x + 1; }")
        broken = tmp_path / "bad.session"
        broken.write_text(
            "[session]\nfinal = inc.prog\ndomain = x in 0..3\n"
            "[cycle 1]\ntest.name = t\ntest.inputs = x=1\ntest.expect = y=3\n"
            "contract.pre = TRUE\ncontract.post = y > 4\nsnapshot = inc.prog\n"
        )
        calls = [
            ("check", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM),
            ("check", MAX2, "--pre", "TRUE", "--post", "max == a", "--domain", DOM),
            ("slice", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM),
            ("union", "--pre", "a > b", "--post", "max == a", "--pre", "a < b", "--post", "max == b",
             "--domain", DOM),
            ("union", "--pre", "a > b", "--post", "max == a", "--pre", "a <= b", "--post", "max == b"),
            ("replay", DIV_SESSION),
            ("replay", str(broken)),
            ("trace", DIV_ORACLE, "--inputs", "x=7, y=2", "--vars", "q"),
        ]
        payloads = []
        real = cli.render_json

        def spy(value):
            payloads.append(value)
            return real(value)

        monkeypatch.setattr(cli, "render_json", spy)
        for argv in calls:
            code, out, err = run_cli(capsys, *argv, "--format", "machine")
            assert code in (0, 1) and err == "", argv
            assert out == self._dumps(payloads[-1]) + "\n"
        assert len(payloads) == len(calls)

    _scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-(10**40), max_value=10**40)
                | st.floats() | st.sampled_from([100.0, 0.5, -0.0, 1e300, 12.0]) | st.text())
    _values = st.recursive(
        _scalars,
        lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                       | st.dictionaries(st.text(), inner, max_size=4)),
        max_leaves=25,
    )

    @given(_values)
    @example({"é": " \x00\"\\\U0001f600", "": [], "z": {}, "a": [100.0, -(2**70), ()]})
    @settings(max_examples=300, deadline=None)
    def test_json_values(self, value):
        assert render_json(value) == self._dumps(value)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="str() takes ints of any length",
    )
    def test_an_int_too_long_to_print_is_a_value_error(self):
        for value in (10**5000, {"o": [1, 10**5000]}):
            with pytest.raises(ValueError):
                self._dumps(value)
            with pytest.raises(ValueError):
                render_json(value)
