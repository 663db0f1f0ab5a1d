"""End-to-end CLI behavior: exit codes, output formats, error paths."""

from __future__ import annotations

import json
import sys

import pytest

from tddslicer import cli
from tddslicer.cli import main
from tddslicer.corpus import corpus_path

MAX2 = str(corpus_path("max2.prog"))
DIV_ORACLE = str(corpus_path("div_oracle.prog"))
DIV_SESSION = str(corpus_path("div.session"))
DOM = "a in -8..8, b in -8..8"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_replay_records_a_final_program_too_deep_to_compare(self, capsys, tmp_path):
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
        assert report["final_matches_last_snapshot"] is None
        assert "final program comparison: expression nested too deeply" in report["failures"]
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


def test_internal_error_exits_three_with_one_line_and_no_traceback(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("lost\ntrack")

    monkeypatch.setattr(cli, "check", broken)
    code, out, err = run_cli(
        capsys, "check", MAX2, "--pre", "a > b", "--post", "a > b && max == a", "--domain", DOM,
    )
    assert (code, out, err) == (3, "", "internal error: RuntimeError: lost track\n")
