"""Session parsing, replay semantics, and QLTY scoring."""

from __future__ import annotations

import collections
import hashlib
import json
import shutil
import sys

import pytest

from tddslicer import Contract, Domain, TestCase, check_point, parse_predicate, qlty, replay
from tddslicer import contracts
from tddslicer import session as session_module
from tddslicer.cli import main
from tddslicer.contracts import REGRESSION
from tddslicer.corpus import corpus_path
from tddslicer.lang import ast, interp
from tddslicer.lang.interp import DEFAULT_STEP_BUDGET
from tddslicer.lang.parser import parse_program
from tddslicer.lang.printer import FORMAT_VERSION, render_json
from tddslicer.session import (
    FAILED_AS_EXPECTED,
    NOT_APPLICABLE,
    PASSED_AS_EXPECTED,
    PASSED_UNEXPECTEDLY,
    Cycle,
    Session,
    SessionFormatError,
    load_session,
    parse_session,
)

from long_session import POSTS, write_long_session


def run_test(program, test, step_budget=DEFAULT_STEP_BUDGET):
    """Execute one test as replay does: every expected out-parameter must
    match exactly."""
    return session_module._tester(program, step_budget, 1)(test)


def to_json(report):
    """A replay report's machine output, as the command line prints it:
    its payload under the header cli._show stamps."""
    return render_json({**report.to_dict(), "format_version": FORMAT_VERSION, "command": "replay"})


MINIMAL_PROG = "proc inc(in x, out y) {\n    y := x + 1;\n}\n"

MINIMAL_SESSION = """
[session]
name = minimal
final = inc.prog
domain = x in 0..4

[cycle 1]
test.name = one_plus_one
test.inputs = x=1
test.expect = y=2
contract.pre = TRUE
contract.post = y == x + 1
snapshot = inc.prog
"""


@pytest.fixture
def minimal_dir(tmp_path):
    (tmp_path / "inc.prog").write_text(MINIMAL_PROG)
    return tmp_path


class TestParseSession:
    def test_bundled_div_session(self, div_session):
        assert div_session.name == "div-kata"
        assert len(div_session.cycles) == 9
        assert str(div_session.dom) == "x in 0..16, y in 1..9"
        assert div_session.out_ranges == {"q": (0, 16), "r": (0, 16)}
        assert div_session.cycles[3].is_refactor
        assert div_session.cycles[6].test.declared_kind == "triangulation"
        assert len(div_session.acceptance_suite) == 9

    def test_minimal_session(self, minimal_dir):
        session = parse_session(MINIMAL_SESSION, minimal_dir)
        assert session.name == "minimal"
        assert len(session.cycles) == 1
        assert session.acceptance_suite[0].name == "one_plus_one"

    def test_missing_snapshot_names_path(self, minimal_dir):
        text = MINIMAL_SESSION.replace("snapshot = inc.prog", "snapshot = gone.prog")
        with pytest.raises(SessionFormatError, match="gone.prog"):
            parse_session(text, minimal_dir)

    def test_noncontiguous_cycles(self, minimal_dir):
        text = MINIMAL_SESSION.replace("[cycle 1]", "[cycle 2]")
        with pytest.raises(SessionFormatError, match="contiguous"):
            parse_session(text, minimal_dir)

    def test_malformed_key(self, minimal_dir):
        text = MINIMAL_SESSION.replace("test.name = one_plus_one", "test.name")
        with pytest.raises(SessionFormatError, match="key = value"):
            parse_session(text, minimal_dir)

    def test_superscript_digit_is_a_format_error(self, minimal_dir):
        text = MINIMAL_SESSION.replace("test.inputs = x=1", "test.inputs = x=1²")
        with pytest.raises(SessionFormatError, match="unexpected character '²'"):
            parse_session(text, minimal_dir)

    def test_unknown_key_rejected(self, minimal_dir):
        text = MINIMAL_SESSION + "mystery = 1\n"
        with pytest.raises(SessionFormatError, match="unknown"):
            parse_session(text, minimal_dir)

    def test_contract_scope_violation(self, minimal_dir):
        text = MINIMAL_SESSION.replace(
            "contract.post = y == x + 1", "contract.post = t == 1"
        )
        with pytest.raises(SessionFormatError, match="out-of-scope"):
            parse_session(text, minimal_dir)

    def test_inputs_must_match_signature(self, minimal_dir):
        text = MINIMAL_SESSION.replace("test.inputs = x=1", "test.inputs = z=1")
        with pytest.raises(SessionFormatError, match="test.inputs"):
            parse_session(text, minimal_dir)

    def test_default_domain_when_omitted(self, minimal_dir):
        text = MINIMAL_SESSION.replace("domain = x in 0..4\n", "")
        session = parse_session(text, minimal_dir)
        assert session.dom.ranges == (("x", -8, 8),)

    def test_outrange_must_name_out_parameters(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        text = path.read_text().replace(
            "outrange = q in 0..16, r in 0..16", "outrange = x in 0..3, qq in 0..16, r in 0..16"
        )
        path.write_text(text)
        with pytest.raises(SessionFormatError, match=r"not out-parameters: \['qq', 'x'\]"):
            parse_session(text, corpus)
        assert main(["replay", str(path), "--format", "machine"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "['qq', 'x']" in captured.err

    @pytest.mark.parametrize("index, digit, line", [
        # a superscript two passes str.isdigit, and int() refuses it
        ("2", "²", 21),
        # an Arabic-Indic one passes both, and int() reads it as 1
        ("1", "١", 11),
    ])
    def test_cycle_index_must_be_ascii_digits(self, tmp_path, capsys, index, digit, line):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        path.write_text(path.read_text().replace(f"[cycle {index}]", f"[cycle {digit}]"))
        message = f"unexpected section [cycle {digit}] (line {line})"
        with pytest.raises(SessionFormatError) as raised:
            load_session(path)
        assert str(raised.value) == message
        assert main(["replay", str(path), "--format", "machine"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_snapshot_that_is_not_utf8_names_its_cycle_and_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        snapshot = corpus / "div_cycle3.prog"
        snapshot.write_bytes(snapshot.read_bytes() + b"// \xff\n")
        message = f"[cycle 3]: {snapshot}: not UTF-8 text (invalid start byte)"
        with pytest.raises(SessionFormatError) as raised:
            load_session(corpus / "div.session")
        assert str(raised.value) == message
        assert main(["replay", str(corpus / "div.session"), "--format", "machine"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_session_file_that_is_not_utf8_names_it(self, minimal_dir, capsys):
        path = minimal_dir / "minimal.session"
        path.write_bytes(MINIMAL_SESSION.encode() + b"# \xff\n")
        message = f"{path}: not UTF-8 text (invalid start byte)"
        with pytest.raises(SessionFormatError) as raised:
            load_session(path)
        assert str(raised.value) == message
        assert main(["replay", str(path), "--format", "machine"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() takes strings of any length",
    )
    def test_a_cycle_number_too_long_for_int_is_a_format_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        digits = "0" * sys.get_int_max_str_digits() + "2"
        path.write_text(path.read_text().replace("[cycle 2]", f"[cycle {digits}]"))
        message = "cycle number too long (line 21)"
        with pytest.raises(SessionFormatError) as raised:
            load_session(path)
        assert str(raised.value) == message
        assert main(["replay", str(path), "--format", "machine"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_outrange_may_cover_some_out_parameters(self, minimal_dir):
        text = MINIMAL_SESSION.replace(
            "domain = x in 0..4\n", "domain = x in 0..4\noutrange = y in 0..9\n"
        )
        assert parse_session(text, minimal_dir).out_ranges == {"y": (0, 9)}

    def test_session_object_rejects_stray_out_ranges(self, div_session):
        def with_out_ranges(out_ranges):
            return Session(div_session.name, div_session.cycles, div_session.final, div_session.dom,
                           out_ranges)

        with pytest.raises(ValueError, match=r"not out-parameters: \['qq'\]"):
            with_out_ranges({"qq": (0, 16)})
        with pytest.raises(ValueError, match=r"not out-parameters: \['qq', 'x'\]"):
            with_out_ranges({"x": (0, 3), "qq": (0, 16), "r": (0, 16)})
        narrowed = with_out_ranges({"r": (0, 16)})
        assert narrowed.out_ranges == {"r": (0, 16)}

    def test_session_object_rejects_an_empty_out_range(self, div_session, tmp_path, capsys):
        """Built in Python, a session refuses an empty out-range as a Domain
        does; in a file the parser refuses it first, at its position."""
        with pytest.raises(ValueError, match=r"^empty range 5\.\.1 for 'q'$"):
            Session(div_session.name, div_session.cycles, div_session.final, div_session.dom,
                    {"q": (5, 1), "r": (0, 16)})
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        path.write_text(path.read_text().replace("outrange = q in 0..16", "outrange = q in 5..1"))
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: bad outrange: empty range 5..1 for 'q' at 1:1\n")

    @pytest.mark.parametrize("old, new, changed, message", [
        ("domain = x in 0..16, y in 1..9", "domain = x in 0..16",
         lambda session, max2: {"dom": Domain.parse("x in 0..16")},
         "domain must cover exactly the in-parameters ['x', 'y']"),
        ("test.inputs = x=4, y=2", "test.inputs = x=4",
         lambda session, max2: _cycle2(session, test=TestCase("divide_4_by_2", {"x": 4}, {"q": 2, "r": 0})),
         "[cycle 2]: test.inputs must bind exactly ['x', 'y']"),
        ("test.expect = q=2, r=0", "test.expect = q=2",
         lambda session, max2: _cycle2(session, test=TestCase("divide_4_by_2", {"x": 4, "y": 2}, {"q": 2})),
         "[cycle 2]: test.expect must bind exactly ['q', 'r']"),
        ("snapshot = div_cycle2.prog", "snapshot = max2.prog",
         lambda session, max2: _cycle2(session, snapshot=max2),
         "[cycle 2]: snapshot signature differs from the final program"),
        ("contract.pre = (x == 2 || x == 4) && y == 2", "contract.pre = q == 2 && y == 2",
         lambda session, max2: _cycle2(session, contract=Contract(
             parse_predicate("q == 2 && y == 2"), session.cycles[1].contract.post)),
         "[cycle 2]: precondition may only read in-parameters; out of scope: ['q']"),
        ("[cycle 2]", "[cycle 7]",
         lambda session, max2: _cycle2(session, index=7),
         "cycle indices must be contiguous from 1; found 7 after 1"),
        ("test.expect = q=2, r=0\ntest.kind = new", "test.expect = q=2, r=0\ntest.kind = flaky",
         lambda session, max2: _cycle2(session, test=TestCase("divide_4_by_2", {"x": 4, "y": 2},
                                                              {"q": 2, "r": 0}, "flaky")),
         "[cycle 2]: unknown test.kind 'flaky'"),
    ], ids=["domain", "inputs", "expect", "signature", "scope", "index", "kind"])
    def test_session_built_in_python_is_checked_as_a_file_is(
        self, div_session, max2, tmp_path, capsys, old, new, changed, message
    ):
        fields = dict(zip(div_session._fields, div_session._values))
        with pytest.raises(ValueError) as raised:
            Session(**{**fields, **changed(div_session, max2)})
        assert str(raised.value) == message
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(SessionFormatError) as raised:
            load_session(path)
        assert str(raised.value) == message
        assert main(["replay", str(path), "--format", "machine"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_parse_errors_come_before_the_session_checks(self, tmp_path, capsys):
        """Cycle 2 binds only x and cycle 6's pre is cut short: the parse
        error is reported, though the binding error comes first in the
        file."""
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_path("div.session").parent, corpus)
        path = corpus / "div.session"
        pre6 = "contract.pre = exists k in 0..16 : x == y * k"
        text = path.read_text().replace("test.inputs = x=4, y=2", "test.inputs = x=4")
        path.write_text(text.replace(pre6, "contract.pre = x ==", 1))
        assert main(["replay", str(path), "--format", "machine"]) == 2
        assert capsys.readouterr() == (
            "", "error: [cycle 6]: expected expression, found 'end of input' at 1:5\n"
        )

    def test_bad_kind_rejected(self, minimal_dir):
        text = MINIMAL_SESSION + "test.kind = flaky\n"
        with pytest.raises(SessionFormatError, match="test.kind"):
            parse_session(text, minimal_dir)


def _cycle2(session, test=None, contract=None, snapshot=None, index=None):
    """The Session fields that give session's cycle 2 the test, contract,
    snapshot or index given."""
    cycle = session.cycles[1]
    changed = Cycle(index or cycle.index, test or cycle.test, contract or cycle.contract,
                    snapshot or cycle.snapshot, cycle.note)
    return {"cycles": (session.cycles[0], changed, *session.cycles[2:])}


@pytest.fixture(scope="module")
def report(div_session):
    return replay(div_session)


class TestReplayDiv:
    def test_all_green_checks_pass(self, report):
        assert all(record.green.passed for record in report.cycles)

    def test_all_regressions_pass(self, report):
        for record in report.cycles:
            assert all(r.passed for r in record.regressions)
            assert len(record.regressions) == record.index - 1

    def test_cycle2_red_fails_as_expected(self, report):
        assert report.cycles[0].red.status == NOT_APPLICABLE
        assert report.cycles[1].red.status == FAILED_AS_EXPECTED

    def test_refactor_cycle_red_not_applicable(self, report):
        assert report.cycles[3].red.status == NOT_APPLICABLE

    def test_cycle6_new_test_already_passing_is_warning(self, report):
        assert report.cycles[5].red.status == PASSED_UNEXPECTEDLY
        assert not report.failures()  # a warning, not a failure

    def test_triangulation_cycles_classified_regression(self, report):
        assert report.cycles[6].classification == REGRESSION
        assert report.cycles[8].classification == REGRESSION
        assert report.cycles[6].red.status == PASSED_AS_EXPECTED
        assert not report.cycles[6].kind_mismatch

    def test_every_contract_verified_on_snapshot_and_oracle(self, report):
        for record in report.cycles:
            assert record.snapshot_contract.verdict == "verified"
            assert record.oracle_contract.verdict == "verified"
            assert record.implication_witnessed

    def test_chain_subsumption_holds_everywhere(self, report):
        assert all(record.chain_holds for record in report.cycles)

    def test_qlty_is_100(self, report):
        assert report.qlty == 100.0

    def test_union_pre_is_tautology(self, report):
        assert report.union_pre_tautology is True

    def test_final_matches_last_snapshot(self, report):
        assert report.final_matches_last_snapshot

    def test_monotone_accumulation(self, div_session):
        last = div_session.cycles[-1].snapshot
        for cycle in div_session.cycles:
            assert run_test(last, cycle.test).passed

    def test_replay_is_deterministic(self, div_session):
        assert to_json(replay(div_session)) == to_json(replay(div_session))


class TestReplayNegative:
    BROKEN = """
[session]
final = inc.prog
domain = x in 0..4

[cycle 1]
test.name = says_two
test.inputs = x=1
test.expect = y=2
contract.pre = TRUE
contract.post = y == 0
snapshot = inc.prog
"""

    def test_snapshot_failing_its_contract_is_reported(self, minimal_dir):
        session = parse_session(self.BROKEN, minimal_dir)
        report = replay(session)
        record = report.cycles[0]
        assert record.green.passed  # the test itself passes
        assert record.snapshot_contract.verdict == "counterexample"
        assert report.failures()
        assert any("counterexample" in f for f in report.failures())

    def test_replay_records_errors_without_aborting(self, minimal_dir):
        # 1/x is undefined at x=0: the contract checks turn into fault
        # verdicts and the chain implication into a recorded error, while
        # the replay still completes and reports the cycle.
        text = MINIMAL_SESSION.replace(
            "contract.post = y == x + 1", "contract.post = 1 / x == y - 1"
        )
        report = replay(parse_session(text, minimal_dir))
        record = report.cycles[0]
        assert record.green.passed
        assert record.snapshot_contract.verdict == "fault"
        assert any("chain" in err for err in record.errors)
        assert report.failures()

    def test_final_snapshot_divergence_warns(self, minimal_dir):
        (minimal_dir / "other.prog").write_text(
            "proc inc(in x, out y) { y := 1 + x; }"
        )
        text = MINIMAL_SESSION.replace("snapshot = inc.prog", "snapshot = other.prog")
        report = replay(parse_session(text, minimal_dir))
        assert not report.final_matches_last_snapshot
        assert any("differs" in w for w in report.warnings())
        assert not report.failures()  # divergence alone is a warning


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="str() takes ints of any length",
)
@pytest.mark.parametrize("body, detail", [
    ("o := 1;", "o=1 (expected a value too large to print)"),
    ("o := 10 ^ 5000 + 1;", "o is too large to print (expected a value too large to print)"),
], ids=["got-printable", "got-too-large"])
def test_an_expected_value_too_large_to_print_fails_the_test(body, detail):
    """A test, built in Python, that expects a value longer than the
    int-to-string limit fails its green check with a detail that says so,
    instead of erroring."""
    program = parse_program(f"proc f(in a, out o) {{ {body} }}")
    test = TestCase("t", {"a": 1}, {"o": 10 ** 5000})
    contract = Contract(parse_predicate("TRUE"), parse_predicate("TRUE"))
    session = Session("big", (Cycle(1, test, contract, program),), program, Domain.parse("a in 0..3"))
    (record,) = replay(session).cycles
    assert (record.green.passed, record.green.detail, record.errors) == (False, detail, [])


class TestQlty:
    def test_final_oracle_scores_100(self, div_session):
        assert qlty(div_session.final, div_session.acceptance_suite) == 100.0

    def test_snapshot1_score_derived(self, div_session):
        snapshot1 = div_session.cycles[0].snapshot
        # Count assertions independently: q matches only for 2/2; r matches
        # wherever the expected remainder is 0.
        expected_passes = 0
        for test in div_session.acceptance_suite:
            if test.expected["q"] == 1:
                expected_passes += 1
            if test.expected["r"] == 0:
                expected_passes += 1
        total = 2 * len(div_session.acceptance_suite)
        assert expected_passes == 8 and total == 18
        assert qlty(snapshot1, div_session.acceptance_suite) == pytest.approx(100.0 * 8 / 18)

    def test_empty_body_scores_only_zero_expectations(self, div_session):
        husk = parse_program("proc div(in x, in y, out q, out r) { }")
        zero_hits = sum(
            (test.expected["q"] == 0) + (test.expected["r"] == 0)
            for test in div_session.acceptance_suite
        )
        score = qlty(husk, div_session.acceptance_suite)
        assert score == pytest.approx(100.0 * zero_hits / 18)
        assert score < 100.0

    def test_faults_fail_all_assertions_of_the_test(self):
        program = parse_program("proc f(in x, out y) { y := 1 / x; }")
        suite = [
            TestCase("ok", {"x": 1}, {"y": 1}),
            TestCase("boom", {"x": 0}, {"y": 0}),
        ]
        assert qlty(program, suite) == 50.0

    def test_empty_suite_rejected(self, div_session):
        with pytest.raises(ValueError):
            qlty(div_session.final, [])

    def test_qlty_100_iff_pointwise_contracts_pass(self, div_session):
        for program in (div_session.final, div_session.cycles[0].snapshot):
            score = qlty(program, div_session.acceptance_suite)
            point_results = []
            for test in div_session.acceptance_suite:
                pre = " && ".join(f"{v} == {k}" for v, k in sorted(test.inputs.items()))
                post = " && ".join(f"{v} == {k}" for v, k in sorted(test.expected.items()))
                contract = Contract(parse_predicate(pre), parse_predicate(post))
                point_results.append(
                    check_point(program, contract, test.inputs).passed
                )
            assert (score == 100.0) == all(point_results)


def test_load_session_missing_file(tmp_path):
    with pytest.raises(SessionFormatError, match="not found"):
        load_session(tmp_path / "absent.session")


def test_bundled_corpus_loads_via_helper():
    session = load_session(corpus_path("div.session"))
    assert session.name == "div-kata"


# Replay's `--format machine` output, captured before replay decided all
# cycle contracts in one shared scan; any change to it is a regression.
DIV_REPLAY_SHA256 = "2ca978f1f437972464c1303ac6f0f91bc8de63b2d1515e9be3552b2cd6ac61d5"
# Report of div.session over x in 0..38, y in 1..16, captured the same way.
WIDE_DIV_REPLAY_SHA256 = "f7843370655aa4e5032b5cc0f24c61fe1a14073b1f0cd54626ac3f8d12b1dcef"

FAULT_PRONE_POST = "r == x % y && x == y * q + r"

# SHA-256 of the fault-prone long session's machine output at 10 and 40 cycles,
# recorded when every chain check still enumerated its post domain
FAULT_PRONE_REPLAY_SHA256 = {
    10: "d4c817659433ca0dbdd0fd2ac51f8aed20a102d22f4ce226dd13f336ffda15fc",
    40: "136ab34ce494f868b37fce476de1346eb51cff2f2155b0537270cdba563cfe75",
}

BROKEN_REPLAY = """\
{
  "command": "replay",
  "cycles": [
    {
      "chain_holds": true,
      "classification": "new",
      "contract_point": {
        "detail": "postcondition is false",
        "final": {
          "x": 1,
          "y": 2
        },
        "inputs": {
          "x": 1
        },
        "status": "fail"
      },
      "declared_kind": null,
      "errors": [],
      "green": {
        "detail": "",
        "passed": true,
        "test": "says_two"
      },
      "implication_witnessed": false,
      "index": 1,
      "kind_mismatch": false,
      "matched_contract": null,
      "oracle_contract": {
        "checked_points": 1,
        "domain": "x in 0..4",
        "verdict": "counterexample",
        "witness": {
          "detail": "postcondition is false",
          "final": {
            "x": 0,
            "y": 1
          },
          "inputs": {
            "x": 0
          }
        }
      },
      "red": {
        "detail": "first cycle",
        "status": "not_applicable"
      },
      "regressions": [],
      "snapshot_contract": {
        "checked_points": 1,
        "domain": "x in 0..4",
        "verdict": "counterexample",
        "witness": {
          "detail": "postcondition is false",
          "final": {
            "x": 0,
            "y": 1
          },
          "inputs": {
            "x": 0
          }
        }
      },
      "test": "says_two"
    }
  ],
  "domain": "x in 0..4",
  "failures": [
    "cycle 1: snapshot contract counterexample",
    "cycle 1: oracle contract counterexample"
  ],
  "final_matches_last_snapshot": true,
  "format_version": 1,
  "ok": false,
  "qlty": 100.0,
  "session": "broken",
  "union_contract": {
    "post": "y == 0",
    "pre": "TRUE"
  },
  "union_pre_tautology": true,
  "warnings": [
    "cycle 1: cycle test vs its own contract: fail"
  ]
}
"""


SPLIT_SESSION = """
[session]
name = split
final = inc.prog
domain = x in 0..199

[cycle 1]
test.name = low
test.inputs = x=1
test.expect = y=2
contract.pre = x < 8
contract.post = y == x + 1
snapshot = inc_low.prog

[cycle 2]
test.name = high
test.inputs = x=9
test.expect = y=10
contract.pre = x >= 8
contract.post = y == x + 1
snapshot = inc.prog
"""

#: SHA-256 of SPLIT_SESSION's replay output in each format, as judging the
#: union pre's 200 points gave it
SPLIT_REPLAY_SHA256 = {
    "machine": "7c365dd04d1c7b552a4f5f624cc4bedb6505923db24657c9a181f9a7a1c3613b",
    "human": "2fb528e73a1ff0191fcf84f1f3af2d75239d70bab846177fb5fef8e4c43fd96e",
}


class TestReplayGoldens:
    def _replay_output(self, capsys, path):
        code = main(["replay", str(path), "--format", "machine"])
        return code, capsys.readouterr().out

    def test_div_session_machine_output(self, capsys):
        code, out = self._replay_output(capsys, corpus_path("div.session"))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIV_REPLAY_SHA256

    def _compiled(self, monkeypatch, capsys, path):
        """What a replay of path emits and compiles, as (name, function)
        pairs in order, with its exit code and machine output."""
        loaded = []
        real = interp._load

        def spy(name, function, emit):
            loaded.append((name, function))
            return real(name, function, emit)

        monkeypatch.setattr(interp, "_load", spy)
        code, out = self._replay_output(capsys, path)
        return loaded, code, out

    def test_div_session_compiles_its_final_scan_and_where_filter(self, capsys, monkeypatch):
        """A replay of div.session emits and compiles two functions: the
        loop nest that judges the final program (div) under TRUE, the
        triple of cycles 8 and 9, at each of the 153 points, and check_all's
        precondition filter for the other triples. Every other run, the
        tests' included (at most 9 per snapshot), runs on the closures."""
        loaded, code, out = self._compiled(monkeypatch, capsys, corpus_path("div.session"))
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIV_REPLAY_SHA256
        assert loaded == [("div", "scan"), ("where", "visits")]

    def test_small_div_session_compiles_nothing(self, capsys, monkeypatch, tmp_path):
        """div.session over 11 x 9 = 99 points, below the gate: the TRUE
        triple is judged in check_all's shared scan on the closures, like
        every other, and nothing is emitted."""
        shutil.copytree(corpus_path("div.session").parent, tmp_path / "corpus")
        path = tmp_path / "corpus" / "div.session"
        text = path.read_text(encoding="utf-8")
        narrow = "domain = x in 0..16, y in 1..9"
        assert narrow in text
        path.write_text(text.replace(narrow, "domain = x in 0..10, y in 1..9"), encoding="utf-8")
        loaded, code, out = self._compiled(monkeypatch, capsys, path)
        assert code == 0
        assert json.loads(out)["cycles"][7]["oracle_contract"]["checked_points"] == 99
        assert loaded == []

    def test_a_split_union_pre_compiles_no_tautology_filter(self, capsys, monkeypatch, tmp_path):
        """Two cycles whose preconditions x < 8 and x >= 8 split 200 points
        without a TRUE: the union pre x < 8 || x >= 8 is a tautology by its
        truth table over the one atom x < 8 (x >= 8 is its complement), so
        the replay compiles only check_all's filter, and its report in both
        formats is the one judging the 200 points gave."""
        (tmp_path / "inc.prog").write_text(MINIMAL_PROG)
        (tmp_path / "inc_low.prog").write_text("proc inc(in x, out y) {\n    if (x < 8) {\n"
                                               "        y := x + 1;\n    }\n}\n")
        path = tmp_path / "split.session"
        path.write_text(SPLIT_SESSION)
        loaded, code, out = self._compiled(monkeypatch, capsys, path)
        assert code == 0
        assert loaded == [("where", "visits")]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SPLIT_REPLAY_SHA256["machine"]
        assert json.loads(out)["union_pre_tautology"] is True
        assert main(["replay", str(path), "--format", "human"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SPLIT_REPLAY_SHA256["human"]

    def test_broken_session_machine_output(self, capsys, minimal_dir):
        path = minimal_dir / "broken.session"
        path.write_text(TestReplayNegative.BROKEN)
        code, out = self._replay_output(capsys, path)
        assert code == 1
        assert out == BROKEN_REPLAY

    def test_div_session_run_count(self, div_session, verifier_runs):
        """Each distinct program runs once per point at which a pair using
        it still needs it in check_all's shared scan: the 18 contract checks
        of div.session use 6 distinct programs (snapshots 5 to 7 are equal,
        and so are snapshots 8, 9 and the final program) over 153 points,
        and a pair needs its program only where its precondition holds, up
        to its first failure. The 4 pairs of cycles 8 and 9 under TRUE are
        one triple, judged by check's loop nest, whose runs the counter
        does not see: it checks all 153 points. The 9 contract point checks
        add one run each. Checking the 18 pairs one by one took 858 runs."""
        report = replay(div_session)
        assert not report.failures()
        assert len(verifier_runs) == 122
        assert _true_checked_points(div_session, report) == [153] * 4

    def test_wider_div_session_report_and_run_count(self, verifier_runs):
        """div.session over 39 x 16 = 624 points instead of 153: every
        cycle contract holds on all of them, so each pair scans the whole
        domain, and the TRUE triple of cycles 8 and 9 checks all 624 points
        in check's loop nest, unseen by the run counter. The report hash was
        captured when check_all still scanned in chunks, and has not changed
        since."""
        path = corpus_path("div.session")
        text = path.read_text(encoding="utf-8")
        narrow = "domain = x in 0..16, y in 1..9"
        assert narrow in text
        session = parse_session(text.replace(narrow, "domain = x in 0..38, y in 1..16"), path.parent)
        report = replay(session)
        assert not report.failures()
        assert len(verifier_runs) == 242
        assert _true_checked_points(session, report) == [624] * 4
        digest = hashlib.sha256(to_json(report).encode("utf-8")).hexdigest()
        assert digest == WIDE_DIV_REPLAY_SHA256


def _true_checked_points(session, report):
    """checked_points of the snapshot and oracle checks of each cycle whose
    precondition is TRUE, in cycle order."""
    return [check.checked_points
            for cycle, record in zip(session.cycles, report.cycles)
            if cycle.contract.pre == ast.BoolLit(True)
            for check in (record.snapshot_contract, record.oracle_contract)]


class TestLongSession:
    """A generated session of many cycles over one program file
    (tests/long_session.py): what replay derives from its predicates grows
    with the number of cycles, not with its square."""

    def test_each_snapshot_path_is_parsed_once(self, monkeypatch, tmp_path):
        """40 cycles naming one snapshot file, which the final program
        names too, parse it once; the report equals that of the session
        with a copy of the file per cycle, each parsed apart."""
        shared = write_long_session(tmp_path / "shared", 40)
        apart = tmp_path / "apart"
        shutil.copytree(shared.parent, apart)
        text = shared.read_text(encoding="utf-8")
        for index in range(1, 41):
            shutil.copy(apart / "div.prog", apart / f"div{index}.prog")
            text = text.replace("snapshot = div.prog", f"snapshot = div{index}.prog", 1)
        (apart / "long.session").write_text(text, encoding="utf-8")
        parsed = []
        real = session_module.load_program

        def counting(path):
            parsed.append(path)
            return real(path)

        monkeypatch.setattr(session_module, "load_program", counting)
        reports = []
        for path, parses in ((shared, 1), (apart / "long.session", 41)):
            parsed.clear()
            loaded = load_session(path)
            assert len(parsed) == parses
            reports.append(to_json(replay(loaded)))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["ok"]

    def test_600_cycles_replay_through_the_cli(self, capsys, tmp_path):
        """The CLI replays 600 cycles, more than a union of binary Or nodes
        could print (one level per cycle), and prints the full report: the
        union's pre is one Or of the cycles' pres and every chain held."""
        path = write_long_session(tmp_path, 600)
        code = main(["replay", str(path), "--format", "machine"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["ok"] and report["failures"] == [] and len(report["cycles"]) == 600
        assert all(cycle["chain_holds"] for cycle in report["cycles"])
        pres = tuple(cycle.contract.pre for cycle in load_session(path).cycles)
        assert parse_predicate(report["union_contract"]["pre"]) == ast.Or(pres)

    def test_testers_compile_where_their_test_count_reaches_the_gate(self, monkeypatch, tmp_path):
        """A snapshot's tester is made for the tests it will run: the
        green one, the earlier ones and the next cycle's red check, so
        position + 2 at a position counted from 0, and position + 1 at the
        last. Of 125 cycles, positions 118 to 124 reach NEST_FROM_POINTS
        (120) and run the snapshot's emitted source; the report is the
        one the closures give."""
        path = write_long_session(tmp_path, 125)
        loaded = []
        real = interp._load

        def spy(name, function, emit):
            loaded.append((name, function))
            return real(name, function, emit)

        monkeypatch.setattr(interp, "_load", spy)
        compiled = to_json(replay(load_session(path)))
        assert interp.NEST_FROM_POINTS == 120
        assert loaded.count(("div", "run")) == 7
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        assert to_json(replay(load_session(path))) == compiled
        assert json.loads(compiled)["ok"]

    def test_predicate_walks_and_compiles_grow_linearly(self, monkeypatch, tmp_path):
        """Nodes walked for free variables and compiled into closures by
        replays of 10, 20 and 40 cycles: the 20 cycles after the 20th cost
        about twice the 10 after the 10th, as linear growth does. Walking
        the running union afresh every cycle cost about 3.6 times."""
        counts = collections.Counter()
        real_walk, real_compile = ast._free_vars, interp._compile_pred

        def walk(node):
            counts["walks"] += 1
            return real_walk(node)

        def compile_pred(pred):
            counts["compiles"] += 1
            return real_compile(pred)

        monkeypatch.setattr(ast, "_free_vars", walk)
        monkeypatch.setattr(interp, "_compile_pred", compile_pred)
        seen = {}
        for cycles in (10, 20, 40):
            loaded = load_session(write_long_session(tmp_path / str(cycles), cycles))
            counts.clear()
            assert not replay(loaded).failures()
            seen[cycles] = dict(counts)
        for kind in ("walks", "compiles"):
            first, second = (seen[20][kind] - seen[10][kind], seen[40][kind] - seen[20][kind])
            assert second <= 2.2 * first, (kind, seen)

    def test_fault_prone_chain_checks_compile_no_filter(self, monkeypatch, tmp_path):
        """The long session with cycle 1's post changed to one that divides
        by y, y in 1..9: an interval excludes 0 from the divisor, so each
        chain check finds the cycle contract's pre and post among the
        union's disjuncts and judges no point. The only functions a replay
        compiles are check_all's filter and the union pre's tautology
        check; the report is the one every chain check enumerated for."""
        loaded, chain = [], []
        real_load, real_subsumed = interp._load, contracts.subsumed_by

        def load(name, function, emit):
            loaded.append((name, function, bool(chain)))
            return real_load(name, function, emit)

        def subsumed_by(*args):
            chain.append(args)
            try:
                return real_subsumed(*args)
            finally:
                chain.pop()

        monkeypatch.setattr(interp, "_load", load)
        monkeypatch.setattr(contracts, "subsumed_by", subsumed_by)
        for cycles in (10, 40):
            path = write_long_session(tmp_path / str(cycles), cycles)
            text = path.read_text(encoding="utf-8")
            post = f"contract.post = {POSTS[1]}"
            assert text.index(post) < text.index("[cycle 2]")
            path.write_text(text.replace(post, f"contract.post = {FAULT_PRONE_POST}", 1), encoding="utf-8")
            loaded.clear()
            report = replay(load_session(path))
            assert not report.failures()
            assert loaded == [("where", "visits", False)] * 2
            digest = hashlib.sha256(to_json(report).encode("utf-8")).hexdigest()
            assert digest == FAULT_PRONE_REPLAY_SHA256[cycles]
