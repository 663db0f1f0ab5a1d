"""Bounded triple checking against hand-verified and brute-forced oracles."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from tddslicer import (
    Contract,
    Domain,
    ParseError,
    PredicateUndefinedError,
    UnboundVariableError,
    check,
    check_all,
    check_point,
    format_predicate,
    implies,
    parse_predicate,
    parse_program,
    run,
)
import tddslicer
from tddslicer import predicates, slicer, verifier
from tddslicer.cli import main
from tddslicer.corpus import corpus_path
from tddslicer.lang import ast, interp
from tddslicer.lang.interp import BUDGET_EXCEEDED, OK
from tddslicer.verifier import (
    COUNTEREXAMPLE,
    FAIL,
    FAULT,
    PASS,
    PRE_VIOLATION,
    VACUOUS,
    VERIFIED,
)

from bruteforce import bf_check, bf_holds, bf_implies
from generators import (
    CMP_OPS,
    predicate_text,
    random_contract,
    random_kept,
    random_predicate,
    random_program,
)

TRUE = ast.BoolLit(True)

ONE_SIDED_MAX = "proc max2(in a, in b, out max) { if (a > b) { max := a; } }"


def _contract(pre, post):
    return Contract(parse_predicate(pre), parse_predicate(post))


class TestCheck:
    def test_div_concrete_point(self, div_oracle, dom_div):
        result = check(div_oracle, _contract("x == 7 && y == 2", "q == 3 && r == 1"), dom_div)
        assert result.verdict == VERIFIED
        assert result.checked_points == 1

    def test_two_sided_max_left_contract(self, max2, max_contract_gt, dom_ab8):
        result = check(max2, max_contract_gt, dom_ab8)
        assert result.verdict == VERIFIED
        assert result.checked_points == 136  # pairs with a > b in a 17x17 grid

    def test_one_sided_max_misses_else_contract(self, max_contract_le, dom_ab8):
        program = parse_program(ONE_SIDED_MAX)
        result = check(program, max_contract_le, dom_ab8)
        assert result.verdict == COUNTEREXAMPLE
        assert result.witness.inputs == {"a": -8, "b": -8}
        assert result.witness.final["max"] == 0

    def test_false_pre_is_vacuous_never_verified(self, max2, dom_ab8):
        result = check(max2, _contract("FALSE", "TRUE"), dom_ab8)
        assert result.verdict == VACUOUS
        assert result.checked_points == 0
        assert result.witness is None

    def test_budget_exhaustion_carries_witness(self):
        program = parse_program("proc f(in x, out y){ while (x == x) { y := y + 1; } }")
        result = check(program, _contract("TRUE", "TRUE"), Domain.parse("x in 0..3"), 50)
        assert result.verdict == BUDGET_EXCEEDED
        assert result.witness.inputs == {"x": 0}

    def test_runtime_fault_carries_statement(self):
        program = parse_program("proc f(in x, out y){ y := 1 / x; }")
        result = check(program, _contract("TRUE", "TRUE"), Domain.parse("x in -1..1"))
        assert result.verdict == FAULT
        assert result.witness.inputs == {"x": 0}
        assert "division by zero at statement 1" in result.witness.detail

    def test_post_fault_is_fault_verdict(self):
        program = parse_program("proc f(in x, out y){ y := x; }")
        result = check(program, _contract("TRUE", "1 / y == 1"), Domain.parse("x in 0..3"))
        assert result.verdict == FAULT
        assert result.witness.inputs == {"x": 0}
        assert "postcondition fault" in result.witness.detail

    def test_domain_must_match_in_params(self, max2):
        with pytest.raises(ValueError, match="exactly the in-parameters"):
            check(max2, _contract("TRUE", "TRUE"), Domain.parse("a in 0..1"))

    def test_contract_scope_enforced(self, max2, dom_ab8):
        with pytest.raises(ValueError, match="precondition"):
            check(max2, _contract("max > 0", "TRUE"), dom_ab8)

    def test_witness_determinism(self, max_contract_le, dom_ab8):
        program = parse_program(ONE_SIDED_MAX)
        first = check(program, max_contract_le, dom_ab8)
        second = check(program, max_contract_le, dom_ab8)
        assert first == second


class TestCheckPoint:
    def test_div_cycle1_point(self, div_oracle):
        cycle1 = _contract("x == 2 && y == 2", "0 <= r && r < y && x == y * q + r")
        assert check_point(div_oracle, cycle1, {"x": 2, "y": 2}).status == PASS

    def test_snapshot1_fails_cycle2_point(self):
        snapshot1 = parse_program("proc div(in x, in y, out q, out r){ q := 1; r := 0; }")
        restricted = _contract("x == 4 && y == 2", "0 <= r && r < y && x == y * q + r")
        result = check_point(snapshot1, restricted, {"x": 4, "y": 2})
        assert result.status == "fail"
        assert result.final["q"] == 1  # hard-coded quotient, 4 != 2*1+0

    def test_false_pre_reports_violation(self, div_oracle):
        result = check_point(div_oracle, _contract("FALSE", "TRUE"), {"x": 1, "y": 1})
        assert result.status == PRE_VIOLATION

    def test_fault_status(self):
        program = parse_program("proc f(in x, out y){ y := 1 / x; }")
        assert check_point(program, _contract("TRUE", "TRUE"), {"x": 0}).status == FAULT


class TestRunResults:
    """The judging loop reads runner's plain tuples and builds no RunResult;
    check_point still returns the RunResult that run gives."""

    def test_full_checks_build_no_run_result(self, div_oracle, dom_div, monkeypatch):
        built = []
        real = interp.RunResult

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(interp, "RunResult", counting)
        div = "0 <= r && r < y && x == y * q + r"
        assert check(div_oracle, _contract("x >= 0 && y > 0", div), dom_div).verdict == VERIFIED
        assert check(div_oracle, _contract("TRUE", "q == 0"), dom_div).verdict == COUNTEREXAMPLE
        assert built == []
        run(div_oracle, {"x": 1, "y": 1})
        assert len(built) == 1

    def test_check_point_run_result_is_that_of_run(self):
        rng = random.Random(8090)
        statuses = Counter()
        for _ in range(300):
            program = random_program(rng, max_stmts=rng.randint(1, 8), allow_while=True, faults=True)
            inputs = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
            budget = rng.randint(1, 20)
            point = check_point(program, _contract("TRUE", "TRUE"), inputs, budget)
            expected = run(program, inputs, budget, record=False)
            got = point.run_result
            assert got == expected
            assert list(got.final) == list(expected.final)
            assert point.final == expected.final
            assert point.status == (PASS if expected.ok else expected.status)
            statuses[expected.status] += 1
        assert min(statuses[status] for status in (OK, FAULT, BUDGET_EXCEEDED)) >= 20, statuses

    def test_check_point_checks_inputs_and_budget_as_run_does(self, div_oracle):
        anything = _contract("TRUE", "TRUE")
        cases = [({"x": 1}, 10), ({"x": 1, "y": 2, "z": 3}, 10), ({}, 10), ({"x": 1, "y": 2}, 0)]
        for inputs, budget in cases:
            with pytest.raises(ValueError) as from_run:
                run(div_oracle, inputs, budget)
            with pytest.raises(ValueError) as from_point:
                check_point(div_oracle, anything, inputs, budget)
            assert str(from_point.value) == str(from_run.value)


class TestTooDeepToCompile:
    """A program that parsed but is too deep to compile raises
    ParseError(TOO_DEEP) when it would run."""

    TERMS = " + ".join(["a"] * 5000)

    def test_check_and_check_all(self):
        deep = parse_program(f"proc f(in a, out o) {{ o := {self.TERMS}; }}")
        dom = Domain.parse("a in 0..1")
        contract = _contract("TRUE", "TRUE")
        with pytest.raises(ParseError) as solo:
            check(deep, contract, dom)
        assert str(solo.value) == "expression nested too deeply"
        (shared,) = check_all([(deep, contract)], dom)
        assert isinstance(shared, ParseError) and str(shared) == str(solo.value)
        # a program that never runs is never compiled
        assert check(deep, _contract("FALSE", "TRUE"), dom).verdict == VACUOUS
        (never,) = check_all([(deep, _contract("FALSE", "TRUE"))], dom)
        assert never.verdict == VACUOUS

    def test_predicate_too_deep_to_walk(self):
        """validating a contract walks its predicates before compiling
        them: a deep one is ParseError(TOO_DEEP) there too, for check and
        for its pair's entry in check_all."""
        program = parse_program("proc f(in a, out o) { o := a; }")
        dom = Domain.parse("a in 0..1")
        for contract in (_contract("TRUE", f"{self.TERMS} > o"), _contract(f"{self.TERMS} > 0", "TRUE")):
            with pytest.raises(ParseError) as solo:
                check(program, contract, dom)
            assert str(solo.value) == "expression nested too deeply"
            shared, fine = check_all([(program, contract), (program, _contract("TRUE", "o == a"))], dom)
            assert isinstance(shared, ParseError) and str(shared) == str(solo.value)
            assert fine.verdict == VERIFIED


class TestAgainstBruteForce:
    def test_loop_free_agreement(self):
        rng = random.Random(42)
        ranges = {"a": (-2, 2), "b": (-2, 2)}
        dom = Domain.from_dict(ranges)
        for _ in range(60):
            program = random_program(rng, max_stmts=3)
            contract = random_contract(rng)
            mine = check(program, contract, dom)
            verdict, witness = bf_check(program, contract.pre, contract.post, ranges)
            assert mine.verdict == verdict
            if verdict == COUNTEREXAMPLE:
                assert mine.witness.inputs == witness

    def test_monotone_over_subdomains(self):
        rng = random.Random(43)
        full = Domain.parse("a in -3..3, b in -3..3")
        verified_seen = 0
        for _ in range(80):
            program = random_program(rng, max_stmts=4)
            contract = random_contract(rng)
            if check(program, contract, full).verdict != VERIFIED:
                continue
            verified_seen += 1
            lo_a = rng.randint(-3, 3)
            hi_a = rng.randint(lo_a, 3)
            lo_b = rng.randint(-3, 3)
            hi_b = rng.randint(lo_b, 3)
            sub = Domain.from_dict({"a": (lo_a, hi_a), "b": (lo_b, hi_b)})
            assert check(program, contract, sub).verdict in (VERIFIED, VACUOUS)
        assert verified_seen > 5


def _solo(program, contract, dom, budget):
    """What check returns, or the exception it raises."""
    try:
        return check(program, contract, dom, budget)
    except Exception as err:  # noqa: BLE001 - compared with check_all's result
        return err


def _bf_checked_points(pre, dom, witness):
    """Points whose precondition holds, in enumeration order, up to the
    witness; a precondition fault ends the count before its point."""
    count = 0
    for inputs in dom.points():
        try:
            if not bf_holds(pre, dict(inputs)):
                continue
        except ZeroDivisionError:
            break
        count += 1
        if inputs == witness:
            break
    return count


def _fault_text(rng, dividend_vars, divisor_vars):
    """A comparison dividing by (v - c): faults wherever v == c."""
    dividend = rng.choice(dividend_vars)
    divisor = f"({rng.choice(divisor_vars)} - {rng.randint(-2, 2)})"
    return f"{dividend} / {divisor} {rng.choice(CMP_OPS)} {rng.randint(-1, 1)}"


class TestCheckAll:
    """check_all decides each pair exactly as a solo check does."""

    RANGES = {"a": (-2, 2), "b": (-2, 2)}

    def _batch(self, rng):
        """2-8 pairs that repeat programs, pres and posts, as the same
        objects and as equal but distinct ones."""
        program_seeds = [rng.randrange(10**6) for _ in range(rng.randint(1, 3))]
        pre_texts = [
            predicate_text(rng, ("a", "b")),
            # TRUE, or one of three preconditions that no point satisfies
            rng.choice(("TRUE", "FALSE", "a > 5", "a < b && b < a")),
            _fault_text(rng, ("a", "b"), ("a", "b")),
        ]
        post_texts = [
            predicate_text(rng, ("a", "b", "o")),
            _fault_text(rng, ("a", "o"), ("b", "o")),
            "TRUE",
        ]
        same_object = random_program(random.Random(program_seeds[0]), 4, True, faults=True)
        pairs = []
        for _ in range(rng.randint(2, 8)):
            if rng.random() < 0.3:
                program = same_object
            else:
                seed = rng.choice(program_seeds)
                program = random_program(random.Random(seed), 4, True, faults=True)
            contract = Contract(
                parse_predicate(rng.choice(pre_texts)),
                parse_predicate(rng.choice(post_texts)),
            )
            pairs.append((program, contract))
        return pairs

    def test_shared_scan_matches_solo_check_and_bruteforce(self):
        rng = random.Random(3031)
        # 25 points are judged on the closures, 169 with where's compiled filter
        domains = [self.RANGES, {"a": (-6, 6), "b": (-6, 6)}]
        verdicts = Counter()
        invalid_batches = 0
        for batch in range(150):
            ranges = domains[batch % 5 == 4]
            dom = Domain.from_dict(ranges)
            pairs = self._batch(rng)
            budget = rng.choice((1, 3, 8, 25, 10000))
            invalid = None
            if rng.random() < 0.3:
                # the precondition may not read the out-parameter
                invalid = rng.randrange(len(pairs) + 1)
                pairs.insert(invalid, (pairs[0][0], _contract("o > 0", "TRUE")))
                invalid_batches += 1
            results = check_all(pairs, dom, budget)
            assert len(results) == len(pairs)
            for position, ((program, contract), result) in enumerate(zip(pairs, results)):
                solo = _solo(program, contract, dom, budget)
                if position == invalid:
                    assert isinstance(result, ValueError)
                    assert isinstance(solo, ValueError) and str(result) == str(solo)
                    continue
                assert result == solo
                verdict, witness = bf_check(program, contract.pre, contract.post, ranges, budget)
                assert result.verdict == verdict
                assert (result.witness and result.witness.inputs) == witness
                assert result.checked_points == _bf_checked_points(contract.pre, dom, witness)
                verdicts[verdict] += 1
        assert invalid_batches > 20
        # every verdict shows up often enough to mean something
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts
        assert min(verdicts[FAULT], verdicts[BUDGET_EXCEEDED]) >= 30, verdicts

    def test_shared_fault_gives_every_reader_the_same_witness(self):
        program = parse_program("proc f(in a, in b, out o){ o := a; }")
        faulty_pre, faulty_post = "b / (a - 1) >= 0", "b / o == b / o"
        contracts = [
            _contract(faulty_pre, "TRUE"),
            _contract(faulty_pre, "o == a"),
            _contract("TRUE", faulty_post),
            _contract("a > -5", faulty_post),
        ]
        dom = Domain.from_dict(self.RANGES)
        results = check_all([(program, c) for c in contracts], dom)
        assert results == [check(program, c, dom) for c in contracts]
        for result in results[:2]:
            assert result.verdict == FAULT
            assert result.witness.inputs == {"a": 1, "b": -2}
            assert result.witness.detail == "precondition fault: division by zero"
        for result in results[2:]:
            assert result.verdict == FAULT
            assert result.witness.inputs == {"a": 0, "b": -2}
            assert result.witness.final == {"a": 0, "b": -2, "o": 0}
            assert result.witness.detail == "postcondition fault: division by zero"

    @pytest.mark.parametrize("spec", ["a in 0..5", "a in 0..200"])  # each side of the gate
    def test_witnesses_failing_at_one_point_share_nothing(self, spec):
        """Two triples of one program that fail at one point each get their
        own inputs and final state: changing one witness leaves the other."""
        program = parse_program("proc f(in a, out o) { o := a; }")
        contracts = [_contract("TRUE", "o < 2"), _contract("TRUE", "o < 2 && o >= 0")]
        first, second = check_all([(program, c) for c in contracts], Domain.parse(spec))
        first.witness.inputs["a"] = 99
        first.witness.final["o"] = 99
        assert (second.witness.inputs, second.witness.final) == ({"a": 2}, {"a": 2, "o": 2})

    def test_an_error_in_a_shared_run_reaches_every_pair_that_runs(self, max2, dom_ab8):
        contracts = [_contract("a > b", "max == a"), _contract("a <= b", "max == b")]
        pairs = [(max2, c) for c in contracts] + [(max2, _contract("FALSE", "TRUE"))]
        results = check_all(pairs, dom_ab8, 0)
        for (program, contract), result in zip(pairs[:2], results):
            with pytest.raises(ValueError, match="step_budget") as solo:
                check(program, contract, dom_ab8, 0)
            assert isinstance(result, ValueError) and str(result) == str(solo.value)
        assert results[2].verdict == VACUOUS  # never runs, so never sees the error

    def test_no_pairs_and_only_invalid_pairs(self, max2, dom_ab8):
        assert check_all([], dom_ab8) == []
        (only,) = check_all([(max2, _contract("max > 0", "TRUE"))], dom_ab8)
        assert isinstance(only, ValueError)
        with pytest.raises(ValueError, match="precondition"):
            check(max2, _contract("max > 0", "TRUE"), dom_ab8)

    def test_programs_too_deep_to_compare_are_kept_apart(self):
        text = "proc f(in a, out o) { o := " + " + ".join(["a"] * 900) + "; }"
        first, second = parse_program(text), parse_program(text)
        contract = _contract("TRUE", "o == 900 * a")
        dom = Domain.parse("a in -2..2")
        expected = check(first, contract, dom)
        assert expected.verdict == VERIFIED
        assert check_all([(first, contract), (second, contract)], dom) == [expected] * 2

    def test_scan_memory_does_not_grow_with_the_domain(self, div_oracle, monkeypatch):
        contracts = [
            _contract("x >= 0 && y > 0", "0 <= r && r < y && x == y * q + r"),
            _contract("exists k in 0..4 : x == y * k", "r == 0"),
            _contract("x >= 0 && y > 0", "q * y <= x"),
        ]
        pairs = [(div_oracle, c) for c in contracts] * 2

        def peak(spec):
            dom = Domain.parse(spec)
            tracemalloc.start()
            try:
                results = check_all(pairs, dom)
                return tracemalloc.get_traced_memory()[1], results
            finally:
                tracemalloc.stop()

        # each side of the gate on its own: the closures, then where's
        # compiled filter
        for gate in (10**18, 0):
            monkeypatch.setattr(interp, "NEST_FROM_POINTS", gate)
            small, small_results = peak("x in 0..9, y in 1..10")
            large, large_results = peak("x in 0..99, y in 1..100")
            assert [r.verdict for r in small_results] == [r.verdict for r in large_results]
            assert large_results[0].checked_points == 10_000
            assert large < small + 32_000


def _compiled_sources(monkeypatch, function):
    """Each source of function (loop_nest's "scan", where's "visits") that
    interp compiles from here on: whether Python took it."""
    made = []
    real = interp._load

    def spy(name, emitted, emit):
        code = real(name, emitted, emit)
        if emitted == function:
            made.append(code is not None)
        return code

    monkeypatch.setattr(interp, "_load", spy)
    return made


def _led_by_a_passed_visit(monkeypatch):
    """Make each filter where compiles yield first a point at which every
    one of its predicates is false, as if each had raised there, then its
    own visits: a visit that the closures judge again and pass over. The
    points so yielded."""
    led = []
    real = predicates.where

    def false_everywhere(preds, point):
        try:
            return not any(bf_holds(pred, dict(point)) for pred in preds)
        except ZeroDivisionError:
            return False

    def leading(ranges, preds):
        compiled = real(ranges, preds)
        names = [name for name, _, _ in ranges]
        points = (dict(zip(names, values))
                  for values in itertools.product(*(range(lo, hi + 1) for _, lo, hi in ranges)))
        spurious = next((point for point in points if false_everywhere(preds, point)), None)
        if compiled is None or spurious is None:
            return compiled

        def visits():
            led.append(spurious)
            yield spurious, (None,) * len(preds)
            yield from compiled()

        return visits

    monkeypatch.setattr(predicates, "where", leading)
    return led


def _agrees(program, contract, ranges, budget, result):
    """result, check's or check_all's, is that of the points one by one."""
    verdict, witness = bf_check(program, contract.pre, contract.post, ranges, budget)
    assert result.verdict == verdict
    assert (result.witness and result.witness.inputs) == witness
    assert result.checked_points == _bf_checked_points(contract.pre, Domain.from_dict(ranges), witness)
    if witness is not None:
        # name order, as Domain.points gives the inputs, and the final
        # state of a run on such a point
        names = sorted(ranges)
        assert list(result.witness.inputs) == names
        if result.witness.final is not None:
            point = {name: witness[name] for name in names}
            assert list(result.witness.final) == list(run(program, point, budget).final)
    return verdict


class TestDomainScan:
    """Scans below the gate judge the preconditions on the closures, and
    those at or above it with a compiled filter, with every verdict,
    witness, key order and checked_points of judging the points one by
    one, as bf_check and _bf_checked_points do."""

    DOMAINS = [
        {"a": (-2, 2), "b": (-2, 2)},
        # the last range has one value
        {"a": (-3, 3), "b": (1, 1)},
        {"a": (0, 0), "b": (-3, 3)},
    ]

    def test_random_programs_and_faulting_contracts(self):
        rng = random.Random(8086)
        verdicts = Counter()
        for case in range(300):
            ranges = self.DOMAINS[case % len(self.DOMAINS)]
            dom = Domain.from_dict(ranges)
            program = random_program(rng, 4, True, faults=True)
            contracts = [
                Contract(random_predicate(rng, ("a", "b"), faults=True),
                         random_predicate(rng, ("a", "b", "o"), faults=True))
                for _ in range(3)
            ]
            budget = rng.choice((3, 25, 10000))
            shared = check_all([(program, contract) for contract in contracts], dom, budget)
            for contract, result in zip(contracts, shared):
                solo = check(program, contract, dom, budget)
                assert result == solo
                verdicts[_agrees(program, contract, ranges, budget, solo)] += 1
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts

    COPY = "proc f(in a, out o){ o := a; }"

    @pytest.mark.parametrize("pre, post, spec, witness, checked", [
        # the first failure is deep in a wide range
        ("a % 7 != 3", "o < 1500", "a in 0..3000", 1500, 1287),
        # the precondition faults at a == 5, later in the scan than the
        # counterexample at a == 3
        ("10 / (a - 5) > -100", "o < 3", "a in 0..9", 3, 4),
        ("10 / (a - 5) > -100", "o < 7", "a in 0..9", 5, 5),
    ])
    def test_scan_edges(self, pre, post, spec, witness, checked):
        program, contract = parse_program(self.COPY), _contract(pre, post)
        dom = Domain.parse(spec)
        ((_, lo, hi),) = dom.ranges
        result = check(program, contract, dom)
        assert result.witness.inputs == {"a": witness}
        assert result.checked_points == checked
        _agrees(program, contract, {"a": (lo, hi)}, 10000, result)
        twin = (program, _contract(pre, "TRUE"))
        assert check_all([twin, (program, contract)], dom)[1] == result

    def test_first_failure_deep_in_a_wide_domain(self):
        # the failure at a == 1, b == 1500 is deep in a wide domain
        program = parse_program("proc f(in a, in b, out o){ o := 10000 * a + b; }")
        contract = _contract("b % 7 != 3", "o < 11500")
        ranges = {"a": (0, 1), "b": (0, 3000)}
        dom = Domain.from_dict(ranges)
        result = check(program, contract, dom)
        assert result.witness.inputs == {"a": 1, "b": 1500}
        _agrees(program, contract, ranges, 10000, result)
        # check takes the loop nest over this domain; check_all where
        assert check_all([(program, contract)], dom) == [result]

    def test_exists_binding_the_last_variable(self, max2):
        contract = _contract("exists b in 0..3 : a > b", "max >= a")
        ranges = {"a": (-3, 3), "b": (-3, 3)}
        result = check(max2, contract, Domain.from_dict(ranges))
        assert (result.verdict, result.checked_points) == (VERIFIED, 21)
        _agrees(max2, contract, ranges, 10000, result)

    @pytest.mark.parametrize("pre, post, verdict, detail", [
        ("TRUE", "o == 1", VERIFIED, None),
        ("TRUE", "o == 2", COUNTEREXAMPLE, "postcondition is false"),
        ("FALSE", "TRUE", VACUOUS, None),
        ("1 / 0 > 0", "TRUE", FAULT, "precondition fault: division by zero"),
    ])
    def test_no_in_parameters_is_one_empty_point(self, pre, post, verdict, detail):
        program = parse_program("proc f(out o){ o := 1; }")
        result = check(program, _contract(pre, post), Domain(()))
        assert result.verdict == verdict
        assert result.checked_points == (verdict in (VERIFIED, COUNTEREXAMPLE))
        assert (result.witness and result.witness.detail) == detail
        if result.witness is not None:
            assert result.witness.inputs == {}
        assert check_all([(program, _contract(pre, post))], Domain(())) == [result]

    def test_precondition_python_refuses_is_judged_on_the_closures(
        self, max2, dom_ab8, monkeypatch
    ):
        contract = _contract("a > b", "max == a")
        expected = check(max2, contract, dom_ab8)
        assert check_all([(max2, contract)], dom_ab8) == [expected]
        # 289 points, above the gate: Python refusing both the loop nest and
        # where's filter leaves the scans to the closures
        monkeypatch.setattr(interp, "_load", lambda name, function, emit: None)
        assert check(max2, contract, dom_ab8) == expected
        assert check_all([(max2, contract)], dom_ab8) == [expected]


class TestWideDomains:
    COPY = "proc f(in a, out o){ o := a; }"

    def test_range_wider_than_sys_maxsize(self):
        program = parse_program(self.COPY)
        dom = Domain.parse("a in 1..9999999999999999999")
        result = check(program, _contract("TRUE", "o == 1"), dom)
        assert result.verdict == COUNTEREXAMPLE
        assert result.witness.inputs == {"a": 2}
        assert result.checked_points == 2

    def test_early_failure_judges_the_precondition_up_to_the_witness(self, monkeypatch):
        # a scan that stops early judges the precondition at no point past
        # its stop; the gate raised keeps this wide domain on the closures
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        judged = []
        real_compile = predicates.compile_bool

        def recording(pred):
            test = real_compile(pred)

            def recorded(state):
                judged.append((format_predicate(pred), dict(state)))
                return test(state)

            return recorded

        monkeypatch.setattr(predicates, "compile_bool", recording)
        program = parse_program(self.COPY)
        result = check(program, _contract("a > 0", "o < 2"), Domain.parse("a in 1..1000000"))
        assert result.witness.inputs == {"a": 2}
        assert [state for pred, state in judged if pred == "a > 0"] == [{"a": 1}, {"a": 2}]

    def test_early_failure_costs_no_memory_for_the_rest_of_the_range(self):
        program = parse_program(self.COPY)
        dom = Domain.parse("a in 1..1000000")
        tracemalloc.start()
        try:
            result = check(program, _contract("TRUE", "o < 2"), dom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.witness.inputs == {"a": 2}
        assert peak < 1_000_000


class TestSharedWork:
    """check_all judges each distinct precondition once per point, and each
    distinct program and (program, postcondition) once per point that
    needs it."""

    def test_evaluations_per_point(self, monkeypatch, verifier_runs):
        # final states repeat across points, since the program overwrites
        # its in-parameter; shared work is remembered for the very objects
        # of the latest point, not for equal ones, so every point still
        # evaluates its postconditions
        program = parse_program("proc f(in a, out o){ a := 0; o := 1; }")
        twin = parse_program("proc f(in a, out o){ a := 0; o := 1; }")
        dom = Domain.parse("a in 0..5")
        pairs = [
            (program, _contract("TRUE", "o == 1")),
            (twin, _contract("a >= 0", "o == 1")),
            (program, _contract("TRUE", "o > 0")),
            (program, _contract("a < 3", "o == 1")),
        ]
        points = Counter()
        real_compile = predicates.compile_bool

        def counting_compile(pred):
            test = real_compile(pred)

            def counted(state):
                points[format_predicate(pred)] += 1
                return test(state)

            return counted

        monkeypatch.setattr(predicates, "compile_bool", counting_compile)
        results = check_all(pairs, dom)
        assert [r.verdict for r in results] == [VERIFIED] * 4
        assert [r.checked_points for r in results] == [6, 6, 6, 3]
        assert len(verifier_runs) == 6
        assert points == {"TRUE": 6, "a >= 0": 6, "a < 3": 6, "o == 1": 6, "o > 0": 6}


DIV_SPEC = "0 <= r && r < y && x == y * q + r"


#: a division whose last statement faults at x == 30
FAULT_AT_30 = ("proc f(in x, in y, out q) { var t; t := x; while (t >= y) { t := t - y;"
               " q := q + 1; } q := q / (x - 30); }")

#: check commands over domains above NEST_FROM_POINTS (exit 1 each), as
#: (program, further arguments)
NEST_COMMANDS = {
    "exists": ("div_oracle.prog", "--pre", "exists k in 0..16 : x == y * k",
               "--post", "r == 0 && q <= 12", "--domain", "x in 0..60, y in 1..12"),
    "budget": ("div_oracle.prog", "--pre", "TRUE", "--post", DIV_SPEC,
               "--domain", "x in 0..60, y in 1..10", "--budget", "40"),
    "fault": (FAULT_AT_30, "--pre", "TRUE", "--post", "TRUE", "--domain", "x in 0..60, y in 1..10"),
    # a precondition whose conjuncts read x, then y: the first is judged
    # once per x
    "hoisted": ("div_oracle.prog", "--pre", "(x == 0 || (exists n in 1..4 : x == 2 ^ n)) && y == 2",
                "--post", "r == 0 && q < 8", "--domain", "x in 0..60, y in 1..10"),
    # a precondition conjunct that reads x only but can raise (at x == 30),
    # so it and the conjunct after it are judged per point
    "outer-fault": ("div_oracle.prog", "--pre", "10 / (x - 30) > -100 && y > 0", "--post", DIV_SPEC,
                    "--domain", "x in 0..60, y in 1..10"),
}

#: SHA-256 of the stdout of each NEST_COMMANDS case in each format, as
#: check printed it judging the points one by one: exists, budget and fault
#: before the loop nest, hoisted and outer-fault before it judged a
#: conjunct in an outer loop
NEST_GOLDENS = {
    ("exists", "human"): "7d826e69e04a7629c575d6c1498dd2b7d365b24f2284b530705a7233c6d62b92",
    ("exists", "machine"): "ef8474753ca2768ac0a6e6bf2d7a2cd8100775ba4bc8e9080a6fdc1e614ab89a",
    ("budget", "human"): "a6fc0a5c3f4ba6e9117dd59a8fe4c74f35d9c4ac8c53fe3fe1118ec143347ed9",
    ("budget", "machine"): "163819b555ee8f8c70df44c49847f560d38c526e56e239aef715a482642e8ee7",
    ("fault", "human"): "3b3615b7478542aee2080e6bed8deacb0952c0faa84c5bcf8057e051dfddfc93",
    ("fault", "machine"): "9387ee3184b193d3fb95409eed258c92fc6669b8155fc4009cbe8906a8dc15c7",
    ("hoisted", "human"): "eb6fcf1203e256098d6f83c3a80b53a86c79f74da73b049a8be7ac561a4c56e8",
    ("hoisted", "machine"): "cb44506f6f5b1d35d43cd50eb8d2e009551ce40c9a6a9d591d7d5041f001260c",
    ("outer-fault", "human"): "2486068a266c61d8583abec5125e2bb4f7b6913d46a75686a49fc41134f4819a",
    ("outer-fault", "machine"): "3a103d466dc66ced90fc66852e9924a451903c902d70469ac754ac88c4aaa182",
}


class TestLoopNest:
    """Judge.check over a domain of NEST_FROM_POINTS points or more runs one
    compiled loop nest, with every verdict, witness (key order too) and
    checked_points of the closure scan, which smaller domains keep."""

    @pytest.fixture
    def nests(self, monkeypatch):
        """Each loop nest Judge.check compiled: whether Python took it."""
        return _compiled_sources(monkeypatch, "scan")

    @staticmethod
    def _both_ways(monkeypatch, program, contract, dom, budget=10000, kept=None):
        """Judge.check through the nest, which decides without the
        closure scan, and through the closure scan, which must agree; the
        nest's result."""
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_scan", None)
            nested = verifier.Judge(program, contract, dom, budget).check(kept)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        scanned = verifier.Judge(program, contract, dom, budget).check(kept)
        assert nested == scanned
        if nested.witness is not None:
            assert list(nested.witness.inputs) == list(scanned.witness.inputs)
            assert list(nested.witness.final or ()) == list(scanned.witness.final or ())
        return nested

    def test_random_programs_kept_sets_and_budgets(self, monkeypatch, nests):
        rng = random.Random(4711)
        ranges = {"a": (-2, 2), "b": (-2, 2)}
        dom = Domain.from_dict(ranges)
        verdicts = Counter()
        for case in range(300):
            program = random_program(rng, 5, True, faults=True)
            contract = Contract(random_predicate(rng, ("a", "b"), faults=True),
                                random_predicate(rng, ("a", "b", "o"), faults=True))
            budget = case % 6 + 1 if case % 3 == 0 else rng.choice((25, 10000))
            ids = [stmt.stmt_id for stmt in program.statements()]
            kept = None if case % 4 == 0 else frozenset(i for i in ids if rng.random() < 0.7)
            result = self._both_ways(monkeypatch, program, contract, dom, budget, kept)
            built = program if kept is None else slicer._build(program, kept)
            verdicts[_agrees(built, contract, ranges, budget, result)] += 1
        assert nests == [True] * 300
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts

    @pytest.mark.parametrize("pre, post, verdict, checked", [
        ("exists k in 0..16 : x == y * k", "r == 0 && q <= 12", COUNTEREXAMPLE, 48),
        # binds y, an in-parameter, in the exists only
        ("exists y in 2..3 : x == 2 * y", "r < y && y > 0", VERIFIED, 24),
        ("x > 3 && !(exists k in 1..3 : x == k * y + 1)", "q >= 0", VERIFIED, 651),
        # binds x, an in-parameter the post reads outside the exists too
        ("TRUE", "(exists x in 0..20 : x == q) && x >= 0", COUNTEREXAMPLE, 253),
    ])
    def test_exists(self, pre, post, verdict, checked, div_oracle, monkeypatch, nests):
        ranges = {"x": (0, 60), "y": (1, 12)}
        contract = _contract(pre, post)
        result = self._both_ways(monkeypatch, div_oracle, contract, Domain.from_dict(ranges))
        assert (result.verdict, result.checked_points) == (verdict, checked)
        assert nests == [True]
        _agrees(div_oracle, contract, ranges, 10000, result)

    COPY = "proc f(in a, out o){ o := a; }"

    @pytest.mark.parametrize("program, pre, post, budget, verdict, detail, checked", [
        (COPY, "10 / (a - 5) > -100", "TRUE", 10000, FAULT,
         "precondition fault: division by zero", 5),
        (COPY, "TRUE", "o / (a - 5) > -100", 10000, FAULT,
         "postcondition fault: division by zero", 6),
        ("proc f(in a, out o){ o := 10 / (a - 5); }", "TRUE", "TRUE", 10000, FAULT,
         "division by zero at statement 1", 6),
        ("proc f(in a, out o){ while (o < a) { o := o + 1; } }", "TRUE", "o == a", 10, BUDGET_EXCEEDED,
         "step budget exceeded at statement 1", 6),
        (COPY, "a > 100", "TRUE", 10000, VACUOUS, None, 0),
        (COPY, "FALSE", "FALSE", 1, VACUOUS, None, 0),
    ])
    def test_failures_after_passing_points(
        self, program, pre, post, budget, verdict, detail, checked, monkeypatch, nests
    ):
        program, contract = parse_program(program), _contract(pre, post)
        result = self._both_ways(monkeypatch, program, contract, Domain.parse("a in 0..9"), budget)
        assert (result.verdict, result.checked_points) == (verdict, checked)
        assert (result.witness and result.witness.detail) == detail
        assert nests == [True]
        _agrees(program, contract, {"a": (0, 9)}, budget, result)

    XY = "proc f(in x, in y, out o){ o := x + y; }"

    @pytest.mark.parametrize("program, pre, post, ranges, verdict, witness, checked", [
        # the first conjunct reads x only but can raise, so it is judged
        # per point: it raises first at {x: 30, y: 1}
        (XY, "10 / (x - 30) > -100 && y > 0", "o >= 0", {"x": (0, 60), "y": (1, 10)},
         FAULT, {"x": 30, "y": 1}, 300),
        # the second conjunct reads x only, but may raise where the first,
        # which reads y, is false: it is judged per y, after the first
        (XY, "y > 5 && 10 / (x - 3) < 0", "o >= 0", {"x": (0, 6), "y": (0, 9)},
         FAULT, {"x": 3, "y": 6}, 12),
        # an exists conjunct in the innermost loop that binds y, an
        # in-parameter the program reads
        ("proc f(in x, in y, out o){ o := y; }", "y > 0 && (exists y in 2..3 : x == 2 * y)",
         "o >= 5", {"x": (0, 10), "y": (5, 15)}, VERIFIED, None, 22),
        # an exists conjunct in the outer loop, then one in the inner
        (XY, "(exists k in 0..2 : x == 3 * k) && (exists k in 1..3 : y == k * k)", "o < 12",
         {"x": (0, 8), "y": (0, 9)}, COUNTEREXAMPLE, {"x": 3, "y": 9}, 6),
        # a negative range floor keeps ^'s check: 2 ^ -1 raises
        (XY, "x > 3 && (exists n in -1..2 : x == 2 ^ n)", "o >= 0", {"x": (0, 9), "y": (0, 3)},
         FAULT, {"x": 4, "y": 0}, 0),
        (XY, "(exists n in 0..3 : x == 2 ^ n) && y < x", "o < 12", {"x": (0, 9), "y": (0, 9)},
         COUNTEREXAMPLE, {"x": 8, "y": 4}, 12),
        # conjuncts that read no variable are judged before every loop,
        # unless they can raise: then per point, from the first
        (XY, "TRUE && 1 / 0 > 0 && x > 0", "TRUE", {"x": (0, 3), "y": (0, 3)},
         FAULT, {"x": 0, "y": 0}, 0),
        (XY, "FALSE && x > 0", "FALSE", {"x": (0, 3), "y": (0, 3)}, VACUOUS, None, 0),
    ])
    def test_conjuncts_in_outer_loops(
        self, program, pre, post, ranges, verdict, witness, checked, monkeypatch, nests
    ):
        program, contract = parse_program(program), _contract(pre, post)
        result = self._both_ways(monkeypatch, program, contract, Domain.from_dict(ranges))
        assert (result.verdict, result.checked_points) == (verdict, checked)
        assert (result.witness and result.witness.inputs) == witness
        assert nests == [True]
        _agrees(program, contract, ranges, 10000, result)

    def test_empty_exists_range(self, monkeypatch, nests):
        # the parser refuses an empty range; a hand-built one holds nowhere
        empty = ast.Exists("k", 3, 1, parse_predicate("x == k"))
        program, ranges = parse_program(self.XY), {"x": (0, 3), "y": (0, 3)}
        for pre, post, verdict in [
            (ast.And((parse_predicate("x >= 0"), empty)), TRUE, VACUOUS),
            (TRUE, ast.Or((empty, parse_predicate("o > 5"))), COUNTEREXAMPLE),
        ]:
            contract = Contract(pre, post)
            result = self._both_ways(monkeypatch, program, contract, Domain.from_dict(ranges))
            assert result.verdict == verdict
            _agrees(program, contract, ranges, 10000, result)
        assert nests == [True, True]

    @pytest.mark.parametrize("pre, post, verdict, judged", [
        # a / or % whose divisor's interval excludes 0 (ast.fault_free)
        # cannot raise: conjuncts of them that read x only are judged once
        # per x, before the y loop and outside the try
        ("x % 4 == 0 && 10 / (x + 1) >= 0 && y > 0", DIV_SPEC, VERIFIED,
         ["        if not _mod(i_x, 4) == 0: continue", "        if not _div(10, i_x + 1) >= 0: continue"]),
        ("x % 4 == 0 && 10 / (x + 1) >= 0 && y > 0", "r == 0", COUNTEREXAMPLE,
         ["        if not _mod(i_x, 4) == 0: continue", "        if not _div(10, i_x + 1) >= 0: continue"]),
        # a divisor whose interval holds 0 keeps its conjunct per point, in the try
        ("10 / (x - 30) > -100 && y > 0", DIV_SPEC, FAULT,
         ["            try:", "                if not _div(10, i_x - 30) > (-100): continue"]),
    ])
    def test_conjuncts_the_interval_walk_clears_are_judged_in_outer_loops(
        self, pre, post, verdict, judged, div_oracle, monkeypatch
    ):
        # the gate at 0 also compiles the run that words the nest's point
        sources = _emitted(monkeypatch, only="scan")
        ranges, contract = {"x": (0, 60), "y": (1, 10)}, _contract(pre, post)
        result = self._both_ways(monkeypatch, div_oracle, contract, Domain.from_dict(ranges))
        assert result.verdict == verdict
        _agrees(div_oracle, contract, ranges, 10000, result)
        (source,) = sources
        lines = source.splitlines()
        for line in judged:
            assert line in lines, source

    def test_literal_exponents_are_powers(self, monkeypatch):
        sources = []
        real = interp._load

        def spy(name, function, emit):
            lines = emit()
            if function == "scan":  # not the run that words the nest's point
                sources.append("\n".join(text for _, text in lines))
            return real(name, function, lambda: lines)

        monkeypatch.setattr(interp, "_load", spy)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        program = parse_program("proc f(in x, out o){ o := x ^ 2; o := 2 ^ x; }")
        dom = Domain.parse("x in 0..3")
        check(program, _contract("exists n in 0..2 : x == 2 ^ n", "o >= 0"), dom)
        check(program, _contract("exists n in -1..2 : x == 2 ^ n", "o >= 0"), dom)
        first, second = sources
        assert "_pow(2, e_n)" in first and "(v_x ** 2)" in first and "_pow(2, v_x)" in first
        assert "_pow(2, e_n)" in second

    #: an if whose then block holds a while: 3 steps outside the if, 2 more
    #: in its then block and 2 per turn of the loop
    NESTED = ("proc f(in a, out o){ o := a; if (a > 0) { o := 0; while (o < a) { o := o + 1; } }"
              " o := o + 1; }")

    @pytest.mark.parametrize("budget", range(1, 12))
    def test_budgets_on_block_boundaries(self, budget, monkeypatch, nests):
        program, contract = parse_program(self.NESTED), _contract("TRUE", "o == a + 1 || a <= 0")
        ranges = {"a": (-2, 3)}
        result = self._both_ways(monkeypatch, program, contract, Domain.from_dict(ranges), budget)
        assert nests == [True]
        _agrees(program, contract, ranges, budget, result)

    def test_a_bignum_chain_ends_at_its_block_charge(self, tmp_path):
        """Three b := b ^ b under budget 2: the run's first block charges
        its four steps before any statement runs, so the nest never
        computes 9 ^ 9 ^ 9; the closures stop at statement 3 after 9 ^ 9."""
        path = tmp_path / "f.prog"
        path.write_text("proc f(in a, out b) { b := 9; b := b ^ b; b := b ^ b; b := b ^ b; }")
        args = ["--pre", "TRUE", "--post", "b > 0", "--domain", "a in 0..199", "--budget", "2"]
        src = Path(tddslicer.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "tddslicer.cli", "check", str(path), *args, "--format", "machine"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (1, "")
        report = json.loads(done.stdout)
        assert (report["verdict"], report["checked_points"]) == (BUDGET_EXCEEDED, 1)
        assert report["witness"]["inputs"] == {"a": 0}
        assert report["witness"]["detail"] == "step budget exceeded at statement 3"

    @pytest.mark.parametrize("body, post", [
        # Python refuses 249 nested parentheses and 25 nested loops
        ("o := " + " + ".join(["a"] * 250) + ";", "o == 250 * a"),
        ("while (o < a) { " * 25 + "o := o + 1; " + "} " * 25, "o == a || a < 0"),
    ])
    def test_source_python_refuses_falls_back_to_the_closure_scan(self, body, post, monkeypatch, nests):
        program = parse_program(f"proc f(in a, out o) {{ {body} }}")
        contract, dom = _contract("TRUE", post), Domain.parse("a in -100..100")
        assert interp.NEST_FROM_POINTS <= 201
        nested = check(program, contract, dom)
        assert nests == [False]
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        assert check(program, contract, dom) == nested
        assert (nested.verdict, nested.checked_points) == (VERIFIED, 201)

    def test_a_nest_point_the_closures_pass_falls_back_to_visits(self, monkeypatch):
        """Where the closures pass the point a loop nest stopped at,
        Judge.check judges the visits of the precondition, from where's
        filter at or above the gate, and agrees with bf_check."""
        filters = _compiled_sources(monkeypatch, "visits")
        stops = []
        monkeypatch.setattr(verifier, "loop_nest", lambda *args: lambda: (stops[-1], 0))
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        rng = random.Random(5813)
        ranges = {"a": (-2, 2), "b": (-2, 2)}
        dom = Domain.from_dict(ranges)
        verdicts = Counter()
        for case in range(150):
            program = random_program(rng, 5, True, faults=True)
            contract = Contract(random_predicate(rng, ("a", "b"), faults=True),
                                random_predicate(rng, ("a", "b", "o"), faults=True))
            budget = rng.choice((3, 25, 10000))
            ids = [stmt.stmt_id for stmt in program.statements()]
            kept = None if case % 4 == 0 else frozenset(i for i in ids if rng.random() < 0.7)
            built = program if kept is None else slicer._build(program, kept)
            passing = [point for point in dom.points()
                       if check_point(built, contract, point, budget).status in (PASS, PRE_VIOLATION)]
            if not passing:
                continue
            stops.append(rng.choice(passing))
            result = verifier.Judge(program, contract, dom, budget).check(kept)
            verdicts[_agrees(built, contract, ranges, budget, result)] += 1
        assert filters == [True] * len(stops)
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 5, verdicts

    def test_only_domains_at_the_gate_or_above_compile_a_nest(self, max2, nests):
        contract = _contract("a > b", "max == a")
        below = interp.NEST_FROM_POINTS - 1
        check(max2, contract, Domain.from_dict({"a": (1, below), "b": (0, 0)}))
        assert nests == []
        check(max2, contract, Domain.from_dict({"a": (1, below + 1), "b": (0, 0)}))
        assert nests == [True]

    def test_a_passing_point_builds_no_final_state(self, div_oracle, monkeypatch):
        """check judges its postcondition inside the loop nest: no point
        that passes runs the closures, and the failing one runs them once,
        for its final state."""
        ran = []
        real = verifier.runner

        def spying(*args, **kwargs):
            execute = real(*args, **kwargs)

            def spied(inputs):
                ran.append(execute(inputs))
                return ran[-1]

            return spied

        monkeypatch.setattr(verifier, "runner", spying)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        dom = Domain.parse("x in 0..10, y in 1..5")
        assert check(div_oracle, _contract("x >= 0 && y >= 1", DIV_SPEC), dom).verdict == VERIFIED
        assert ran == []
        verdict = check(div_oracle, _contract("x >= 0 && y >= 1", "q < 3"), dom)
        assert verdict.witness.inputs == {"x": 3, "y": 1}
        assert verdict.checked_points == 16
        assert len(ran) == 1 and ran[0][0] == OK

    PARAMS = (ast.Param("x", "in"), ast.Param("y", "out"))

    def test_hand_built_literal_conditions(self, monkeypatch, nests):
        """TRUE and FALSE, which the parser gives only in predicates, are
        emitted as if and while conditions too."""
        sets_y = ast.Block((ast.Assign(2, "y", ast.Var("x")),))
        taken = ast.If(1, ast.BoolLit(True), sets_y, ast.Block())
        never = ast.While(3, ast.BoolLit(False), ast.Block())
        exits = ast.Program("f", self.PARAMS, frozenset(), ast.Block((taken, never)))
        unless = ast.If(1, ast.BoolLit(False), sets_y, ast.Block())
        forever = ast.While(3, ast.BoolLit(True), ast.Block())
        spins = ast.Program("f", self.PARAMS, frozenset(), ast.Block((unless, forever)))
        ranges = {"x": (-3, 3)}
        contract, dom = _contract("TRUE", "y == x"), Domain.from_dict(ranges)
        verified = self._both_ways(monkeypatch, exits, contract, dom, budget=10)
        assert (verified.verdict, verified.checked_points) == (VERIFIED, 7)
        _agrees(exits, contract, ranges, 10, verified)
        spun = self._both_ways(monkeypatch, spins, contract, dom, budget=10)
        assert spun.verdict == BUDGET_EXCEEDED
        assert spun.witness.final == {"x": -3, "y": 0}
        assert spun.witness.detail == "step budget exceeded at statement 3"
        _agrees(spins, contract, ranges, 10, spun)
        assert nests == [True, True]

    def test_hand_built_program_reading_an_undeclared_variable(self, monkeypatch, nests):
        """Python is not asked to compile a nest that reads a name the
        program does not declare; check raises on the closures."""
        reads_z = ast.Assign(1, "y", ast.Arith("+", ast.Var("x"), ast.Var("z")))
        program = ast.Program("f", self.PARAMS, frozenset(), ast.Block((reads_z,)))
        contract, dom = _contract("TRUE", "TRUE"), Domain.parse("x in -3..3")
        for gate in (0, 10**18):
            monkeypatch.setattr(interp, "NEST_FROM_POINTS", gate)
            with pytest.raises(UnboundVariableError) as excinfo:
                check(program, contract, dom)
            assert excinfo.value.name == "z"
        assert nests == [False]

    @pytest.mark.parametrize("case, form", sorted(NEST_GOLDENS))
    def test_cli_output_is_the_closure_scans(self, case, form, capsys, tmp_path):
        source, *args = NEST_COMMANDS[case]
        path = tmp_path / "f.prog"
        path.write_text(source)
        program = corpus_path(source) if source.endswith(".prog") else path
        assert main(["check", str(program), *args, "--format", form]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NEST_GOLDENS[case, form]


#: a sum of 250 terms: parses and closure-compiles, but Python refuses its
#: 249 nested parentheses
DEEP_SUM = " + ".join(["a"] * 250)


class TestWhere:
    """implies and check_all over NEST_FROM_POINTS points or more judge
    their preconditions (p1 && !p2 for implies) with where's compiled
    filter, with every answer, witness (key order too), checked_points and
    fault of the closures, which smaller domains keep; both agree with
    bf_implies and bf_check. The gate is patched to force the filter on
    (0) and off (raised)."""

    @pytest.fixture
    def filters(self, monkeypatch):
        """Each filter where compiled: whether Python took it."""
        return _compiled_sources(monkeypatch, "visits")

    @staticmethod
    def _implies(p1, p2, dom):
        """implies' answer as bf_implies gives it."""
        try:
            result = implies(p1, p2, dom)
        except PredicateUndefinedError as err:
            return "fault", err.assignment, err.reason
        return result.holds, result.witness, result.checked_points

    def _implies_both_ways(self, monkeypatch, p1, p2, ranges, refused=False):
        """implies through the filter, which decides without enumerating
        points unless Python refuses it, and through the points one by
        one; both must be bf_implies'. The filter's answer."""
        dom = Domain.from_dict(ranges)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        with monkeypatch.context() as patch:
            if not refused:
                patch.setattr(Domain, "points", None)
            filtered = self._implies(p1, p2, dom)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        plain = self._implies(p1, p2, dom)
        expected = bf_implies(p1, p2, ranges)
        assert filtered == plain == expected, (format_predicate(p1), format_predicate(p2), ranges)
        assert list(filtered[1] or ()) == list(plain[1] or ()) == list(expected[1] or ())
        return filtered

    @staticmethod
    def _check_all_both_ways(monkeypatch, pairs, ranges, budget=10000, refused=False):
        """check_all through the filter, which decides without enumerating
        points unless Python refuses it, and through the closures; both
        must agree with bf_check. The filter's results."""
        dom = Domain.from_dict(ranges)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        with monkeypatch.context() as patch:
            if not refused:
                patch.setattr(Domain, "points", None)
            filtered = check_all(pairs, dom, budget)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        plain = check_all(pairs, dom, budget)
        assert filtered == plain
        for (program, contract), result, other in zip(pairs, filtered, plain):
            _agrees(program, contract, ranges, budget, result)
            assert list(result.witness and result.witness.final or ()) == list(
                other.witness and other.witness.final or ())
        return filtered

    def test_implies_on_random_faulting_predicates(self, monkeypatch, filters):
        rng = random.Random(1618)
        seen = Counter()
        for _ in range(300):
            read = rng.sample(("a", "b", "n"), rng.randint(1, 3))
            names = sorted(read + (["z"] if rng.random() < 0.25 else []))
            ranges = {}
            for name in names:
                lo = rng.randint(-3, 1)
                ranges[name] = (lo, lo + rng.randint(0, 3))
            p1 = TRUE if rng.random() < 0.2 else random_predicate(rng, tuple(read), faults=True)
            p2 = random_predicate(rng, tuple(read), faults=True)
            got = self._implies_both_ways(monkeypatch, p1, p2, ranges)
            seen["fault" if got[0] == "fault" else "holds" if got[0] else "counterexample"] += 1
            seen["exists binds a domain variable"] += "n" in read and "exists n" in (
                format_predicate(p1) + format_predicate(p2))
        assert min(seen["fault"], seen["holds"], seen["counterexample"]) >= 40, seen
        assert seen["exists binds a domain variable"] >= 30, seen
        assert filters and all(filters)

    @pytest.mark.parametrize("p1, p2, ranges, expected", [
        # exists binding n, a domain variable that varies outside it
        ("n > 0 && (exists n in 0..2 : a + n == b)", "b >= a",
         {"a": (-3, 3), "b": (-3, 3), "n": (0, 5)}, (True, None, 294)),
        ("n > 3", "exists n in 0..2 : a + n == b", {"a": (-3, 3), "b": (-3, 3), "n": (0, 5)},
         (False, {"a": -3, "b": 0, "n": 4}, 23)),
        # p1 faults at a == 5, after the counterexample at a == 3 ...
        ("10 / (a - 5) > -100", "a < 3", {"a": (0, 9)}, (False, {"a": 3}, 4)),
        # ... and before the first one at a == 7
        ("10 / (a - 5) > -100", "a < 7", {"a": (0, 9)}, ("fault", {"a": 5}, "division by zero")),
        # the fault's assignment lists the variable neither side reads first
        ("TRUE", "a / (b - 1) > -10", {"a": (-3, 3), "b": (0, 2), "z": (1, 4)},
         ("fault", {"z": 1, "a": -3, "b": 1}, "division by zero")),
        ("a > 2", "a > 2 || b / (b - 1) >= 0", {"a": (-3, 3), "b": (0, 2), "z": (1, 4)},
         (True, None, 21)),
    ])
    def test_implies_cases(self, p1, p2, ranges, expected, monkeypatch, filters):
        p1, p2 = parse_predicate(p1), parse_predicate(p2)
        got = self._implies_both_ways(monkeypatch, p1, p2, ranges)
        assert got == expected
        assert list(got[1] or ()) == list(expected[1] or ())
        assert filters == [True]

    def test_check_all_on_random_programs_and_faulting_contracts(self, monkeypatch, filters):
        rng = random.Random(2048)
        ranges = {"a": (-2, 2), "b": (-2, 2)}
        verdicts = Counter()
        for case in range(150):
            program = random_program(rng, 4, True, faults=True)
            contracts = [
                Contract(random_predicate(rng, ("a", "b"), faults=True),
                         random_predicate(rng, ("a", "b", "o"), faults=True))
                for _ in range(3)
            ]
            budget = rng.choice((3, 25, 10000))
            pairs = [(program, contract) for contract in contracts]
            for result in self._check_all_both_ways(monkeypatch, pairs, ranges, budget):
                verdicts[result.verdict] += 1
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts
        assert filters == [True] * 150

    COPY = "proc f(in a, out o){ o := a; }"

    def test_check_all_cases(self, max2, monkeypatch, filters):
        copy = parse_program(self.COPY)
        # the precondition faults at a == 5, after the counterexample at
        # a == 3 that ends the first pair's scan, in the same scan
        faulting = self._check_all_both_ways(monkeypatch, [
            (copy, _contract("10 / (a - 5) > -100", "o < 3")),
            (copy, _contract("10 / (a - 5) > -100", "TRUE")),
            (copy, _contract("a > 100", "TRUE")),
        ], {"a": (0, 9)})
        assert [(r.verdict, r.checked_points) for r in faulting] == [
            (COUNTEREXAMPLE, 4), (FAULT, 5), (VACUOUS, 0)]
        assert faulting[1].witness.detail == "precondition fault: division by zero"
        # exists binding b, an in-parameter
        (bound,) = self._check_all_both_ways(
            monkeypatch, [(max2, _contract("exists b in 0..3 : a > b", "max >= a"))],
            {"a": (-3, 3), "b": (-3, 3)})
        assert (bound.verdict, bound.checked_points) == (VERIFIED, 21)
        assert filters == [True, True]

    def test_a_visit_the_closures_pass_over_changes_nothing(self, monkeypatch, filters):
        """A visit at which the closures find p1 && !p2 false is passed
        over: implies keeps bf_implies' answer, witness key order and
        checked_points, and check_all, whose filter visits a point where
        no precondition holds, bf_check's answers."""
        led = _led_by_a_passed_visit(monkeypatch)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        rng = random.Random(1123)
        seen = Counter()
        for _ in range(200):
            read = rng.sample(("a", "b"), rng.randint(1, 2))
            ranges = {name: (lo, lo + rng.randint(1, 3)) for name in sorted(read)
                      for lo in [rng.randint(-3, 1)]}
            p1 = TRUE if rng.random() < 0.2 else random_predicate(rng, tuple(read), faults=True)
            p2 = random_predicate(rng, tuple(read), faults=True)
            before = len(led)
            got = self._implies(p1, p2, Domain.from_dict(ranges))
            expected = bf_implies(p1, p2, ranges)
            assert got == expected, (format_predicate(p1), format_predicate(p2), ranges)
            assert list(got[1] or ()) == list(expected[1] or ())
            if len(led) > before:
                seen["fault" if got[0] == "fault" else "holds" if got[0] else "counterexample"] += 1
        assert min(seen["fault"], seen["holds"], seen["counterexample"]) >= 15, seen
        ranges = {"a": (-2, 2), "b": (-2, 2)}
        dom = Domain.from_dict(ranges)
        before = len(led)
        for _ in range(60):
            program = random_program(rng, 4, True, faults=True)
            contracts = [
                Contract(random_predicate(rng, ("a", "b"), faults=True),
                         random_predicate(rng, ("a", "b", "o"), faults=True))
                for _ in range(3)
            ]
            budget = rng.choice((3, 25, 10000))
            results = check_all([(program, contract) for contract in contracts], dom, budget)
            for contract, result in zip(contracts, results):
                _agrees(program, contract, ranges, budget, result)
        assert len(led) - before >= 15
        assert filters and all(filters)

    def test_source_python_refuses_falls_back_to_the_closures(self, max2, monkeypatch, filters):
        deep = parse_predicate(f"{DEEP_SUM} == 250 * a")
        ranges = {"a": (-3, 3), "b": (-3, 3)}
        assert self._implies_both_ways(monkeypatch, TRUE, deep, ranges, refused=True) == (
            True, None, 7)
        counterexample = parse_predicate(f"{DEEP_SUM} < 250 * b")
        assert self._implies_both_ways(
            monkeypatch, parse_predicate("a < 0"), counterexample, ranges, refused=True,
        ) == (False, {"a": -3, "b": -3}, 1)
        (result,) = self._check_all_both_ways(
            monkeypatch, [(max2, Contract(parse_predicate(f"{DEEP_SUM} > 250 * b"),
                                          parse_predicate("max == a")))],
            ranges, refused=True)
        assert (result.verdict, result.checked_points) == (VERIFIED, 21)
        assert filters == [False] * 3

    def test_only_domains_at_the_gate_or_above_compile_a_filter(self, filters):
        p1, p2 = parse_predicate("a > b"), parse_predicate("a >= b")
        below = interp.NEST_FROM_POINTS - 1
        implies(p1, p2, Domain.from_dict({"a": (1, below), "b": (0, 0)}))
        assert filters == []
        implies(p1, p2, Domain.from_dict({"a": (1, below + 1), "b": (0, 0)}))
        assert filters == [True]



def _emitted(monkeypatch, only=None):
    """The source of each function interp compiles from here on, as text;
    with only, of each function of that name ("scan", "visits", "run")."""
    sources = []
    real = interp._load

    def spy(name, function, emit):
        lines = emit()
        if only in (None, function):
            sources.append("\n".join("    " * depth + text for depth, text in lines))
        return real(name, function, lambda: lines)

    monkeypatch.setattr(interp, "_load", spy)
    return sources


class TestWherePlacement:
    """where judges each top-level conjunct of each predicate in the
    outermost loop that binds what it, or a conjunct before it, reads (in
    the innermost loop from the first that can raise on), and yields what
    judging every point on the closures (predicates.visits below the gate)
    and bf_holds yield: the same points, in the same order and key order,
    with the same True, False or None (raised) for each predicate."""

    @staticmethod
    def _three_ways(monkeypatch, ranges, preds):
        """where's visits, checked against the closures and bf_holds."""
        dom = Domain.from_dict(ranges)
        assert math.prod(hi - lo + 1 for _, lo, hi in dom.ranges) >= interp.NEST_FROM_POINTS
        compiled = interp.where(dom.ranges, preds)
        assert compiled is not None
        got = [(list(point.items()), held) for point, held in compiled()]
        assert all(h is True or h is False or h is None for _, held in got for h in held)
        with monkeypatch.context() as patch:
            patch.setattr(interp, "NEST_FROM_POINTS", 10**18)
            pairs = [(pred, interp.compile_bool(pred)) for pred in preds]
            closures = [(list(point.items()), tuple(held)) for point, held in predicates.visits(dom, pairs)]
        names = [name for name, _, _ in dom.ranges]
        brute = []
        for values in itertools.product(*(range(lo, hi + 1) for _, lo, hi in dom.ranges)):
            point = dict(zip(names, values))
            held = []
            for pred in preds:
                try:
                    held.append(bf_holds(pred, dict(point)))
                except ZeroDivisionError:
                    held.append(None)
            if True in held or None in held:
                brute.append((list(point.items()), tuple(held)))
        assert got == closures == brute, [format_predicate(p) for p in preds]
        return got

    @staticmethod
    def _chain(rng, names):
        """An && chain of one to four conjuncts that may fault, each a
        random predicate over the first one or more of names, or TRUE."""
        parts = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.1:
                parts.append("TRUE")
            else:
                read = names[:rng.randint(1, len(names))]
                parts.append(f"({predicate_text(rng, read, 1, read)})")
        return parse_predicate(" && ".join(parts))

    @classmethod
    def _cases(cls):
        """160 seeded (names, ranges, preds) of one to three faulting
        chains over two or three variables."""
        rng = random.Random(2811)
        for _ in range(160):
            names = rng.choice((("a", "b"), ("a", "n"), ("a", "b", "n")))
            # at least NEST_FROM_POINTS points, small values: powers stay small
            sizes = (12, 10) if len(names) == 2 else (5, 5, 5)
            ranges = {}
            for name, size in zip(names, sizes):
                lo = rng.randint(-4, 0)
                ranges[name] = (lo, lo + size - 1 + rng.randint(0, 1))
            yield names, ranges, tuple(cls._chain(rng, names) for _ in range(rng.randint(1, 3)))

    def test_random_faulting_chains_over_two_and_three_variables(self, monkeypatch):
        sources = _emitted(monkeypatch)
        seen = Counter()
        for names, ranges, preds in self._cases():
            got = self._three_ways(monkeypatch, ranges, preds)
            source = sources[-1]
            seen["outer conjunct"] += f"h_0_{len(names) - 1} =" in source or "h_0_1 =" in source
            seen["skips inner loops"] += "is False: continue" in source
            seen["outer any"] += re.search(r"^ *h_\d+_\d+ = .*\bany\(", source, re.M) is not None
            seen["raised"] += any(None in held for _, held in got)
            seen["three variables"] += len(names) == 3
        assert len(sources) == 160
        for what in ("outer conjunct", "skips inner loops", "outer any", "raised"):
            assert seen[what] >= 20, seen
        assert seen["three variables"] >= 40, seen

    def test_only_the_innermost_loop_can_raise(self, monkeypatch):
        """No try: line of a where or loop_nest source sits outside its
        innermost domain loop, over the seeded chains above and a seeded
        sample of faulting preconditions: an outer loop judges only
        conjuncts that cannot raise."""
        sources = _emitted(monkeypatch)
        for _, ranges, preds in self._cases():
            interp.where(Domain.from_dict(ranges).ranges, preds)
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        rng = random.Random(6007)
        for _ in range(160):
            program = random_program(rng, 3, faults=True)
            pre = parse_predicate(" && ".join(f"({predicate_text(rng, names, 1, names)})"
                                              for names in (("a",), ("b",), ("a", "b"))))
            interp.loop_nest(program, 10000, None, (("a", -2, 2), ("b", -2, 2)), pre, TRUE)
        assert len(sources) == 320
        risky = 0
        for source in sources:
            lines = source.splitlines()
            loop = max(i for i, line in enumerate(lines) if line.lstrip().startswith(("for v_", "for i_")))
            indent = len(lines[loop]) - len(lines[loop].lstrip())
            for i, line in enumerate(lines):
                if line.strip() == "try:":
                    assert i > loop and len(line) - len(line.lstrip()) > indent, source
            risky += any(helper in source for helper in ("_div(", "_mod(", "_pow("))
        assert risky >= 100, risky

    XY = {"x": (0, 16), "y": (1, 9)}
    XYZ = {"x": (0, 5), "y": (0, 4), "z": (1, 4)}

    @pytest.mark.parametrize("preds, ranges, lines", [
        # conjuncts that read x, then y: the first is judged once per x
        (("x > 3 && y < x", "(x == 2 || x == 4) && y == 2"), XY,
         ["h_0_1 = (v_x > 3)", "h_1_1 = ((v_x == 2 or v_x == 4))", "h_0 = h_0_1 and (v_y < v_x)"]),
        # a first conjunct that reads x only but can raise (at x == 12): it
        # and every conjunct after it are judged per point, in a try
        (("10 / (x - 12) > -100 && y == 2",), XY,
         ["try:", "h_0 = (_div(10, v_x - 12) > (-100) and v_y == 2)", "h_0 = None"]),
        # a top-level exists judged per x, as an any(…) in that loop's line,
        # and one nested in an || judged in the same loop as the conjunct it
        # is part of
        (("(exists n in 1..4 : x == 2 ^ n) && y == 2",
          "(x == 0 || (exists n in 1..4 : x == 2 ^ n)) && y == 2",
          "exists k in 0..16 : x == y * k"), XY,
         ["h_0_1 = (any(v_x == _pow(2, e_n) for e_n in range(1, 5)))",
          "h_1_1 = ((v_x == 0 or any(v_x == _pow(2, e_n) for e_n in range(1, 5))))",
          "h_2 = (any(v_x == v_y * e_k for e_k in range(0, 17)))"]),
        # an exists that binds y, a domain variable, reads x only: it is
        # judged per x, and the y after it per y
        (("(exists y in 0..2 : x == 2 * y) && y > 3",), XY,
         ["h_0_1 = (any(v_x == 2 * e_y for e_y in range(0, 3)))", "h_0 = h_0_1 and (v_y > 3)"]),
        # literal TRUE conjuncts emit nothing
        (("TRUE && x > 2 && TRUE", "TRUE"), XY, ["h_0_1 = (v_x > 2)", "held = (h_0_1, True, )"]),
        # where every predicate is False at x, the loops inside are skipped;
        # before every loop, the function returns
        (("x < 2 && y > 0", "x == 5 && z == y"), XYZ,
         ["if h_0_1 is False and h_1_1 is False: continue"]),
        (("FALSE && x > 0", "1 > 2"), XYZ, ["h_0_0 = (False)", "h_1_0 = (1 > 2)",
                                            "if h_0_0 is False and h_1_0 is False: return"]),
        # a conjunct that reads x and y of three variables goes to y's loop,
        # unless it can raise: then it goes to z's, with the one after it
        (("x + y > 6 && z > y", "y / (x - 2) > 0 && z == 2"), XYZ,
         ["h_0_2 = (v_x + v_y > 6)", "h_1 = (_div(v_y, v_x - 2) > 0 and v_z == 2)", "h_1 = None"]),
        # a / or % whose divisor's interval excludes 0 (ast.fault_free) cannot
        # raise: conjuncts of them that read x only are judged once per x,
        # outside any try; one whose divisor's interval holds 0 stays per
        # point, in a try
        (("x % 4 == 0 && 10 / (x + 1) >= 0 && y > 0", "x % (x - 8) == 0 && y > 2"), XY,
         ["h_0_1 = (_mod(v_x, 4) == 0 and _div(10, v_x + 1) >= 0)", "h_0 = h_0_1 and (v_y > 0)",
          "try:", "h_1 = (_mod(v_x, v_x - 8) == 0 and v_y > 2)", "h_1 = None"]),
    ])
    def test_cases(self, preds, ranges, lines, monkeypatch):
        sources = _emitted(monkeypatch)
        self._three_ways(monkeypatch, ranges, tuple(map(parse_predicate, preds)))
        (source,) = sources
        emitted = [line.strip() for line in source.splitlines()]
        for line in lines:
            assert line in emitted, source

    def test_conjuncts_that_all_read_the_innermost_variable_keep_one_expression(self, monkeypatch):
        """With nothing to judge in an outer loop, a predicate is one
        expression at each point, with no try, as none of it can raise."""
        sources = _emitted(monkeypatch)
        pred = parse_predicate("y > 1 && x < y && (exists k in 0..2 : x == y * k)")
        self._three_ways(monkeypatch, self.XY, (pred,))
        assert sources == ["\n".join([
            "def visits():",
            "    for v_x in range(0, 17):",
            "        for v_y in range(1, 10):",
            "            h_0 = (v_y > 1 and v_x < v_y and any(v_x == v_y * e_k for e_k in range(0, 3)))",
            "            held = (h_0, )",
            "            if held != (False,):",
            "                yield {'x': v_x, 'y': v_y}, held",
        ])]


class TestFirstFailure:
    """Judge.first_failure(points, kept) gives the first of points at which
    check_point fails the program built from kept, with its inputs, final
    state (key order too) and detail, or None when there is none."""

    RANGES = {"a": (-3, 3), "b": (-3, 3)}

    @staticmethod
    def _holds(pre, point) -> bool:
        try:
            return bf_holds(pre, dict(point))
        except ZeroDivisionError:
            return False

    def test_agrees_with_check_point_on_the_built_program(self):
        rng = random.Random(1729)
        dom = Domain.from_dict(self.RANGES)
        points = list(dom.points())
        seen = Counter()
        for case in range(300):
            program = random_program(rng, 6, True, faults=True)
            contract = Contract(random_predicate(rng, ("a", "b"), faults=True),
                                random_predicate(rng, ("a", "b", "o"), faults=True))
            budget = rng.choice((3, 25, 10000))
            ids = [stmt.stmt_id for stmt in program.statements()]
            kept = None if case % 5 == 0 else frozenset(i for i in ids if rng.random() < 0.7)
            built = program if kept is None else slicer._build(program, kept)
            holding = [point for point in points if self._holds(contract.pre, point)]
            judged = {id(point): check_point(built, contract, point, budget) for point in holding}
            killers = rng.sample(holding, min(len(holding), rng.randint(1, 6)))
            got = verifier.Judge(program, contract, dom, budget).first_failure(killers, kept)
            expected = next((judged[id(point)] for point in killers
                             if not judged[id(point)].passed), None)
            if expected is None:
                assert got is None
                seen["none"] += 1
                continue
            assert got.inputs is expected.inputs
            assert got.final == expected.final
            assert list(got.final or ()) == list(expected.final or ())
            assert got.detail == expected.detail
            seen[expected.status] += 1
        for status in ("none", FAIL, FAULT, BUDGET_EXCEEDED):
            assert seen[status] >= 10, seen


def _counting_pre(monkeypatch, pre) -> list:
    """The points at which the closure of pre, as verifier.closure gives
    it, is called, in order."""
    calls = []
    real = verifier.closure

    def spying(pred):
        test = real(pred)
        if pred is not pre:
            return test

        def counted(point):
            calls.append(dict(point))
            return test(point)

        return counted

    monkeypatch.setattr(verifier, "closure", spying)
    return calls


class TestKeptPoints:
    """Below the gate, a Judge keeps its precondition's visits as its scans
    draw them, and every scan reads those drawn before it draws more: every
    result stays that of a fresh check of the built program and of
    bf_check, the precondition is judged once per point for all kept-sets
    (again only where it raised), and no scan draws a visit it does not
    judge."""

    RANGES = {"a": (-2, 2), "b": (-3, 3)}  # 35 points, below the gate
    KINDS = ("everywhere", "part", "vacuous", "raising")
    #: a precondition of each kind over RANGES, for when none is drawn
    FALLBACK = {"everywhere": "a * a >= 0", "part": "a > b", "vacuous": "a * a < 0",
                "raising": "10 / (a - 1) > -100"}

    @staticmethod
    def _kind(pre, dom) -> str:
        held = []
        for point in dom.points():
            try:
                held.append(bf_holds(pre, dict(point)))
            except ZeroDivisionError:
                return "raising"
        if all(held):
            return "everywhere"
        return "part" if any(held) else "vacuous"

    def _pre(self, rng, kind, dom):
        """A random faulting precondition of kind over dom."""
        for _ in range(40):
            pre = random_predicate(rng, ("a", "b"), faults=True)
            if self._kind(pre, dom) == kind:
                return pre
        return parse_predicate(self.FALLBACK[kind])

    @pytest.mark.parametrize("gate", [None, 0, 10**18])
    def test_one_judge_many_kept_sets_agrees_with_bruteforce(self, gate, monkeypatch):
        if gate is not None:
            monkeypatch.setattr(interp, "NEST_FROM_POINTS", gate)
        size = math.prod(hi - lo + 1 for lo, hi in self.RANGES.values())
        below = size < interp.NEST_FROM_POINTS
        rng = random.Random(3838)
        dom = Domain.from_dict(self.RANGES)
        verdicts, drawn_all, judged_again = Counter(), Counter(), Counter()
        for case in range(160):
            kind = self.KINDS[case % 4]
            program = random_program(rng, 5, True, faults=True)
            # a postcondition of TRUE now and then, so that more scans verify
            post = TRUE if case % 5 == 0 else random_predicate(rng, ("a", "b", "o"), faults=True)
            contract = Contract(self._pre(rng, kind, dom), post)
            budget = rng.randint(1, 10) if case % 3 == 0 else rng.choice((25, 10000))
            kept_sets = [None, *(frozenset(random_kept(rng, program.body, rng.random())) for _ in range(4))]
            calls = kept_sets * 2
            rng.shuffle(calls)
            judge = verifier.Judge(program, contract, dom, budget)
            judged = []  # the points where judge's scans call the precondition's closure
            with monkeypatch.context() as patch:
                pre_calls = _counting_pre(patch, contract.pre)
                for kept_set in calls:
                    built = program if kept_set is None else slicer._build(program, kept_set)
                    before = len(pre_calls)
                    result = judge.check(kept_set)
                    judged += pre_calls[before:]
                    fresh = check(built, contract, dom, budget)
                    assert result == fresh
                    if result.witness is not None:
                        assert list(result.witness.inputs) == list(fresh.witness.inputs)
                    verdicts[_agrees(built, contract, self.RANGES, budget, result)] += 1
            if not below:
                # each scan judges the precondition's closure only where its
                # loop nest stopped: nothing is kept across scans
                assert len(judged) <= len(calls)
                continue
            # once per point for all kept-sets, and again only where it
            # raised, by the scans that stop there
            times = Counter(tuple(point.items()) for point in judged)
            for point, count in times.items():
                if count > 1:
                    with pytest.raises(ZeroDivisionError):
                        bf_holds(contract.pre, dict(point))
            drawn_all[kind] += len(times) == size
            # a raising point judged by visits, then by two scans or more
            judged_again[kind] += max(times.values(), default=0) > 2
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts
        if below:
            for kind in ("everywhere", "part", "vacuous"):
                assert drawn_all[kind] >= 10, drawn_all
            assert judged_again["raising"] >= 10, judged_again

    def test_a_witness_holds_a_copy_of_a_kept_point(self):
        program, contract = parse_program("proc f(in a, out o) { o := a; }"), _contract("a > 0", "o < 3")
        judge = verifier.Judge(program, contract, Domain.parse("a in 0..5"))
        # without its one statement the program verifies: the points are kept
        kept = judge.check(frozenset())
        assert (kept.verdict, kept.checked_points) == (VERIFIED, 5)
        first = judge.check()
        assert (first.witness.inputs, first.checked_points) == ({"a": 3}, 3)
        first.witness.inputs["a"] = 0
        assert judge.check() == verifier.VerificationResult(
            COUNTEREXAMPLE, verifier.Witness({"a": 3}, {"a": 3, "o": 3}, "postcondition is false"),
            3, judge.dom)

    def test_the_gate_is_read_at_each_call(self, monkeypatch):
        """Visits kept below the gate are not used once the gate falls
        below the domain: that scan runs a loop nest, and the next one
        below the gate reads the kept visits again."""
        nests = _compiled_sources(monkeypatch, "scan")
        program, contract = parse_program("proc f(in a, out o) { o := a; }"), _contract("a > 1", "o < 4")
        dom = Domain.parse("a in 0..5")
        judge = verifier.Judge(program, contract, dom)
        assert judge.check(frozenset()).checked_points == 4
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 0)
        assert judge.check() == check(program, contract, dom)
        assert nests == [True, True]
        monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
        monkeypatch.setattr(verifier, "visits", None)
        result = judge.check()
        assert (result.verdict, result.witness.inputs, result.checked_points) == (COUNTEREXAMPLE, {"a": 4}, 3)
        assert nests == [True, True]

    def test_an_exception_propagates_from_the_kept_points(self, monkeypatch):
        reads_z = ast.Assign(2, "y", ast.Arith("+", ast.Var("x"), ast.Var("z")))
        program = ast.Program("f", (ast.Param("x", "in"), ast.Param("y", "out")), frozenset(),
                              ast.Block((ast.Assign(1, "y", ast.Var("x")), reads_z)))
        pre, dom = parse_predicate("x > 0"), Domain.parse("x in -3..3")
        calls = _counting_pre(monkeypatch, pre)
        judge = verifier.Judge(program, Contract(pre, TRUE), dom)
        assert judge.check(frozenset({1})).checked_points == 3
        assert calls == list(dom.points())
        with pytest.raises(UnboundVariableError) as excinfo:
            judge.check()
        assert excinfo.value.name == "z"
        assert calls == list(dom.points())

    def test_an_exhaustive_slice_judges_the_precondition_once_per_point(self, max2, monkeypatch):
        """The original's scan judges every point; no candidate judges one
        again (81 points, below the gate)."""
        pre = parse_predicate("a > b")
        calls = _counting_pre(monkeypatch, pre)
        checks = []
        real_check = verifier.Judge.check

        def counted_check(judge, kept=None):
            checks.append(kept)
            return real_check(judge, kept)

        monkeypatch.setattr(verifier.Judge, "check", counted_check)
        dom = Domain.parse("a in -4..4, b in -4..4")
        result = tddslicer.slice(max2, Contract(pre, parse_predicate("a > b && max == a")), dom)
        assert result.verification.checked_points == 36
        assert len(checks) >= 3
        assert calls == list(dom.points())

    def test_a_scan_failing_at_its_first_point_judges_the_precondition_there_only(self, monkeypatch):
        """Points are kept as the scan draws them: a precondition that would
        take forever at the second point is never judged there."""
        pre = parse_predicate("a >= 0")
        calls = _counting_pre(monkeypatch, pre)
        program = parse_program("proc copy(in a, out o) { o := a; }")
        judge = verifier.Judge(program, Contract(pre, parse_predicate("o == 1")), Domain.parse("a in 0..5"))
        result = judge.check()
        assert (result.verdict, result.witness.inputs, result.checked_points) == (COUNTEREXAMPLE, {"a": 0}, 1)
        assert calls == [{"a": 0}]
        assert judge.check() == result
        assert calls == [{"a": 0}]

    def test_a_scan_after_a_failed_one_reads_its_visits_and_draws_the_rest(self, monkeypatch):
        pre = parse_predicate("a >= 0")
        calls = _counting_pre(monkeypatch, pre)
        program = parse_program("proc copy(in a, out o) { o := a; }")
        judge = verifier.Judge(program, Contract(pre, parse_predicate("o < 1")), Domain.parse("a in 0..5"))
        failed = judge.check()
        assert (failed.verdict, failed.witness.inputs, failed.checked_points) == (COUNTEREXAMPLE, {"a": 1}, 2)
        assert len(calls) == 2
        # without its statement o stays 0, so every point passes
        assert judge.check(frozenset()) == verifier.VerificationResult(VERIFIED, None, 6, judge.dom)
        assert calls == list(judge.dom.points())

    def test_a_raising_point_is_judged_again_by_each_scan_that_reaches_it(self, monkeypatch):
        pre = parse_predicate("10 / (a - 3) > -100")
        calls = _counting_pre(monkeypatch, pre)
        program = parse_program("proc copy(in a, out o) { o := a; }")
        judge = verifier.Judge(program, Contract(pre, TRUE), Domain.parse("a in 0..5"))
        counts = []
        for _ in range(3):
            result = judge.check()
            assert (result.verdict, result.witness.inputs, result.checked_points) == (FAULT, {"a": 3}, 3)
            assert result.witness.detail == "precondition fault: division by zero"
            counts.append(len(calls))
        # visits judges a = 0..3 once; _judge judges a = 3 again in every scan
        assert counts == [5, 6, 7]

    def test_a_scan_interrupted_while_drawing_leaves_no_spent_visits(self, monkeypatch):
        """A precondition that raises past visits' own handler (here an
        interrupt at a = 3) ends that scan; the next one draws afresh
        instead of taking the spent visits for all of them."""
        pre = parse_predicate("a >= 0")
        interrupt = [True]
        real = verifier.closure

        def spying(pred):
            test = real(pred)
            if pred is not pre:
                return test

            def interrupted(point):
                if interrupt[0] and point["a"] == 3:
                    raise KeyboardInterrupt
                return test(point)

            return interrupted

        monkeypatch.setattr(verifier, "closure", spying)
        program = parse_program("proc copy(in a, out o) { o := a; }")
        judge = verifier.Judge(program, Contract(pre, TRUE), Domain.parse("a in 0..5"))
        with pytest.raises(KeyboardInterrupt):
            judge.check()
        interrupt[0] = False
        assert judge.check() == verifier.VerificationResult(VERIFIED, None, 6, judge.dom)
