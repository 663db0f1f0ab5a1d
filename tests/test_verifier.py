"""Bounded triple checking against hand-verified and brute-forced oracles."""

from __future__ import annotations

import random

import pytest

from tddslicer import Contract, Domain, check, check_point, parse_predicate, parse_program
from tddslicer.verifier import (
    BUDGET_EXCEEDED,
    COUNTEREXAMPLE,
    FAULT,
    PASS,
    PRE_VIOLATION,
    VACUOUS,
    VERIFIED,
)

from bruteforce import bf_check
from generators import random_contract, random_program

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
