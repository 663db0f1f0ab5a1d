"""Bounded triple checking against hand-verified and brute-forced oracles."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest

from tddslicer import (
    Contract,
    Domain,
    ParseError,
    check,
    check_all,
    check_point,
    format_predicate,
    parse_predicate,
    parse_program,
    run,
)
from tddslicer import slicer, verifier
from tddslicer.errors import TOO_DEEP
from tddslicer.lang import interp
from tddslicer.lang.interp import OK
from tddslicer.verifier import (
    BUDGET_EXCEEDED,
    COUNTEREXAMPLE,
    FAIL,
    FAULT,
    PASS,
    PRE_VIOLATION,
    VACUOUS,
    VERIFIED,
)

from bruteforce import bf_check, bf_holds
from generators import CMP_OPS, predicate_text, random_contract, random_predicate, random_program

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
        self._agree_with_solo_and_bruteforce()

    def test_shared_scan_on_source_matches_solo_check_and_bruteforce(self, source_tier):
        verdicts = self._agree_with_solo_and_bruteforce()
        assert min(verdicts[FAULT], verdicts[BUDGET_EXCEEDED]) >= 30, verdicts
        assert source_tier and all(source_tier)

    def _agree_with_solo_and_bruteforce(self) -> Counter:
        rng = random.Random(3031)
        # 25 points fit in one chunk of the scan; 169 points take three
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
        return verdicts

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

        # each tier on its own: a scan compiles its source once, after
        # SOURCE_AFTER_STEPS steps, which the large domain reaches and the
        # small one does not
        for source_after_steps in (10**9, 0):
            monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", source_after_steps)
            small, small_results = peak("x in 0..9, y in 1..10")
            large, large_results = peak("x in 0..99, y in 1..100")
            assert [r.verdict for r in small_results] == [r.verdict for r in large_results]
            assert large_results[0].checked_points == 10_000
            assert large < small + 32_000


class TestRowScan:
    """Preconditions are judged a row at a time (Domain.rows()), with every
    verdict, witness, key order and checked_points of judging the points
    one by one, as bf_check and _bf_checked_points do."""

    DOMAINS = [
        {"a": (-2, 2), "b": (-2, 2)},
        # the last range has one value: a is the row variable, b a constant
        {"a": (-3, 3), "b": (1, 1)},
        {"a": (0, 0), "b": (-3, 3)},
    ]

    def _agrees(self, program, contract, ranges, budget, result):
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
                verdicts[self._agrees(program, contract, ranges, budget, solo)] += 1
        for verdict in (VERIFIED, COUNTEREXAMPLE, VACUOUS, FAULT, BUDGET_EXCEEDED):
            assert verdicts[verdict] >= 20, verdicts

    COPY = "proc f(in a, out o){ o := a; }"

    @pytest.mark.parametrize("pre, post, spec, witness, checked", [
        # the first failure is in the seventh row, 1,024 values wide
        ("a % 7 != 3", "o < 1500", "a in 0..3000", 1500, 1287),
        # the precondition faults at a == 5, later in the row than the
        # counterexample at a == 3
        ("10 / (a - 5) > -100", "o < 3", "a in 0..9", 3, 4),
        ("10 / (a - 5) > -100", "o < 7", "a in 0..9", 5, 5),
    ])
    def test_row_edges(self, pre, post, spec, witness, checked):
        program, contract = parse_program(self.COPY), _contract(pre, post)
        dom = Domain.parse(spec)
        ((_, lo, hi),) = dom.ranges
        result = check(program, contract, dom)
        assert result.witness.inputs == {"a": witness}
        assert result.checked_points == checked
        self._agrees(program, contract, {"a": (lo, hi)}, 10000, result)
        twin = (program, _contract(pre, "TRUE"))
        assert check_all([twin, (program, contract)], dom)[1] == result

    def test_first_failure_in_the_second_full_width_row(self):
        # b's rows for a == 1 are 1,024 values wide: the failure at b == 1500
        # is in the second
        program = parse_program("proc f(in a, in b, out o){ o := 10000 * a + b; }")
        contract = _contract("b % 7 != 3", "o < 11500")
        ranges = {"a": (0, 1), "b": (0, 3000)}
        dom = Domain.from_dict(ranges)
        assert [len(values) for prefix, values in dom.rows() if prefix["a"] == 1] == [1024, 1024, 953]
        result = check(program, contract, dom)
        assert result.witness.inputs == {"a": 1, "b": 1500}
        self._agrees(program, contract, ranges, 10000, result)

    def test_exists_binding_the_row_variable(self, max2):
        contract = _contract("exists b in 0..3 : a > b", "max >= a")
        ranges = {"a": (-3, 3), "b": (-3, 3)}
        result = check(max2, contract, Domain.from_dict(ranges))
        assert (result.verdict, result.checked_points) == (VERIFIED, 21)
        self._agrees(max2, contract, ranges, 10000, result)

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

    def test_precondition_too_deep_for_its_row_form_is_judged_point_by_point(
        self, max2, dom_ab8, monkeypatch
    ):
        contract = _contract("a > b", "max == a")
        expected = check(max2, contract, dom_ab8)
        real_compile = verifier.compile_bool

        def no_rows(pred, row=None):
            if row is not None:
                raise ParseError(TOO_DEEP)
            return real_compile(pred)

        monkeypatch.setattr(verifier, "compile_bool", no_rows)
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

    def test_early_failure_judges_one_short_row_of_preconditions(self, monkeypatch):
        # rows start short, so a scan that stops early judges the
        # precondition at few values past its stop
        judged = []
        real_compile = verifier.compile_bool

        def recording(pred, row=None):
            test = real_compile(pred, row)
            if row is None:
                return test

            def row_test(env, values):
                judged.append(values)
                return test(env, values)

            return row_test

        monkeypatch.setattr(verifier, "compile_bool", recording)
        program = parse_program(self.COPY)
        result = check(program, _contract("a > 0", "o < 2"), Domain.parse("a in 1..1000000"))
        assert result.witness.inputs == {"a": 2}
        assert judged == [range(1, 17)]

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
    """check_all judges each distinct precondition once per row, and each
    distinct program and (program, postcondition) once per point that
    needs it."""

    def test_evaluations_per_point(self, monkeypatch, verifier_runs):
        # final states repeat across points, since the program overwrites
        # its in-parameter; shared work is remembered for the very objects
        # of the latest point, not for equal ones, so every point still
        # evaluates its postconditions
        program = parse_program("proc f(in a, out o){ a := 0; o := 1; }")
        twin = parse_program("proc f(in a, out o){ a := 0; o := 1; }")
        dom = Domain.parse("a in 0..5")  # one row
        pairs = [
            (program, _contract("TRUE", "o == 1")),
            (twin, _contract("a >= 0", "o == 1")),
            (program, _contract("TRUE", "o > 0")),
            (program, _contract("a < 3", "o == 1")),
        ]
        rows, points = Counter(), Counter()
        real_compile = verifier.compile_bool

        def counting_compile(pred, row=None):
            test = real_compile(pred, row)
            calls = points if row is None else rows

            def counted(*args):
                calls[format_predicate(pred)] += 1
                return test(*args)

            return counted

        monkeypatch.setattr(verifier, "compile_bool", counting_compile)
        results = check_all(pairs, dom)
        assert [r.verdict for r in results] == [VERIFIED] * 4
        assert [r.checked_points for r in results] == [6, 6, 6, 3]
        assert len(verifier_runs) == 6
        assert rows == {"TRUE": 1, "a >= 0": 1, "a < 3": 1}
        assert points == {"o == 1": 6, "o > 0": 6}


DIV_SPEC = "0 <= r && r < y && x == y * q + r"


class TestSourceTier:
    """A scan's runs move to compiled source once they have taken
    SOURCE_AFTER_STEPS steps, with every verdict, witness and count as on
    the closures."""

    CASES = {
        # (program, pre, post, domain, budget, verdict); each scan fails
        # well after its 1,000th step
        "counterexample": (None, "x >= 0 && y >= 1", "q < 40", "x in 0..60, y in 1..10",
                           10000, COUNTEREXAMPLE),
        "fault": ("proc f(in x, in y, out q) { var t; t := x; while (t >= y) { t := t - y;"
                  " q := q + 1; } q := q / (x - 30); }",
                  "TRUE", "TRUE", "x in 0..60, y in 1..10", 10000, FAULT),
        "budget": (None, "x >= 0 && y >= 1", DIV_SPEC, "x in 0..200, y in 1..50",
                   60, BUDGET_EXCEEDED),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_scan_that_switches_midway_judges_as_on_closures(
        self, case, div_oracle, monkeypatch, tier_switches
    ):
        text, pre, post, spec, budget, verdict = self.CASES[case]
        program = div_oracle if text is None else parse_program(text)
        contract, dom = _contract(pre, post), Domain.parse(spec)
        tiered = check(program, contract, dom, budget)
        assert tier_switches == [True]
        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 10**9)
        closures = check(program, contract, dom, budget)
        assert tier_switches == [True]
        assert tiered.verdict == verdict
        assert tiered == closures
        assert list(tiered.witness.final) == list(closures.witness.final)
        assert tiered.checked_points > 100

    @pytest.mark.parametrize("body, post", [
        # parses and closure-compiles; Python refuses 249 nested parentheses
        ("o := " + " + ".join(["a"] * 250) + ";", "o == 250 * a"),
        # Python refuses more than 20 statically nested blocks
        ("while (o < a) { " * 25 + "o := o + 1; " + "} " * 25, "o == a || a < 0"),
    ])
    def test_source_python_refuses_stays_on_closures(self, body, post, monkeypatch, tier_switches):
        program = parse_program(f"proc f(in a, out o) {{ {body} }}")
        contract, dom = _contract("TRUE", post), Domain.parse("a in -3..3")

        def judged():
            runs = [run(program, {"a": a}, record=False) for a in range(-3, 4)]
            return runs, check(program, contract, dom)

        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 0)
        source = judged()
        assert tier_switches and not any(tier_switches)
        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 10**9)
        assert source == judged()
        assert source[1].verdict == VERIFIED

    @pytest.mark.parametrize("post", [
        # no source for an exists
        "exists n in 0..5 : o + n == 2",
        # the program compiles; Python refuses the post's 249 nested parentheses
        " + ".join(["a"] * 250) + " == 250 * o && a < 3",
    ])
    def test_unfusable_post_still_switches(self, post, monkeypatch, tier_switches):
        program = parse_program("proc f(in a, out o) { var w; w := a; o := w; }")
        contract, dom = _contract("TRUE", post), Domain.parse("a in -3..3")
        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 0)
        tiered = check(program, contract, dom)
        assert tier_switches == [True]
        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 10**9)
        closures = check(program, contract, dom)
        assert tier_switches == [True]
        assert tiered.verdict == COUNTEREXAMPLE
        assert tiered.witness.inputs == {"a": 3}
        assert tiered == closures
        assert list(tiered.witness.final) == list(closures.witness.final) == ["a", "o", "w"]
        assert tiered.checked_points == closures.checked_points == 7

    def test_a_passing_point_builds_no_final_state(self, div_oracle, monkeypatch):
        """check fuses its postcondition into the source: every point that
        passes gives PASSED, and a failing one the run's tuple."""
        ran = []
        real = verifier.runner

        def spying(*args, **kwargs):
            execute = real(*args, **kwargs)

            def spied(inputs):
                ran.append(execute(inputs))
                return ran[-1]

            return spied

        monkeypatch.setattr(verifier, "runner", spying)
        monkeypatch.setattr(interp, "SOURCE_AFTER_STEPS", 0)
        dom = Domain.parse("x in 0..10, y in 1..5")
        assert check(div_oracle, _contract("x >= 0 && y >= 1", DIV_SPEC), dom).verdict == VERIFIED
        assert ran == [interp.PASSED] * 55
        ran.clear()
        verdict = check(div_oracle, _contract("x >= 0 && y >= 1", "q < 3"), dom)
        assert verdict.witness.inputs == {"x": 3, "y": 1}
        assert ran[:-1] == [interp.PASSED] * 15 and ran[-1][0] == OK


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

    def test_agrees_with_check_point_on_the_built_program(self, tier_switches):
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
            if case % 4:
                killers = rng.sample(holding, min(len(holding), rng.randint(1, 6)))
            else:
                # passing points first, until their runs take over 1,000
                # steps: the runner switches to compiled source partway
                passing = [point for point in holding if judged[id(point)].passed]
                killers, steps = [], 0
                while passing and steps <= 1200 and len(killers) < 3000:
                    killers.append(rng.choice(passing))
                    steps += judged[id(killers[-1])].run_result.steps
                seen["long"] += steps > 1200
                killers += rng.sample(holding, len(holding))
            switched = len(tier_switches)
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
            seen["after a switch"] += len(tier_switches) > switched
        assert seen["long"] >= 30 and seen["after a switch"] >= 15, seen
        for status in ("none", FAIL, FAULT, BUDGET_EXCEEDED):
            assert seen[status] >= 10, seen
