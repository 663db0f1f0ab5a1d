"""Predicate parsing, evaluation, and bounded logical queries."""

from __future__ import annotations

import collections
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tddslicer import (
    Domain,
    EvaluationFault,
    ParseError,
    PredicateUndefinedError,
    UnboundVariableError,
    eval_predicate,
    format_predicate,
    free_vars,
    implies,
    is_tautology,
    parse_predicate,
    union,
    union_all,
    Contract,
    check,
    check_all,
    parse_program,
    subsumed_by,
)
from tddslicer.contracts import validate_scope
from tddslicer.lang import ast
from tddslicer.lang.interp import compile_bool
from tddslicer.predicates import TRUE, ImplicationResult, Prepared, implication

from bruteforce import bf_holds, bf_implies
from generators import CMP_OPS, comparison, random_contract, random_predicate


class TestDomainPoints:
    def test_same_points_and_order_as_product(self):
        """points() of a domain and of a sub-domain of some of its ranges
        enumerate what itertools.product gives over the sorted ranges, for
        0 to 3 variables."""
        rng = random.Random(5150)
        for _ in range(200):
            ranges = {}
            for name in rng.sample("abcd", rng.randint(0, 3)):
                lo = rng.randint(-3, 3)
                ranges[name] = (lo, lo + rng.randint(0, 3))
            some = {name: span for name, span in ranges.items() if rng.random() < 0.5}
            for sub in (ranges, some):
                names = sorted(sub)
                spans = [range(sub[n][0], sub[n][1] + 1) for n in names]
                expected = [dict(zip(names, values)) for values in itertools.product(*spans)]
                got = list(Domain.from_dict(sub).points())
                assert got == expected
                assert [list(point) for point in got] == [names] * len(expected)

    def test_points_are_an_odometer_in_name_order(self):
        """points() advances the last name fastest, each range ascending
        and a one-value range held fixed, and gives a new dict binding every
        name in order at each point."""
        rng = random.Random(6174)
        for _ in range(200):
            ranges = {}
            for name in rng.sample("abcd", rng.randint(1, 3)):
                lo = rng.randint(-3, 3)
                ranges[name] = (lo, lo + rng.choice((0, 0, 1, 3)))
            names = sorted(ranges)
            spans = [range(ranges[n][0], ranges[n][1] + 1) for n in names]
            points = list(Domain.from_dict(ranges).points())
            assert points == [dict(zip(names, values)) for values in itertools.product(*spans)]
            assert all(list(point) == names for point in points)
            assert len({id(point) for point in points}) == len(points)
        dom = Domain.parse("c in 5..5, b in 0..2999, a in 0..1")
        points = list(dom.points())
        assert len(points) == 6000
        assert points[2999:3001] == [{"a": 0, "b": 2999, "c": 5}, {"a": 1, "b": 0, "c": 5}]
        assert points[3000 + 1024] == {"a": 1, "b": 1024, "c": 5}
        assert list(Domain(()).points()) == [{}]

    def test_no_variables_give_one_empty_point(self):
        assert list(Domain(()).points()) == [{}]
        # a query whose sides read no variable evaluates them at one point
        result = is_tautology(parse_predicate("1 > 0"), Domain.parse("a in 0..2"))
        assert (result.holds, result.witness, result.checked_points) == (True, None, 1)

    def test_ranges_wider_than_sys_maxsize_enumerate_lazily(self):
        dom = Domain.parse("a in -2..1, b in 1..99999999999999999999")
        assert list(itertools.islice(dom.points(), 3)) == [
            {"a": -2, "b": 1},
            {"a": -2, "b": 2},
            {"a": -2, "b": 3},
        ]


class TestParse:
    def test_comparison(self):
        pred = parse_predicate("a > b")
        assert pred == ast.Cmp(">", ast.Var("a"), ast.Var("b"))

    def test_true_literal(self):
        assert parse_predicate("TRUE") == ast.BoolLit(True)
        assert parse_predicate("FALSE") == ast.BoolLit(False)

    def test_bounded_existential(self):
        pred = parse_predicate("exists n in 1..3 : x == 2^n && y == 2")
        assert isinstance(pred, ast.Exists)
        assert (pred.var, pred.lo, pred.hi) == ("n", 1, 3)
        # maximal scope: the conjunction is inside the body
        assert isinstance(pred.body, ast.And)

    def test_existential_empty_range_rejected(self):
        with pytest.raises(ParseError, match="lo > hi"):
            parse_predicate("exists n in 3..1 : n == 2")

    def test_existential_range_is_mandatory(self):
        with pytest.raises(ParseError, match="expected 'in'"):
            parse_predicate("exists n : x == 2^n")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_predicate("a > b b")

    def test_and_binds_tighter_than_or(self):
        pred = parse_predicate("a > 0 && b > 0 || a < 0")
        assert isinstance(pred, ast.Or)
        assert isinstance(pred.left, ast.And)

    def test_parenthesized_boolean_operand(self):
        pred = parse_predicate("(a + b) * 2 == 4 && (a < b || a == b)")
        assert isinstance(pred, ast.And)


class TestEval:
    def test_paper_max_precondition(self):
        assert eval_predicate(parse_predicate("a > b"), {"a": 2, "b": 1}) is True

    def test_existential_enumerates(self):
        pred = parse_predicate("exists n in 1..3 : x == 2^n")
        assert eval_predicate(pred, {"x": 6}) is False  # candidates: 2, 4, 8
        assert eval_predicate(pred, {"x": 8}) is True

    def test_true_needs_no_bindings(self):
        assert eval_predicate(parse_predicate("TRUE"), {}) is True

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_predicate(parse_predicate("a > b"), {"a": 1})

    def test_arithmetic_fault_raises(self):
        with pytest.raises(EvaluationFault, match="division by zero"):
            eval_predicate(parse_predicate("a / b == 1"), {"a": 1, "b": 0})

    def test_short_circuit_avoids_fault(self):
        assert eval_predicate(parse_predicate("FALSE && a / 0 == 1"), {"a": 1}) is False
        assert eval_predicate(parse_predicate("TRUE || a / 0 == 1"), {"a": 1}) is True

    def test_bound_variable_shadows_state(self):
        pred = parse_predicate("exists x in 5..5 : x == 5")
        assert eval_predicate(pred, {"x": 0}) is True


class TestFreeVars:
    def test_existential_binds(self):
        assert free_vars(parse_predicate("exists n in 0..4 : x == 2^n")) == {"x"}

    def test_comparison(self):
        assert free_vars(parse_predicate("a > b")) == {"a", "b"}

    def test_true(self):
        assert free_vars(parse_predicate("TRUE")) == frozenset()


class TestImplies:
    def test_anything_implies_true(self, dom_ab8):
        result = implies(parse_predicate("a > b"), parse_predicate("TRUE"), dom_ab8)
        assert result.holds and result.witness is None

    def test_paper_union_equivalence(self, dom_ab8):
        total = parse_predicate("a > b || a <= b")
        assert implies(total, parse_predicate("TRUE"), dom_ab8).holds
        assert implies(parse_predicate("TRUE"), total, dom_ab8).holds

    def test_concrete_point_into_existential(self):
        dom = Domain.parse("x in 0..16, y in 1..9")
        concrete = parse_predicate("x == 2 && y == 2")
        family = parse_predicate("exists n in 1..3 : x == 2^n && y == 2")
        assert implies(concrete, family, dom).holds
        assert not implies(family, concrete, dom).holds

    def test_witness_is_first_in_enumeration_order(self, dom_ab8):
        result = implies(parse_predicate("TRUE"), parse_predicate("a > b"), dom_ab8)
        assert not result.holds
        assert result.witness == {"a": -8, "b": -8}

    def test_uncovered_variable_rejected(self, dom_ab8):
        with pytest.raises(ValueError, match="does not cover"):
            implies(parse_predicate("c > 0"), parse_predicate("TRUE"), dom_ab8)

    def test_fault_reported_with_assignment(self):
        # a=-1 evaluates fine (to false); a=0 is the first undefined point
        dom = Domain.parse("a in -1..1")
        with pytest.raises(PredicateUndefinedError) as excinfo:
            implies(parse_predicate("1 / a == 1"), parse_predicate("TRUE"), dom)
        assert excinfo.value.assignment == {"a": 0}
        assert str(excinfo.value) == "predicate undefined at {'a': 0}: division by zero"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() prints integers of any length")
    def test_fault_at_a_value_too_large_to_print(self):
        """A fault at a point holding an integer past the int-to-string
        limit is still the documented error: that value is said to be too
        large to print, the others print as usual."""
        big = 10 ** 5000
        quotient = ast.Arith("/", ast.IntLit(1), ast.Arith("-", ast.Var("a"), ast.IntLit(big)))
        pred = ast.And(ast.Cmp(">", quotient, ast.IntLit(0)), parse_predicate("b >= 0"))
        dom = Domain.from_dict({"a": (big, big + 1), "b": (-1, -1)})
        with pytest.raises(PredicateUndefinedError) as excinfo:
            implies(pred, TRUE, dom)
        err = excinfo.value
        assert (err.assignment, err.reason) == ({"a": big, "b": -1}, "division by zero")
        assert str(err) == (
            "predicate undefined at {'a': too large to print, 'b': -1}: division by zero"
        )

    def test_predicate_too_deep_to_walk_is_a_parse_error(self):
        deep = parse_predicate(" + ".join(["a"] * 5000) + " > 0")
        dom = Domain.parse("a in 0..1")
        for p1, p2 in ((TRUE, deep), (deep, TRUE)):
            with pytest.raises(ParseError) as excinfo:
                implies(p1, p2, dom)
            assert str(excinfo.value) == "expression nested too deeply"

    def test_near_the_stack_limit_a_result_or_too_deep(self):
        """Sums of 900 to 1,000 terms, called from several stack depths, so
        that the stack runs out in each recursive step in turn: free_vars,
        the fault check, comparing disjuncts, compiling and evaluating.
        Each call gives a result or ParseError(TOO_DEEP), never a raw
        RecursionError."""

        def at_depth(depth, call):
            return call() if depth == 0 else at_depth(depth - 1, call)

        dom = Domain.parse("a in 0..1")
        outcomes = set()
        for n in range(900, 1001):
            deep = parse_predicate(" + ".join(["a"] * n) + " > 0")
            for depth in (0, 40, 80):
                for call in (lambda: is_tautology(deep, dom),
                             lambda: implies(deep, ast.Or(deep, TRUE), dom)):
                    try:
                        result = at_depth(depth, call)
                    except ParseError as err:
                        assert str(err) == "expression nested too deeply"
                        outcomes.add("too deep")
                    else:
                        assert isinstance(result, ImplicationResult)
                        outcomes.add("result")
        assert outcomes == {"result", "too deep"}

    def test_rows_agree_with_point_by_point_oracle(self):
        """implies and bf_implies, which judges one point after another,
        agree in every field (verdict, witness with its key order,
        checked_points, the first fault's assignment and reason) on 480
        seeded cases: 1 to 3 variables with innermost widths 1 and 2,
        exists binding the last variable that varies, faulting predicates
        and a variable neither side reads."""
        rng = random.Random(2718)
        seen = collections.Counter()
        for _ in range(480):
            read = rng.sample(("a", "b", "n"), rng.randint(1, 2))
            names = sorted(read + (["z"] if rng.random() < 0.25 else []))
            ranges = {}
            for name in names:
                lo = rng.randint(-3, 1)
                width = rng.choice((1, 2)) if name == names[-1] else rng.randint(1, 4)
                ranges[name] = (lo, lo + width - 1)
            faults = rng.random() < 0.5
            p1 = TRUE if rng.random() < 0.2 else random_predicate(rng, tuple(read), faults=faults)
            p2 = random_predicate(rng, tuple(read), faults=faults)
            expected = bf_implies(p1, p2, ranges)
            try:
                result = implies(p1, p2, Domain.from_dict(ranges))
            except PredicateUndefinedError as err:
                got = ("fault", err.assignment, err.reason)
            else:
                got = (result.holds, result.witness, result.checked_points)
            assert got == expected, (format_predicate(p1), format_predicate(p2), ranges)
            point = got[1] or {}
            assert list(point) == list(expected[1] or {})
            seen["fault" if got[0] == "fault" else "holds" if got[0] else "counterexample"] += 1
            wide = [name for name in sorted(free_vars(p1) | free_vars(p2))
                    if ranges[name][0] < ranges[name][1]]
            row = wide[-1] if wide else None
            seen["row " + str(row)] += 1
            seen["exists binds the row"] += row == "n" and "exists n" in (
                format_predicate(p1) + format_predicate(p2))
        assert min(seen["fault"], seen["holds"], seen["counterexample"]) >= 30, seen
        assert min(seen["row a"], seen["row b"], seen["row n"], seen["row None"]) >= 40, seen
        assert seen["exists binds the row"] >= 20, seen

    def test_rows_wider_than_one_piece(self):
        """Over a wide range, judged by where's compiled filter, the witness
        and the first fault far into the range are those of judging each
        point in turn."""
        dom = Domain.parse("a in 0..3000, b in 1..1")
        result = is_tautology(parse_predicate("a + b != 2001"), dom)
        assert (result.holds, result.witness, result.checked_points) == (
            False, {"a": 2000, "b": 1}, 2001)
        assert list(result.witness) == ["a", "b"]
        with pytest.raises(PredicateUndefinedError) as excinfo:
            is_tautology(parse_predicate("a == 2500 || 10 / (a - 1500) > -20"), dom)
        assert (excinfo.value.assignment, excinfo.value.reason) == (
            {"a": 1500, "b": 1}, "division by zero")
        assert is_tautology(parse_predicate("a >= b - 1"), dom).checked_points == 3001

    def test_irrelevant_variables_fixed_at_floor(self):
        dom = Domain.parse("a in -5..5, z in -9..9")
        result = implies(parse_predicate("TRUE"), parse_predicate("a > 0"), dom)
        assert result.witness == {"a": -5, "z": -9}
        assert list(result.witness) == ["z", "a"]  # the fixed variables first
        # only the variables the sides read are enumerated
        assert implies(parse_predicate("a > 0"), parse_predicate("a > -1"), dom).checked_points == 11

    def test_structural_shortcut_matches_enumeration(self):
        """Both directions between c1.post and the union's post agree with
        a brute-force sweep of the 343 points. Most of the 60 forward
        checks answer through the shortcut (no point checked: c1.post's
        disjuncts are all the union's); the converse may only where
        c2.post's disjuncts are all c1.post's, and it fails often enough
        to catch a shortcut that fires where it should not."""
        rng = random.Random(404)
        dom = Domain.parse("a in -3..3, b in -3..3, o in -3..3")
        grid = [dict(zip("abo", values)) for values in itertools.product(range(-3, 4), repeat=3)]
        shortcuts = converse_failures = 0
        for _ in range(60):
            c1 = random_contract(rng)
            c2 = random_contract(rng)
            combined = union(c1, c2)
            for p1, p2 in ((c1.post, combined.post), (combined.post, c1.post)):
                result = implies(p1, p2, dom)
                counterexamples = [
                    point for point in grid if bf_holds(p1, point) and not bf_holds(p2, point)
                ]
                assert result.holds == (not counterexamples)
                assert result.witness == (counterexamples[0] if counterexamples else None)
                if p1 is c1.post:
                    shortcuts += result.checked_points == 0
                else:
                    converse_failures += not result.holds
        assert shortcuts >= 50
        assert converse_failures >= 40

    def test_reflexive_and_transitive_on_corpus(self, dom_div):
        chain = [
            parse_predicate("x == 2 && y == 2"),
            parse_predicate("(x == 2 || x == 4) && y == 2"),
            parse_predicate("(x == 2 || x == 4 || x == 6) && y == 2"),
            parse_predicate("TRUE"),
        ]
        for pred in chain:
            assert implies(pred, pred, dom_div).holds
        for earlier, later in zip(chain, chain[1:]):
            assert implies(earlier, later, dom_div).holds
        assert implies(chain[0], chain[-1], dom_div).holds  # transitivity endpoint


def _shifted(var: str, shift: int) -> str:
    return f"{var} - {shift}" if shift >= 0 else f"{var} + {-shift}"


def _nested(rng: random.Random, parts: list):
    """The parts ORed in a random bracketing: text, or contracts by union."""
    if len(parts) == 1:
        return parts[0]
    cut = rng.randint(1, len(parts) - 1)
    left, right = _nested(rng, parts[:cut]), _nested(rng, parts[cut:])
    return f"({left}) || ({right})" if isinstance(left, str) else union(left, right)


class TestDisjunctRule:
    """implies decides p1 => p2 without judging a point (checked_points 0)
    when every OR-disjunct of p1 is one of p2's and neither side can fault
    over the domain, by interval arithmetic over the ranges. bf_implies,
    with walkers of its own, gives the same answer in every field."""

    #: disjunct kinds whose divisor or exponent interval admits a fault;
    #: odd admits 0 but never is 0, and shadow-zero's exists binds c to a
    #: range holding 0 where c's own range does not
    ADMITS = frozenset({"div-zero", "pow-neg", "odd", "shadow-zero"})
    KINDS = ("plain",) * 4 + ("div", "pow", "shadow") * 2 + tuple(sorted(ADMITS))

    @staticmethod
    def _disjunct(rng, ranges, kind):
        (a_lo, a_hi), (b_lo, b_hi), cmp = ranges["a"], ranges["b"], rng.choice(CMP_OPS)
        if kind == "plain":
            return comparison(rng, ("a", "b"))
        if kind in ("div", "div-zero"):
            base, (lo, hi) = rng.choice((("b", (b_lo, b_hi)), ("a + b", (a_lo + b_lo, a_hi + b_hi))))
            shift = (rng.randint(lo, hi) if kind == "div-zero"
                     else rng.choice((lo - rng.randint(1, 3), hi + rng.randint(1, 3))))
            # each form is 0 where base == shift only, and a factor
            # a - (past a's ceiling) never is
            divisor = rng.choice((_shifted(f"({base})", shift), f"{shift} - ({base})",
                                  _shifted(f"-({base})", -shift)))
            if rng.random() < 0.3:
                divisor = f"({_shifted('a', a_hi + rng.randint(1, 2))}) * ({divisor})"
            return f"{rng.randint(-9, 9)} {rng.choice('/%')} ({divisor}) {cmp} a"
        if kind in ("pow", "pow-neg"):
            shift = b_lo - rng.randint(0, 2) if kind == "pow" else b_lo + rng.randint(1, 2)
            return f"a ^ ({_shifted('b', shift)}) {cmp} {rng.randint(-4, 4)}"
        if kind == "odd":
            return f"a {rng.choice('/%')} (2 * b + 1) {cmp} {rng.randint(-2, 2)}"
        if kind == "shadow":  # a's own range holds 0, the bound a's does not
            lo = rng.randint(1, 2)
            return f"(exists a in {lo}..{lo + 1} : b / a {cmp} {rng.randint(-2, 2)})"
        return f"(exists c in -1..1 : a % c {cmp} {rng.randint(-2, 2)})"

    def test_unions_agree_with_the_oracle_in_every_field(self):
        """300 seeded pairs of unions over the same disjuncts, commuted,
        re-bracketed, a prefix against the whole or with disjuncts repeated,
        each judged both ways."""
        rng = random.Random(4711)
        seen = collections.Counter()
        for _ in range(300):
            ranges = {"a": (rng.randint(-3, 0), rng.randint(0, 3)),
                      "b": (rng.randint(-3, -1), rng.randint(0, 2)), "c": (1, 3)}
            dom = Domain.from_dict(ranges)
            kinds = [rng.choice(self.KINDS) for _ in range(rng.randint(1, 4))]
            texts = [self._disjunct(rng, ranges, kind) for kind in kinds]
            shape = rng.choice(("commuted", "reassociated", "prefix", "duplicated"))
            if shape == "commuted":
                narrow, wide = texts, rng.sample(texts, len(texts))
            elif shape == "reassociated":
                narrow, wide = texts, list(texts)
            elif shape == "prefix":
                narrow, wide = texts[:rng.randint(1, len(texts))], texts
            else:
                narrow, wide = texts + rng.choices(texts, k=rng.randint(1, 2)), texts
            admits = bool(self.ADMITS & set(kinds))
            if rng.random() < 0.5:  # parsed text
                prepared = [Prepared(parse_predicate(_nested(rng, side))) for side in (narrow, wide)]
            else:  # the pres of contracts built with union
                prepared = [_nested(rng, [Contract(parse_predicate(t), TRUE) for t in side]).prepared[0]
                            for side in (narrow, wide)]
            for forward in (True, False):
                p1, p2 = prepared if forward else prepared[::-1]
                expected = bf_implies(p1.pred, p2.pred, ranges)
                try:
                    result = implication(p1, p2, dom)
                except PredicateUndefinedError as err:
                    got = ("fault", err.assignment, err.reason)
                else:
                    got = (result.holds, result.witness, result.checked_points)
                assert got == expected, (format_predicate(p1.pred), format_predicate(p2.pred), ranges)
                assert list(got[1] or {}) == list(expected[1] or {})
                static = got == (True, None, 0)
                if forward:
                    seen["static" if static else "fault" if got[0] == "fault" else "enumerated"] += 1
                    seen["admits"] += admits
                    # nothing whose interval admits a fault is decided statically
                    assert not (admits and static), (format_predicate(p1.pred), ranges)
                    seen["admits, raised"] += admits and got[0] == "fault"
                    seen["admits, enumerated"] += admits and got[0] is True
                else:
                    seen["converse " + ("holds" if got[0] is True else "other")] += 1
                seen["static " + shape] += static
        assert seen["static"] >= 120, seen
        assert min(seen["static " + shape] for shape in
                   ("commuted", "reassociated", "prefix", "duplicated")) >= 40, seen
        assert seen["admits, raised"] >= 70 and seen["admits, enumerated"] >= 50, seen
        assert seen["converse other"] >= 80, seen

    def test_a_union_of_2000_against_its_reverse(self):
        """Unions of 2,000 contracts built with union, one the other's
        reverse, whose posts divide by b shifted past 0: subsumption either
        way finds every disjunct of one among the other's and judges no
        point, with no RecursionError, in under 5 s (about 0.4 s on CPython
        3.11, 2 vCPUs, unions built included)."""
        contracts = [Contract(parse_predicate(f"a != {n}"),
                              parse_predicate(f"o == a / (b + {n + 1}) || o % (b + 1) == {n}"))
                     for n in range(2000)]
        dom = Domain.parse("a in 0..9, b in 0..3")
        start = time.perf_counter()
        forward, backward = union_all(contracts), union_all(contracts[::-1])
        for c1, c2 in ((forward, backward), (backward, forward)):
            result = subsumed_by(c1, c2, dom)
            assert result.holds
            assert result.pre_implication.checked_points == 0
            assert result.post_implication.checked_points == 0
        assert time.perf_counter() - start < 5

    def test_numbers_past_the_print_limit_are_bounded_not_evaluated(self):
        """Ranges and literals of 5,000 digits: the walk bounds divisors by
        them without computing a quotient, and a product too wide to bound
        makes its divisor unknown, in well under a second."""
        big = 10 ** 5000
        a, b = ast.Var("a"), ast.Var("b")
        cases = [
            (ast.Cmp(">", ast.Arith("/", a, b), ast.IntLit(0)), {"a": (0, big), "b": (1, big)}),
            (ast.Cmp("==", ast.Arith("%", a, ast.IntLit(big)), ast.IntLit(1)), {"a": (-big, big)}),
            (ast.Cmp("<", ast.Arith("/", a, ast.Arith("-", b, ast.IntLit(big))), a),
             {"a": (0, big), "b": (big + 1, big * 2)}),
        ]
        start = time.perf_counter()
        for pred, ranges in cases:
            result = implies(pred, ast.Or(TRUE, pred), Domain.from_dict(ranges))
            assert (result.holds, result.checked_points) == (True, 0)
        product = a
        for _ in range(900):
            product = ast.Arith("*", product, a)
        pred = ast.Cmp(">", ast.Arith("/", ast.IntLit(1), ast.Arith("+", product, ast.IntLit(1))), a)
        assert not Prepared(pred).fault_free(Domain.from_dict({"a": (0, big)}))
        assert Prepared(pred).fault_free(Domain.from_dict({"a": (0, 3)}))
        assert time.perf_counter() - start < 1

    def test_a_shadowing_exists_is_judged_by_its_own_bounds(self):
        dom = Domain.parse("a in -2..2, b in 1..3")
        safe = parse_predicate("exists a in 1..2 : b / a > 0")
        assert implies(safe, ast.Or(safe, TRUE), dom).checked_points == 0
        # the bound b holds 0 where b's own range does not
        unsafe = parse_predicate("exists b in -1..1 : a % b == 0 || b > 0")
        result = implies(unsafe, ast.Or(TRUE, unsafe), dom)
        assert (result.holds, result.checked_points) == (True, 5)


class TestTautology:
    def test_paper_tautology(self, dom_ab8):
        assert is_tautology(parse_predicate("a > b || a <= b"), dom_ab8).holds

    def test_not_tautology_with_witness(self, dom_ab8):
        result = is_tautology(parse_predicate("a > b"), dom_ab8)
        assert not result.holds
        assert result.witness == {"a": -8, "b": -8}

    def test_true_is_tautology(self):
        assert is_tautology(parse_predicate("TRUE"), Domain.parse("a in 0..1")).holds

    def test_agrees_with_implies_from_true(self, dom_ab8):
        rng = random.Random(11)
        for _ in range(30):
            pred = random_predicate(rng, ("a", "b"))
            via_tautology = is_tautology(pred, dom_ab8)
            via_implies = implies(parse_predicate("TRUE"), pred, dom_ab8)
            assert via_tautology.holds == via_implies.holds
            assert via_tautology.witness == via_implies.witness


# hypothesis strategies for fault-free predicates over {a, b} ---------------


def _exprs():
    atoms = st.one_of(
        st.integers(min_value=-4, max_value=4).map(ast.IntLit),
        st.sampled_from(("a", "b")).map(ast.Var),
    )
    return st.recursive(
        atoms,
        lambda sub: st.builds(
            ast.Arith, st.sampled_from(("+", "-", "*")), sub, sub
        ),
        max_leaves=6,
    )


def _predicates():
    comparisons = st.builds(
        ast.Cmp, st.sampled_from(("==", "!=", "<", "<=", ">", ">=")), _exprs(), _exprs()
    )
    return st.recursive(
        comparisons,
        lambda sub: st.one_of(
            st.builds(ast.And, sub, sub),
            st.builds(ast.Or, sub, sub),
            st.builds(ast.Not, sub),
        ),
        max_leaves=8,
    )


_states = st.fixed_dictionaries(
    {"a": st.integers(-5, 5), "b": st.integers(-5, 5)}
)


@settings(max_examples=200, deadline=None)
@given(p=_predicates(), q=_predicates(), s=_states)
def test_boolean_connectives_decompose(p, q, s):
    assert eval_predicate(ast.And(p, q), s) == (eval_predicate(p, s) and eval_predicate(q, s))
    assert eval_predicate(ast.Or(p, q), s) == (eval_predicate(p, s) or eval_predicate(q, s))
    assert eval_predicate(ast.Not(p), s) == (not eval_predicate(p, s))


@settings(max_examples=150, deadline=None)
@given(p=_predicates())
def test_predicate_print_parse_round_trip(p):
    assert parse_predicate(format_predicate(p)) == p


def test_contract_str_uses_predicate_syntax():
    contract = Contract(parse_predicate("a > b"), parse_predicate("a > b && max == a"))
    assert str(contract) == "{a > b}{a > b && max == a}"


def _outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


class TestPrepared:
    """A Prepared value's facts equal a fresh derivation from its
    predicate, for generated predicates (faulting ones included) and for
    unions of them, whichever facts were derived before the union was
    built."""

    FACTS = ("free", "disjuncts", "test")
    POINTS = [{"a": a, "b": b} for a in range(-2, 3) for b in range(-2, 3)]
    DOM = Domain.parse("a in -2..2, b in -2..2")

    def _assert_fresh(self, prepared):
        pred = prepared.pred
        assert prepared.free == free_vars(pred)
        assert prepared.disjuncts == ast.or_disjuncts(pred)
        assert prepared.fault_free(self.DOM) == Prepared(pred).fault_free(self.DOM)
        fresh = compile_bool(pred)
        for point in self.POINTS:
            assert _outcome(prepared.test, dict(point)) == _outcome(fresh, dict(point))

    def _contract(self, rng, faults):
        return Contract(
            random_predicate(rng, ("a", "b"), faults=faults),
            random_predicate(rng, ("a", "b"), faults=faults),
        )

    def test_generated_predicates_and_their_unions(self):
        rng = random.Random(1919)
        for round_ in range(80):
            faults = round_ % 2 == 1
            parts = [self._contract(rng, faults) for _ in range(rng.randint(1, 5))]
            for contract in parts:
                for prepared in contract.prepared:
                    for fact in self.FACTS:
                        if rng.random() < 0.3:
                            getattr(prepared, fact)
                    if rng.random() < 0.3:
                        prepared.fault_free(self.DOM)
            shape = rng.choice(("left", "right", "twice"))
            if shape == "left":
                combined = union_all(parts)
            elif shape == "right":
                combined = parts[-1]
                for contract in reversed(parts[:-1]):
                    combined = union(contract, combined)
            else:  # one contract twice: a part shared by both sides
                combined = union(parts[0], parts[0])
            plain = Contract(combined.pre, combined.post)
            for contract in (*parts, combined):
                for prepared, pred in zip(contract.prepared, (contract.pre, contract.post)):
                    assert prepared.pred is pred
                    self._assert_fresh(prepared)
            # the algebra over composed values answers as over fresh ones
            for contract in parts:
                composed = _outcome(subsumed_by, contract, combined, self.DOM)
                fresh = _outcome(subsumed_by, Contract(contract.pre, contract.post), plain, self.DOM)
                assert composed == fresh
            assert _outcome(implication, Prepared(TRUE), combined.prepared[0], self.DOM) == (
                _outcome(is_tautology, combined.pre, self.DOM)
            )

    def test_a_long_union_needs_no_stack(self):
        """Facts of a union of 3,000 contracts whose parts derived none are
        derived in a loop, and its closure judges the parts' closures in a
        loop: not one frame per part, so checks over it get answers."""
        contracts = [Contract(parse_predicate(f"a == {n}"), TRUE) for n in range(3000)]
        combined = union_all(contracts)
        pre = combined.prepared[0]
        dom = Domain.parse("a in 2990..3009")
        assert pre.free == {"a"}
        assert pre.disjuncts == tuple(c.pre for c in contracts)
        assert pre.fault_free(dom)
        assert (pre.test({"a": 2999}), pre.test({"a": 3000})) == (True, False)
        program = parse_program("proc f(in a, out o) { o := a; }")
        result = check(program, combined, dom)
        assert (result.verdict, result.checked_points) == ("verified", 10)

    def test_too_deep_fails_where_the_fact_is_first_needed(self):
        """Parsing, Contract(...) and union derive nothing; the first query
        that walks or compiles the deep predicate is ParseError(TOO_DEEP)."""
        deep = parse_predicate(" + ".join(["a"] * 5000) + " > 0")
        contract = Contract(deep, TRUE)
        combined = union(contract, Contract(TRUE, TRUE))
        program = parse_program("proc f(in a, out o) { o := a; }")
        dom = Domain.parse("a in 0..1")
        calls = [
            lambda: validate_scope(contract, frozenset({"a"}), frozenset({"o"})),
            lambda: subsumed_by(contract, combined, dom),
            lambda: subsumed_by(Contract(TRUE, TRUE), combined, dom),
            lambda: implies(deep, TRUE, dom),
            lambda: is_tautology(combined.pre, dom),
            lambda: check(program, contract, dom),
            lambda: check(program, combined, dom),
        ]
        for call in calls:
            with pytest.raises(ParseError) as excinfo:
                call()
            assert str(excinfo.value) == "expression nested too deeply"
        (shared,) = check_all([(program, combined)], dom)
        assert isinstance(shared, ParseError)
