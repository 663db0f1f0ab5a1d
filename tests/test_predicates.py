"""Predicate parsing, evaluation, and bounded logical queries."""

from __future__ import annotations

import collections
import gc
import itertools
import math
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
    Contract,
    check,
    check_all,
    load_session,
    parse_program,
    predicates,
    replay,
    subsumed_by,
)
from tddslicer.contracts import validate_scope
from tddslicer.corpus import corpus_path
from tddslicer.lang import ast, interp
from tddslicer.lang.interp import compile_bool
from tddslicer.predicates import ImplicationResult

from bruteforce import _bf_cannot_fault, bf_holds, bf_implies
from generators import (CMP_OPS, comparison, faulting_expr, linear_expr, predicate_text, random_contract,
                        random_predicate, union_all)

TRUE = ast.BoolLit(True)


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
        assert isinstance(pred.operands[0], ast.And)

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

    def test_repeated_calls_compile_once(self, monkeypatch):
        """pred keeps its closure: three evaluations compile it once, and
        each gives what a fresh compile gives, a fault included."""
        compiled = []

        def counting(node):
            compiled.append(node)
            return compile_bool(node)

        monkeypatch.setattr(predicates, "compile_bool", counting)
        pred = parse_predicate("10 / a > 1")
        assert [eval_predicate(pred, {"a": a}) for a in (5, 20)] == [True, False]
        with pytest.raises(EvaluationFault, match="division by zero"):
            eval_predicate(pred, {"a": 0})
        assert compiled == [pred]


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
        pred = ast.And((ast.Cmp(">", quotient, ast.IntLit(0)), parse_predicate("b >= 0")))
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
                             lambda: implies(deep, ast.Or((deep, TRUE)), dom)):
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
                sides = [parse_predicate(_nested(rng, side)) for side in (narrow, wide)]
            else:  # the pres of contracts built with union
                sides = [_nested(rng, [Contract(parse_predicate(t), TRUE) for t in side]).pre
                         for side in (narrow, wide)]
            for forward in (True, False):
                p1, p2 = sides if forward else sides[::-1]
                expected = bf_implies(p1, p2, ranges)
                try:
                    result = implies(p1, p2, dom)
                except PredicateUndefinedError as err:
                    got = ("fault", err.assignment, err.reason)
                else:
                    got = (result.holds, result.witness, result.checked_points)
                assert got == expected, (format_predicate(p1), format_predicate(p2), ranges)
                assert list(got[1] or {}) == list(expected[1] or {})
                static = got == (True, None, 0)
                if forward:
                    seen["static" if static else "fault" if got[0] == "fault" else "enumerated"] += 1
                    seen["admits"] += admits
                    # nothing whose interval admits a fault is decided statically
                    assert not (admits and static), (format_predicate(p1), ranges)
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
            result = implies(pred, ast.Or((TRUE, pred)), Domain.from_dict(ranges))
            assert (result.holds, result.checked_points) == (True, 0)
        product = a
        for _ in range(900):
            product = ast.Arith("*", product, a)
        pred = ast.Cmp(">", ast.Arith("/", ast.IntLit(1), ast.Arith("+", product, ast.IntLit(1))), a)
        assert not predicates.fault_free(pred, Domain.from_dict({"a": (0, big)}))
        assert predicates.fault_free(pred, Domain.from_dict({"a": (0, 3)}))
        assert time.perf_counter() - start < 1

    def test_a_shadowing_exists_is_judged_by_its_own_bounds(self):
        dom = Domain.parse("a in -2..2, b in 1..3")
        safe = parse_predicate("exists a in 1..2 : b / a > 0")
        assert implies(safe, ast.Or((safe, TRUE)), dom).checked_points == 0
        # the bound b holds 0 where b's own range does not
        unsafe = parse_predicate("exists b in -1..1 : a % b == 0 || b > 0")
        result = implies(unsafe, ast.Or((TRUE, unsafe)), dom)
        assert (result.holds, result.checked_points) == (True, 5)


_COMPLEMENT = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
_MIRROR = {"==": "==", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _judged(p1, p2, ranges):
    """implies' whole outcome as bf_implies states it, with the witness's
    or the fault's key order: (holds, witness, checked_points) or
    ("fault", assignment, reason)."""
    dom = Domain.from_dict(ranges)
    try:
        result = implies(p1, p2, dom)
    except PredicateUndefinedError as err:
        return ("fault", err.assignment, err.reason), list(err.assignment)
    assert result.domain == dom
    return (result.holds, result.witness, result.checked_points), list(result.witness or {})


def _expected(p1, p2, ranges):
    expected = bf_implies(p1, p2, ranges)
    return expected, list(expected[1] or {})


@pytest.fixture
def visited(monkeypatch):
    """The number of implies calls that reached visits, the one scan of a
    domain's points, so far."""
    calls = []
    real = predicates.visits

    def spy(dom, pairs):
        calls.append(dom)
        return real(dom, pairs)

    monkeypatch.setattr(predicates, "visits", spy)
    return calls


@pytest.fixture
def loaded(monkeypatch):
    """The (name, function) of each function lang.interp emits and compiles."""
    calls = []
    real = interp._load

    def spy(name, function, emit):
        calls.append((name, function))
        return real(name, function, emit)

    monkeypatch.setattr(interp, "_load", spy)
    return calls


class TestTruthTable:
    """implies settles p1 => p2 from the truth table over its comparisons
    and exists (a comparison, its mirror image and its complement being
    one) when p1 && !p2 is false in every row and neither side can fault
    over the domain: nothing is compiled or enumerated, and the result is
    enumeration's, every point checked. bf_implies, which judges point by
    point, gives the same answer in every field."""

    @staticmethod
    def _template(rng, vars, small):
        """(kind, branches, near-miss branches): OR-branches whose
        disjunction is a tautology by its propositional structure alone,
        and the same with one branch dropped."""
        kind = rng.choice(("split", "complement", "exists", "constants"))
        split = f"({predicate_text(rng, vars, 1, small)})"
        other = f"({predicate_text(rng, vars, 1, small)})"
        if kind == "split":
            branches = [split, f"!{split} && {other}", f"!{split} && !{other}"]
        elif kind == "complement":
            left = faulting_expr(rng, vars, small) if small and rng.random() < 0.4 else linear_expr(rng, vars)
            right, op = linear_expr(rng, vars), rng.choice(CMP_OPS)
            negated = _COMPLEMENT[op]
            opposite = (f"{left} {negated} {right}" if rng.random() < 0.5
                        else f"{right} {_MIRROR[negated]} {left}")
            branches = [f"{left} {op} {right}", opposite, other]
        elif kind == "exists":
            lo = rng.randint(-1, 1)
            names = (*vars, "n")
            bound = f"(exists n in {lo}..{lo + rng.randint(0, 2)} : {comparison(rng, names, names if small else ())})"
            branches = [f"{bound} && {other}", f"!{bound}", f"{bound} && !{other}"]
        else:
            branches = [f"{split} && TRUE", f"!{split} || FALSE", "FALSE"]
        rng.shuffle(branches)
        near = list(branches)
        del near[rng.choice([i for i, branch in enumerate(near) if branch != "FALSE"])]
        return kind, branches, near

    def test_case_splits_agree_with_the_oracle_in_every_field(self, visited):
        """600 seeded implications into case-split templates built on
        tests/generators.py predicates (half of them with faults) and into
        their near-misses, from TRUE, from a random predicate and from
        another template, over domains of 25 to 64 points (below
        NEST_FROM_POINTS) and 121 to 196 (above it)."""
        rng = random.Random(4141)
        seen = collections.Counter()
        assert interp.NEST_FROM_POINTS == 120
        for round_ in range(600):
            faults = round_ % 2 == 1
            vars = ("a", "b")
            small = vars if faults else ()
            above = rng.random() < 0.5
            ranges = {}
            for name in vars:
                lo = rng.randint(-5, 0)
                ranges[name] = (lo, lo + (rng.randint(10, 13) if above else rng.randint(4, 7)))
            if rng.random() < 0.2:
                ranges["z"] = (2, 4)
            kind, branches, near = self._template(rng, vars, small)
            missing = rng.random() < 0.35
            p2 = parse_predicate(_nested(rng, near if missing else branches))
            start = rng.choice(("TRUE", "random", "template"))
            if start == "TRUE":
                p1 = TRUE
            elif start == "random":
                p1 = random_predicate(rng, vars, faults=faults)
            else:
                p1 = parse_predicate(_nested(rng, self._template(rng, vars, small)[1]))
            dom = Domain.from_dict(ranges)
            before = len(visited)
            got = _judged(p1, p2, ranges)
            assert got == _expected(p1, p2, ranges), (format_predicate(p1), format_predicate(p2), ranges)
            scanned = len(visited) > before
            safe = predicates.fault_free(p1, dom) and predicates.fault_free(p2, dom)
            size = math.prod(hi - lo + 1 for name, (lo, hi) in ranges.items()
                             if name in free_vars(p1) | free_vars(p2))
            tabled = not scanned and got[0][2] != 0
            if tabled:  # only a fault-free implication that holds is tabled
                assert safe and got[0] == (True, None, size)
            if not safe:
                assert scanned
            gate = "above" if above else "below"
            seen[f"{'near' if missing else 'full'} {'tabled' if tabled else 'scanned'}"] += 1
            seen[f"tabled {gate}"] += tabled
            seen[f"tabled {kind}"] += tabled
            seen[f"unsafe {got[0][0]}"] += not safe
            seen[f"near {got[0][0]}"] += missing
        assert seen["full tabled"] >= 150 and seen["near scanned"] >= 150, seen
        assert min(seen["tabled above"], seen["tabled below"]) >= 60, seen
        assert min(seen[f"tabled {kind}"] for kind in ("split", "complement", "exists", "constants")) >= 25, seen
        assert min(seen["unsafe fault"], seen["unsafe True"], seen["unsafe False"]) >= 15, seen
        assert min(seen["near True"], seen["near False"]) >= 40, seen

    @pytest.mark.parametrize("text", ["a > b || a <= b", "a > b || b >= a", "b < a || a <= b",
                                      "a >= b || a < b", "a == b || b != a", "a != b || a == b",
                                      "!(a > b) || !(b >= a)", "a - 1 < 2 * b || 2 * b <= a - 1"])
    def test_complements_and_mirror_images_are_one_atom(self, text, visited, loaded):
        """Over 1,681 points a comparison or its mirror image, ORed with
        its complement or its complement's mirror image, is a tautology by
        its truth table over one atom: nothing is scanned or compiled."""
        ranges = {"a": (-20, 20), "b": (-20, 20)}
        pred = parse_predicate(text)
        assert _judged(TRUE, pred, ranges) == ((True, None, 1681), [])
        assert _expected(TRUE, pred, ranges) == ((True, None, 1681), [])
        assert visited == [] and loaded == []

    @pytest.mark.parametrize("text", ["a > b || a < b", "a >= b || b >= a + 1", "a == b || a != b + 1"])
    def test_different_comparisons_are_different_atoms(self, text, visited, loaded):
        """Comparisons that are not one another's mirror image or
        complement are judged point by point, by the compiled filter."""
        ranges = {"a": (-20, 20), "b": (-20, 20)}
        pred = parse_predicate(text)
        assert _judged(TRUE, pred, ranges) == _expected(TRUE, pred, ranges)
        assert len(visited) == 1 and loaded == [("where", "visits")]

    def test_a_tautology_compiles_nothing_and_a_near_miss_its_filter(self, loaded):
        """Above the gate a case split compiles nothing; dropping one of
        its branches compiles the filter for p1 && !p2, which finds the
        first counterexample, as point-by-point judging does."""
        ranges = {"a": (-10, 10), "b": (-10, 10)}
        split, other = "(exists n in 0..2 : a == 3 * n + b)", "a + b < 4"
        branches = [split, f"!{split} && {other}", f"!{split} && !({other})"]
        whole = parse_predicate(" || ".join(branches))
        assert _judged(TRUE, whole, ranges) == ((True, None, 441), [])
        assert loaded == []
        for dropped in range(3):
            near = parse_predicate(" || ".join(branches[:dropped] + branches[dropped + 1:]))
            expected = _expected(TRUE, near, ranges)
            assert expected[0][0] is False
            assert _judged(TRUE, near, ranges) == expected
            assert loaded == [("where", "visits")] * (dropped + 1)

    def test_a_side_that_can_fault_is_judged_point_by_point(self, visited):
        """C || !C is a tautology by its structure, but where C can fault
        the first point where it does is the answer."""
        ranges = {"a": (-20, 20), "b": (-20, 20)}
        pred = parse_predicate("a > b || (a <= b && (10 / (a + b + 5) > -100 || 10 / (a + b + 5) <= -100))")
        with pytest.raises(PredicateUndefinedError) as excinfo:
            is_tautology(pred, Domain.from_dict(ranges))
        assert (excinfo.value.assignment, excinfo.value.reason) == ({"a": -20, "b": 15}, "division by zero")
        assert len(visited) == 1
        assert _judged(TRUE, pred, ranges) == _expected(TRUE, pred, ranges)

    @pytest.mark.parametrize("ranges, atoms, tabled", [
        ({"a": (0, 7)}, 3, True),        # 8 points: 2^3 rows
        ({"a": (0, 7)}, 4, False),       # 16 rows stand for more than 8 points
        ({"a": (0, 9999)}, 12, True),    # 4,096 rows, ast.SPAN_BITS
        ({"a": (0, 9999)}, 13, False),   # 8,192 rows, past ast.SPAN_BITS
        ({"a": (0, 0), "b": (5, 5)}, 0, True),
    ])
    def test_the_table_has_no_more_rows_than_points(self, ranges, atoms, tabled, visited):
        """The table stops at its first atom past 2^k rows for the points
        of the domain that vary, or past ast.SPAN_BITS rows; the points
        are then judged, with the same result."""
        text = " || ".join([f"a > {n}" for n in range(atoms)] + ["a <= 0"] if atoms else ["TRUE && !FALSE"])
        pred = parse_predicate(text)
        size = math.prod(hi - lo + 1 for lo, hi in ranges.values()) if atoms else 1
        assert _judged(TRUE, pred, ranges) == ((True, None, size), [])
        assert _expected(TRUE, pred, ranges) == ((True, None, size), [])
        assert (visited == []) is tabled

    def test_a_deep_not_chain_and_a_long_or_chain(self):
        """A 900-deep ! chain and 2,000-operand || chains: each call gives
        the answer of point-by-point judging (of an equal shallow predicate
        for the deep chain), or ParseError(TOO_DEEP) where the stack runs
        out, as before the table; a 2,000-deep || nest is too deep to walk."""
        ranges = {"a": (-4, 4), "b": (0, 2)}
        dom = Domain.from_dict(ranges)
        atom = parse_predicate("a > b")
        chain = atom
        for _ in range(900):
            chain = ast.Not(chain)
        cases = [
            (ast.Or((chain, parse_predicate("a <= b"))), parse_predicate("a > b || a <= b")),
            (ast.Or((chain, parse_predicate("a < b"))), parse_predicate("a > b || a < b")),
            (ast.Or((ast.Not(chain), chain)), parse_predicate("a > b || !(a > b)")),
        ]
        flat = [parse_predicate(f"a > {n % 3}") for n in range(2000)]
        for last in ("a <= 0", "a <= -1", "b > 4"):
            pred = ast.Or((*flat, parse_predicate(last)))
            cases.append((pred, pred))
        distinct = ast.Or(tuple(parse_predicate(f"a != {n}") for n in range(2000)))
        cases.append((distinct, distinct))
        for pred, shallow in cases:
            try:
                got = _judged(TRUE, pred, ranges)
            except ParseError as err:
                assert str(err) == "expression nested too deeply"
            else:
                assert got == _expected(TRUE, shallow, ranges), format_predicate(shallow)
        nest = parse_predicate("a > 2")
        for n in range(2000):
            nest = ast.Or((parse_predicate(f"a > {n % 3}"), nest))
        with pytest.raises(ParseError) as excinfo:
            is_tautology(nest, dom)
        assert str(excinfo.value) == "expression nested too deeply"

    def test_the_table_leaves_no_garbage(self):
        """The table's walk and its program are plain lists: a settled
        implication and one the table gives up on leave nothing for the
        cycle collector."""
        dom = Domain.parse("a in -20..20, b in -20..20")
        tautology = parse_predicate("a > b || (a <= b && b > 0) || (b >= a && b <= 0)")
        wide = parse_predicate(" || ".join(f"a == {n}" for n in range(40)))
        gc.collect()
        gc.disable()
        try:
            assert is_tautology(tautology, dom).checked_points == 1681
            assert not is_tautology(wide, dom)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFaultFree:
    """ast.fault_free, the one rule for whether a predicate can fault over
    ranges (implies' static shortcut, and where's and loop_nest's placement
    of conjuncts), gives bruteforce's _bf_cannot_fault, and is sound: where
    it says True, bf_holds raises at no point of the ranges."""

    @staticmethod
    def _cases():
        """400 seeded faulting predicates over a and b, small ranges, four
        in ten with an exists conjunct whose floor may be negative."""
        rng = random.Random(3107)
        for _ in range(400):
            ranges = {}
            for name in ("a", "b"):
                lo = rng.randint(-3, 2)
                ranges[name] = (lo, lo + rng.randint(0, 4))
            text = predicate_text(rng, ("a", "b"), 3, ("a", "b"))
            if rng.random() < 0.4:
                lo, names = rng.randint(-2, 1), ("a", "b", "n")
                body = predicate_text(rng, names, 1, names)
                text = f"({text}) && (exists n in {lo}..{lo + rng.randint(0, 2)} : ({body}))"
            yield parse_predicate(text), ranges

    def test_random_predicates_and_exists_floors(self):
        seen = collections.Counter()
        for pred, ranges in self._cases():
            safe = ast.fault_free(pred, Domain.from_dict(ranges).ranges)
            assert safe == _bf_cannot_fault(pred, ranges), format_predicate(pred)
            seen[safe] += 1
            raised = False
            for values in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges.values())):
                try:
                    bf_holds(pred, dict(zip(ranges, values)))
                except ZeroDivisionError:
                    raised = True
            assert not (safe and raised), format_predicate(pred)
            seen["raised"] += raised
        assert min(seen[True], seen[False], seen["raised"]) >= 60, seen

    @pytest.mark.parametrize("bits, safe", [(2046, True), (2047, True), (2048, False), (2049, False)])
    def test_a_product_past_the_span_bits_is_unknown(self, bits, safe):
        """a * a has 2 * (bits + 1) bits at a's bounds: from bits 2048 on,
        past 4,096, its interval is not computed, so the divisor a * a + 1
        may be 0 for all the walk knows, and likewise for -a * a - 1."""
        for ranges in ({"a": (1, 2 ** bits), "b": (0, 3)}, {"a": (-2 ** bits, -1), "b": (-3, 0)}):
            for text in ("b / (a * a + 1) > 0", "b % (-(a * a) - 1) == 0 || b > 0"):
                pred = parse_predicate(text)
                assert ast.fault_free(pred, Domain.from_dict(ranges).ranges) is safe
                assert _bf_cannot_fault(pred, ranges) is safe


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


def _chain(kind, operands):
    """The kind node the parser builds for operands joined by its operator:
    a first operand of kind lends its operands, a later one stays nested,
    as `a || (b || c)` parses."""
    first, *rest = operands
    head = first.operands if isinstance(first, kind) else (first,)
    return kind((*head, *rest))


def _predicates():
    comparisons = st.builds(
        ast.Cmp, st.sampled_from(("==", "!=", "<", "<=", ">", ">=")), _exprs(), _exprs()
    )
    return st.recursive(
        comparisons,
        lambda sub: st.one_of(
            st.builds(_chain, st.just(ast.And), st.lists(sub, min_size=2, max_size=3)),
            st.builds(_chain, st.just(ast.Or), st.lists(sub, min_size=2, max_size=3)),
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
    assert eval_predicate(_chain(ast.And, [p, q]), s) == (eval_predicate(p, s) and eval_predicate(q, s))
    assert eval_predicate(_chain(ast.Or, [p, q]), s) == (eval_predicate(p, s) or eval_predicate(q, s))
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


def _renewed(value):
    """An equal tree of new nodes, of a predicate or contract, none of
    which keeps a fact."""
    if isinstance(value, Contract):
        return Contract(_renewed(value.pre), _renewed(value.post))
    renewed = parse_predicate(format_predicate(value))
    assert renewed == value
    return renewed


class TestPrepared:
    """The facts a predicate keeps (predicates: free, disjuncts, fault_free,
    closure) equal a fresh derivation from an equal tree of new nodes, for
    generated predicates (faulting ones included) and for unions of them,
    whichever facts were derived before the union was built."""

    FACTS = (predicates.free, predicates.disjuncts, predicates.closure)
    POINTS = [{"a": a, "b": b} for a in range(-2, 3) for b in range(-2, 3)]
    DOM = Domain.parse("a in -2..2, b in -2..2")

    def _assert_fresh(self, pred):
        new = _renewed(pred)
        assert predicates.free(pred) == free_vars(new)
        assert predicates.disjuncts(pred) == set(ast.flatten(new, ast.Or))
        assert predicates.fault_free(pred, self.DOM) == ast.fault_free(new, self.DOM.ranges)
        test, fresh = predicates.closure(pred), compile_bool(new)
        for point in self.POINTS:
            assert _outcome(test, dict(point)) == _outcome(fresh, dict(point))

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
                for pred in (contract.pre, contract.post):
                    for fact in self.FACTS:
                        if rng.random() < 0.3:
                            fact(pred)
                    if rng.random() < 0.3:
                        predicates.fault_free(pred, self.DOM)
            shape = rng.choice(("left", "right", "twice"))
            if shape == "left":
                combined = union_all(parts)
            elif shape == "right":
                combined = parts[-1]
                for contract in reversed(parts[:-1]):
                    combined = union(contract, combined)
            else:  # one contract twice: a part shared by both sides
                combined = union(parts[0], parts[0])
            for contract in (*parts, combined):
                for pred in (contract.pre, contract.post):
                    self._assert_fresh(pred)
            # the algebra over composed facts answers as over fresh ones
            plain = _renewed(combined)
            for contract in parts:
                composed = _outcome(subsumed_by, contract, combined, self.DOM)
                fresh = _outcome(subsumed_by, _renewed(contract), plain, self.DOM)
                assert composed == fresh
            assert _outcome(implies, ast.BoolLit(True), combined.pre, self.DOM) == (
                _outcome(is_tautology, plain.pre, self.DOM)
            )

    def test_a_long_union_needs_no_stack(self):
        """Facts of a union of 3,000 contracts whose parts derived none are
        derived in a loop, and its closure judges the parts' closures in a
        loop: not one frame per part, so checks over it get answers."""
        contracts = [Contract(parse_predicate(f"a == {n}"), TRUE) for n in range(3000)]
        combined = union_all(contracts)
        pre = combined.pre
        dom = Domain.parse("a in 2990..3009")
        assert predicates.free(pre) == {"a"}
        assert predicates.disjuncts(pre) == {c.pre for c in contracts}
        assert predicates.fault_free(pre, dom)
        test = predicates.closure(pre)
        assert (test({"a": 2999}), test({"a": 3000})) == (True, False)
        program = parse_program("proc f(in a, out o) { o := a; }")
        result = check(program, combined, dom)
        assert (result.verdict, result.checked_points) == ("verified", 10)

    def test_a_right_fold_composes_its_facts_without_recursion(self):
        """union(c1, union(c2, ...)) over 3,000 contracts nests its Or 3,000
        deep, past what a walk by recursion reaches: its facts compose its
        parts' in a loop, and its closure, the tautology check and a check
        over it answer."""
        contracts = [Contract(parse_predicate(f"a == {n}"), parse_predicate(f"o == {n}"))
                     for n in range(3000)]
        combined = contracts[-1]
        for contract in reversed(contracts[:-1]):
            combined = union(contract, combined)
        pre = combined.pre
        with pytest.raises(ParseError):
            free_vars(pre)
        dom = Domain.parse("a in 2990..3009")
        assert predicates.free(pre) == {"a"} and predicates.free(combined.post) == {"o"}
        assert predicates.disjuncts(pre) == {c.pre for c in contracts}
        assert predicates.fault_free(pre, dom)
        test = predicates.closure(pre)
        assert (test({"a": 2999}), test({"a": 3000})) == (True, False)
        result = is_tautology(pre, dom)
        assert (result.holds, result.witness, result.checked_points) == (False, {"a": 3000}, 11)
        program = parse_program("proc f(in a, out o) { o := a; }")
        result = check(program, combined, dom)
        assert (result.verdict, result.checked_points) == ("verified", 10)

    def test_a_second_request_returns_the_kept_fact(self, monkeypatch):
        """Each fact is derived once per node, or composed once per union,
        and every later request gets that very object."""
        walks = collections.Counter()
        real = ast.fault_free

        def fault_free(pred, ranges):
            walks[pred] += 1
            return real(pred, ranges)

        monkeypatch.setattr(ast, "fault_free", fault_free)
        first, second = parse_predicate("a > 0 || 10 / a > 1"), parse_predicate("b == 1")
        joined = predicates.either(first, second)
        positive = Domain.parse("a in 1..2, b in 0..0")
        for pred in (first, second, joined):
            for fact in self.FACTS:
                assert fact(pred) is fact(pred)
            for _ in range(2):
                assert predicates.fault_free(pred, self.DOM) == (pred is second)
                assert predicates.fault_free(pred, positive)
        # one walk per node and domain; the union composes its parts' facts
        assert walks == {first: 2, second: 2}

    def test_kept_facts_hold_no_reference_cycle(self):
        """A predicate's facts never hold the predicate, so what a replay
        or a union leaves behind is freed by reference counting, with no
        garbage left for the cycle collector."""
        gc.collect()
        gc.disable()
        try:
            pred = parse_predicate("a > 0 && 10 / a > 1")
            joined = predicates.either(pred, parse_predicate("b == 1 || a < 0"))
            for node in (pred, joined):
                for fact in self.FACTS:
                    fact(node)
                predicates.fault_free(node, self.DOM)
            del pred, joined, node
            replay(load_session(corpus_path("div.session")))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_every_public_function_answers_on_a_long_union(self):
        """Two equal but distinct unions of 3,000 contracts, each post an
        Or itself: printing and reparsing, free_vars, compile_bool,
        is_tautology, implies, hash, == and repr all answer."""

        def build():
            return union_all([Contract(parse_predicate(f"a == {n}"), parse_predicate(f"o == {n} || o < 0"))
                              for n in range(3000)])

        first, second = build(), build()
        assert first.pre is not second.pre and first.post is not second.post
        pre_text = " || ".join(f"a == {n}" for n in range(3000))
        post_text = " || ".join(["o == 0 || o < 0", *(f"(o == {n} || o < 0)" for n in range(1, 3000))])
        assert (format_predicate(first.pre), format_predicate(first.post)) == (pre_text, post_text)
        assert (parse_predicate(pre_text), parse_predicate(post_text)) == (first.pre, first.post)
        assert (free_vars(first.pre), free_vars(first.post)) == ({"a"}, {"o"})
        test = compile_bool(first.pre)
        assert (test({"a": 2999}), test({"a": 3000})) == (True, False)
        dom = Domain.parse("a in 2990..3009")
        result = is_tautology(first.pre, dom)
        assert (result.holds, result.witness, result.checked_points) == (False, {"a": 3000}, 11)
        assert implies(first.pre, second.pre, dom).checked_points == 0
        assert not implies(TRUE, second.pre, dom)
        assert hash(first.pre) == hash(second.pre) and hash(first) == hash(second)
        assert first.pre == second.pre and first == second
        assert repr(first) == repr(second)

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
