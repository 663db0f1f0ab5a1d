"""Predicate parsing, evaluation, and bounded logical queries."""

from __future__ import annotations

import collections
import itertools
import random

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
)
from tddslicer.lang import ast
from tddslicer.predicates import TRUE, ImplicationResult

from bruteforce import bf_holds, bf_implies
from generators import random_contract, random_predicate


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

    def test_rows_are_the_points_a_row_at_a_time(self):
        """rows() gives the points of points(), in order, as (prefix, values):
        prefix binds every variable in name order, the row variable (the
        last with more than one value, else the last) to values[0], and
        values is a range of at most ROW_WIDTH values of it."""
        rng = random.Random(6174)
        for _ in range(200):
            ranges = {}
            for name in rng.sample("abcd", rng.randint(1, 3)):
                lo = rng.randint(-3, 3)
                ranges[name] = (lo, lo + rng.choice((0, 0, 1, 3)))
            dom = Domain.from_dict(ranges)
            names = sorted(ranges)
            wide = [name for name in names if ranges[name][0] < ranges[name][1]]
            assert dom.row == (wide or names)[-1]
            flat = []
            for prefix, values in dom.rows():
                assert list(prefix) == names
                assert prefix[dom.row] == values.start
                flat += [{**prefix, dom.row: value} for value in values]
            assert flat == list(dom.points())
        # rows start at 16 values and double up to 1,024
        dom = Domain.parse("a in 0..1, b in 0..2999, c in 5..5")
        assert dom.row == "b"
        rows = list(dom.rows())
        assert [values for _, values in rows] == [
            range(0, 16), range(16, 48), range(48, 112), range(112, 240), range(240, 496),
            range(496, 1008), range(1008, 2032), range(2032, 3000),
            range(0, 1024), range(1024, 2048), range(2048, 3000),
        ]
        assert [prefix["a"] for prefix, _ in rows] == [0] * 8 + [1] * 3
        assert rows[9][0] == {"a": 1, "b": 1024, "c": 5}
        assert list(Domain(()).rows()) == [({}, range(1))] and Domain(()).row is None

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
        """implies judges a row of points at a time; bf_implies judges one
        point after another. They agree in every field (verdict, witness
        with its key order, checked_points, the first fault's assignment
        and reason) on 480 seeded cases: 1 to 3 variables with innermost
        widths 1 and 2, exists binding the row variable, faulting
        predicates and a variable neither side reads."""
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
        """A range wider than one row is judged in pieces, in order: the
        witness and the first fault, past the first piece, are those of
        judging each point in turn."""
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
        checks answer through the shortcut (no point checked; it needs
        c1.post to be one disjunct of the union, not an Or); the converse
        never may, and it fails often enough to catch a shortcut that
        fires where it should not."""
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
