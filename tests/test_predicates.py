"""Predicate parsing, evaluation, and bounded logical queries."""

from __future__ import annotations

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

from bruteforce import bf_holds
from generators import random_contract, random_predicate


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

    def test_irrelevant_variables_fixed_at_floor(self):
        dom = Domain.parse("a in -5..5, z in -9..9")
        result = implies(parse_predicate("TRUE"), parse_predicate("a > 0"), dom)
        assert result.witness == {"a": -5, "z": -9}

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
