"""Contract algebra: instances, union, subsumption, classification."""

from __future__ import annotations

import collections
import random

import pytest

from tddslicer import (
    Contract,
    Domain,
    TestCase,
    classify_test,
    format_predicate,
    implies,
    is_instance,
    parse_predicate,
    subsumed_by,
    union,
)
from tddslicer import predicates
from tddslicer.contracts import NEW, REGRESSION, Classification, validate_scope

from generators import random_contract, random_predicate, random_test, union_all


def _outcome(fn, *args):
    """fn's value, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as err:
        return type(err), str(err)


def _max_test(a, b, expected_max, name="t"):
    return TestCase(name, {"a": a, "b": b}, {"max": expected_max})


class TestIsInstance:
    def test_first_max_test(self, max_contract_gt):
        assert is_instance(_max_test(2, 1, 2), max_contract_gt).holds

    def test_regression_for_negatives(self, max_contract_gt):
        assert is_instance(_max_test(-1, -2, -1), max_contract_gt).holds

    def test_pre_violation(self, max_contract_gt):
        result = is_instance(_max_test(3, 4, 3), max_contract_gt)
        assert not result.holds
        assert result.pre_holds is False
        assert "precondition" in result.explanation

    def test_post_violation_explained(self, max_contract_gt):
        result = is_instance(_max_test(2, 1, 99), max_contract_gt)
        assert not result.holds
        assert result.pre_holds is True and result.post_holds is False


class TestUnion:
    def test_paper_union_texts(self, max_contract_gt, max_contract_le):
        combined = union(max_contract_gt, max_contract_le)
        assert format_predicate(combined.pre) == "a > b || a <= b"
        assert (
            format_predicate(combined.post)
            == "(a > b && max == a) || (a <= b && max == b)"
        )

    def test_union_is_purely_syntactic(self, max_contract_gt):
        doubled = union(max_contract_gt, max_contract_gt)
        assert format_predicate(doubled.pre) == "a > b || a > b"

    def test_self_union_equivalent(self, max_contract_gt, dom_ab8):
        doubled = union(max_contract_gt, max_contract_gt)
        assert implies(doubled.pre, max_contract_gt.pre, dom_ab8).holds
        assert implies(max_contract_gt.pre, doubled.pre, dom_ab8).holds

    def test_false_is_identity_up_to_equivalence(self, max_contract_gt, dom_ab8):
        bottom = Contract(parse_predicate("FALSE"), parse_predicate("FALSE"))
        combined = union(bottom, max_contract_gt)
        assert implies(combined.pre, max_contract_gt.pre, dom_ab8).holds
        assert implies(max_contract_gt.pre, combined.pre, dom_ab8).holds

    def test_union_all_folds_left(self, max_contract_gt, max_contract_le):
        contracts = [max_contract_gt, max_contract_le, max_contract_gt]
        combined = union_all(contracts)
        assert format_predicate(combined.pre) == "a > b || a <= b || a > b"
        with pytest.raises(ValueError):
            union_all([])

    def test_instance_preserved_under_union(self, max_contract_gt, max_contract_le):
        test = _max_test(2, 1, 2)
        assert is_instance(test, union(max_contract_gt, max_contract_le)).holds
        assert is_instance(test, union(max_contract_le, max_contract_gt)).holds


class TestSubsumption:
    def test_first_contract_subsumed_by_union(self, max_contract_gt, max_contract_le, dom_ab8):
        combined = union(max_contract_gt, max_contract_le)
        assert subsumed_by(max_contract_gt, combined, dom_ab8).holds
        assert subsumed_by(max_contract_le, combined, dom_ab8).holds

    def test_reflexive(self, max_contract_gt, dom_ab8):
        assert subsumed_by(max_contract_gt, max_contract_gt, dom_ab8).holds

    def test_div_cycle1_subsumed_by_final_contract(self, dom_div):
        post = parse_predicate("0 <= r && r < y && x == y * q + r")
        first = Contract(parse_predicate("x == 2 && y == 2"), post)
        final = Contract(parse_predicate("TRUE"), post)
        result = subsumed_by(first, final, dom_div, {"q": (0, 16), "r": (0, 16)})
        assert result.holds

    def test_failure_carries_witness(self, dom_ab8):
        narrow = Contract(parse_predicate("TRUE"), parse_predicate("max == a"))
        wide = Contract(parse_predicate("a > b"), parse_predicate("max == a"))
        result = subsumed_by(narrow, wide, dom_ab8)
        assert not result.holds
        assert result.witness == {"a": -8, "b": -8}

    def test_out_params_default_to_widest_range(self, max_contract_gt, dom_ab8):
        result = subsumed_by(max_contract_gt, max_contract_gt, dom_ab8)
        assert ("max", -8, 8) in result.post_domain.ranges

    def test_preorder_transitivity_spot_check(self, dom_div):
        post = parse_predicate("0 <= r && r < y && x == y * q + r")
        c1 = Contract(parse_predicate("x == 2 && y == 2"), post)
        c2 = Contract(parse_predicate("(x == 2 || x == 4) && y == 2"), post)
        c3 = Contract(parse_predicate("TRUE"), post)
        ranges = {"q": (0, 16), "r": (0, 16)}
        assert subsumed_by(c1, c2, dom_div, ranges).holds
        assert subsumed_by(c2, c3, dom_div, ranges).holds
        assert subsumed_by(c1, c3, dom_div, ranges).holds


class TestClassify:
    def test_paper_regression(self, max_contract_gt):
        result = classify_test(_max_test(-1, -2, -1), [max_contract_gt])
        assert result.kind == REGRESSION
        assert result.matched_contract == 0

    def test_paper_new(self, max_contract_gt):
        result = classify_test(_max_test(3, 4, 4), [max_contract_gt])
        assert result.kind == NEW

    def test_empty_history_is_new(self):
        assert classify_test(_max_test(1, 0, 1), []).kind == NEW

    def test_union_only_instance_still_regression(self):
        # pre of the first contract holds, post of the second: only the
        # union admits the test, so there is no single matched index.
        c1 = Contract(parse_predicate("a > b"), parse_predicate("max == a"))
        c2 = Contract(parse_predicate("a < b"), parse_predicate("max == b"))
        test = _max_test(2, 1, 1)  # a>b holds; max equals b, not a
        result = classify_test(test, [c1, c2])
        assert result.kind == REGRESSION
        assert result.matched_contract is None

    def test_union_only_instance_judges_each_predicate_once(self, monkeypatch):
        """The union's pre is read from the instance checks' pre_holds and
        its post judges only the posts those checks did not: the first
        contract's pre and post, and the second's pre, are judged once."""
        calls = collections.Counter()
        compile_bool = predicates.compile_bool

        def counting(pred):
            test = compile_bool(pred)

            def counted(state):
                calls[format_predicate(pred)] += 1
                return test(state)

            return counted

        monkeypatch.setattr(predicates, "compile_bool", counting)
        c1 = Contract(parse_predicate("a > b"), parse_predicate("max == a"))
        c2 = Contract(parse_predicate("a < b"), parse_predicate("max == b"))
        result = classify_test(_max_test(2, 1, 1), [c1, c2])
        assert (result.kind, result.matched_contract) == (REGRESSION, None)
        assert calls == {"a > b": 1, "max == a": 1, "a < b": 1, "max == b": 1}

    def test_values_too_long_to_print_are_judged_not_printed(self):
        """An input past CPython's int-to-string limit: classify_test judges
        the closures and words nothing, and is_instance words such a value
        as predicates._state_text does."""
        big = 10 ** 5000
        test = _max_test(big, 0, big)
        below = Contract(parse_predicate("a < b"), parse_predicate("max == b"))
        above = Contract(parse_predicate("a > b"), parse_predicate("max == b"))
        assert classify_test(test, [below]) == Classification(NEW, None)
        assert classify_test(test, [below, above]) == Classification(NEW, None)
        assert is_instance(test, below).explanation == (
            "inputs {'a': too large to print, 'b': 0} do not satisfy the precondition"
        )
        assert is_instance(test, above).explanation == (
            "expected outputs {'max': too large to print} violate the postcondition"
        )
        assert is_instance(_max_test(3, 4, 3), below).explanation == (
            "expected outputs {'max': 3} violate the postcondition"
        )

    def test_declared_kind_compatibility(self, max_contract_gt):
        regression = classify_test(_max_test(-1, -2, -1), [max_contract_gt])
        assert regression.matches_declared("regression")
        assert regression.matches_declared("triangulation")
        assert not regression.matches_declared("new")
        assert regression.matches_declared(None)


class TestScope:
    def test_pre_must_only_read_in_params(self):
        contract = Contract(parse_predicate("max > 0"), parse_predicate("TRUE"))
        with pytest.raises(ValueError, match="precondition"):
            validate_scope(contract, frozenset({"a", "b"}), frozenset({"max"}))

    def test_post_may_read_params_not_locals(self):
        contract = Contract(parse_predicate("a > 0"), parse_predicate("t == 0"))
        with pytest.raises(ValueError, match="out-of-scope"):
            validate_scope(contract, frozenset({"a"}), frozenset({"o"}))


class TestAlgebraicProperties:
    def test_instance_preservation_random(self):
        rng = random.Random(101)
        preserved = 0
        for _ in range(300):
            test = random_test(rng)
            c1, c2 = random_contract(rng), random_contract(rng)
            if is_instance(test, c1).holds:
                preserved += 1
                assert is_instance(test, union(c1, c2)).holds
                assert is_instance(test, union(c2, c1)).holds
        assert preserved > 10  # the sample actually exercised the property

    def test_weakening_random(self):
        rng = random.Random(102)
        dom = Domain.parse("a in -3..3, b in -3..3")
        for _ in range(200):
            c1, c2 = random_contract(rng), random_contract(rng)
            combined = union(c1, c2)
            assert subsumed_by(c1, combined, dom).holds
            assert subsumed_by(c2, combined, dom).holds

    def test_classification_is_that_of_the_union(self):
        """classify_test judges the union of the history from each
        contract's own closures: the same kind, index or exception as
        judging each contract and then the union built by union_all,
        faulting predicates included."""
        rng = random.Random(103)
        kinds = set()
        for round_ in range(400):
            faults = round_ % 2 == 1
            history = [
                Contract(
                    random_predicate(rng, ("a", "b"), faults=faults),
                    random_predicate(rng, ("a", "b", "o"), faults=faults),
                )
                for _ in range(rng.randint(1, 4))
            ]
            test = random_test(rng, span=2)

            def reference():
                for index, contract in enumerate(history):
                    if is_instance(test, contract).holds:
                        return Classification(REGRESSION, index)
                if is_instance(test, union_all(history)).holds:
                    return Classification(REGRESSION, None)
                return Classification(NEW, None)

            got = _outcome(classify_test, test, history)
            assert got == _outcome(reference)
            kinds.add(got if isinstance(got, tuple) else (got.kind, got.matched_contract is None))
        # each way out was taken: a match, the union alone, new, a fault
        assert {(REGRESSION, False), (REGRESSION, True), (NEW, True)} <= kinds
        assert any(isinstance(kind[0], type) for kind in kinds)
