"""Deletion units, deletion application, the slice relation, and slicing."""

from __future__ import annotations

import random

import pytest

from tddslicer import (
    Contract,
    Domain,
    apply_deletion,
    check,
    check_projection,
    deletable_units,
    is_slice_of,
    parse_predicate,
    parse_program,
    pretty_print,
)
from tddslicer import slice as compute_slice
from tddslicer.lang.ast import same_shape
from tddslicer.lang.interp import TrajectoryEntry
from tddslicer.slicer import (
    ELSE_CLAUSE,
    GREEDY,
    STATEMENT,
    DeletionUnit,
    ExhaustiveCapError,
    OriginalNotVerifiedError,
    VacuousContractError,
)

from generators import random_contract, random_program

dom5 = Domain.parse("a in -2..2, b in -2..2")


def stmt(anchor):
    return DeletionUnit(STATEMENT, anchor)


def else_clause(anchor):
    return DeletionUnit(ELSE_CLAUSE, anchor)


class TestDeletableUnits:
    def test_div_oracle_has_six(self, div_oracle):
        units = deletable_units(div_oracle)
        assert units == [stmt(i) for i in range(1, 7)]

    def test_two_sided_max_order(self, max2):
        assert deletable_units(max2) == [stmt(1), stmt(2), stmt(3), else_clause(1)]

    def test_empty_body(self):
        assert deletable_units(parse_program("proc f(in x, out y){ }")) == []


class TestApplyDeletion:
    def test_else_clause_removal_gives_listing_slice(self, max2, max2_slice):
        sliced = apply_deletion(max2, {else_clause(1)})
        assert same_shape(sliced, max2_slice)
        assert [s.stmt_id for s in sliced.statements()] == [1, 2]  # ids preserved

    def test_empty_deletion_is_identity(self, max2):
        assert apply_deletion(max2, set()) == max2

    def test_deleting_everything_leaves_empty_body(self, max2):
        emptied = apply_deletion(max2, set(deletable_units(max2)))
        assert emptied.body.stmts == ()
        assert emptied.params == max2.params

    def test_nested_unit_deletion_is_noop(self, div_oracle):
        with_loop = apply_deletion(div_oracle, {stmt(3)})
        also_inner = apply_deletion(div_oracle, {stmt(3), stmt(4), stmt(5)})
        assert with_loop == also_inner

    def test_ids_keep_gaps(self, div_oracle):
        sliced = apply_deletion(div_oracle, {stmt(2)})
        assert [s.stmt_id for s in sliced.statements()] == [1, 3, 4, 5, 6]

    def test_unknown_unit_rejected(self, max2):
        with pytest.raises(ValueError, match="not present"):
            apply_deletion(max2, {stmt(99)})
        with pytest.raises(ValueError, match="not present"):
            apply_deletion(max2, {else_clause(2)})


class TestIsSliceOf:
    def test_listing_slice_relation(self, max2, max2_slice):
        relation = is_slice_of(max2_slice, max2)
        assert relation.is_slice
        assert else_clause(1) in relation.deleted
        assert same_shape(apply_deletion(max2, relation.deleted), max2_slice)

    def test_program_is_slice_of_itself(self, max2):
        relation = is_slice_of(max2, max2)
        assert relation.is_slice
        assert relation.deleted == frozenset()

    def test_renamed_variable_is_not_a_slice(self, max2):
        renamed = parse_program(
            "proc max2(in a, in b, out max) { if (a > b) { max := b; } }"
        )
        assert not is_slice_of(renamed, max2).is_slice

    def test_signature_must_match(self, max2):
        other = parse_program("proc other(in a, in b, out max) { if (a > b) { max := a; } }")
        assert not is_slice_of(other, max2).is_slice
        assert is_slice_of(other, max2, allow_renamed=True).is_slice

    def test_backtracking_over_similar_ifs(self):
        original = parse_program(
            "proc f(in a, out o) {"
            " if (a > 0) { o := 1; }"
            " if (a > 0) { o := 1; o := 2; }"
            "}"
        )
        candidate = parse_program(
            "proc f(in a, out o) { if (a > 0) { o := 1; o := 2; } }"
        )
        relation = is_slice_of(candidate, original)
        assert relation.is_slice
        assert same_shape(apply_deletion(original, relation.deleted), candidate)

    def test_random_deletions_are_recognized(self):
        rng = random.Random(77)
        for _ in range(60):
            program = random_program(rng, max_stmts=7, allow_while=True)
            units = deletable_units(program)
            chosen = frozenset(u for u in units if rng.random() < 0.4)
            sliced = apply_deletion(program, chosen)
            relation = is_slice_of(sliced, program)
            assert relation.is_slice
            assert same_shape(apply_deletion(program, relation.deleted), sliced)


class TestSlice:
    def test_max_precondition_slice_is_listing(self, max2, max2_slice, max_contract_gt, dom_ab8):
        result = compute_slice(max2, max_contract_gt, dom_ab8)
        assert result.minimal
        assert result.program == max2_slice  # exact AST match, ids included
        assert result.retained == frozenset({stmt(1), stmt(2)})
        assert result.verification.verified

    def test_max_else_contract_keeps_if_with_empty_then(self, max2, max_contract_le, dom_ab8):
        result = compute_slice(max2, max_contract_le, dom_ab8)
        # Deletion cannot hoist the else-assign out of the If, so the
        # minimum keeps if + else-assign + the else clause itself.
        assert result.retained == frozenset({stmt(1), stmt(3), else_clause(1)})
        expected = parse_program(
            "proc max2(in a, in b, out max) { if (a > b) { } else { max := b; } }"
        )
        assert same_shape(result.program, expected)

    def test_div_oracle_slice_drops_only_dead_initializer(self, div_oracle, dom_div):
        # Out-params start at 0, so `q := 0` is the one deletable statement;
        # everything else is load-bearing for the division postcondition.
        contract = Contract(
            parse_predicate("TRUE"),
            parse_predicate("0 <= r && r < y && x == y * q + r"),
        )
        result = compute_slice(div_oracle, contract, dom_div)
        assert result.deleted == frozenset({stmt(2)})
        assert result.retained == frozenset(deletable_units(div_oracle)) - {stmt(2)}
        assert result.verification.verified

    def test_slice_program_equals_apply_deletion_of_complement(self, max2, max_contract_gt, dom_ab8):
        result = compute_slice(max2, max_contract_gt, dom_ab8)
        complement = frozenset(deletable_units(max2)) - result.retained
        assert result.program == apply_deletion(max2, complement)

    def test_greedy_result_always_verifies(self, max2, max_contract_gt, dom_ab8):
        result = compute_slice(max2, max_contract_gt, dom_ab8, strategy=GREEDY)
        assert not result.minimal
        assert result.verification.verified
        assert result.retained == frozenset({stmt(1), stmt(2)})

    def test_original_must_verify(self, max2, dom_ab8):
        wrong = Contract(parse_predicate("a > b"), parse_predicate("max == b"))
        with pytest.raises(OriginalNotVerifiedError):
            compute_slice(max2, wrong, dom_ab8)

    def test_vacuous_contract_refused(self, max2, dom_ab8):
        empty = Contract(parse_predicate("FALSE"), parse_predicate("TRUE"))
        with pytest.raises(VacuousContractError):
            compute_slice(max2, empty, dom_ab8)

    def test_exhaustive_cap(self):
        body = " ".join(f"o := {i};" for i in range(17))
        program = parse_program(f"proc f(in a, in b, out o) {{ {body} }}")
        contract = Contract(parse_predicate("TRUE"), parse_predicate("TRUE"))
        with pytest.raises(ExhaustiveCapError, match="greedy"):
            compute_slice(program, contract, dom5)
        greedy = compute_slice(program, contract, dom5, strategy=GREEDY)
        assert greedy.verification.verified
        assert greedy.program.body.stmts == ()

    def test_nothing_deletable_still_succeeds(self):
        program = parse_program("proc f(in a, in b, out o) { o := a + b; }")
        contract = Contract(parse_predicate("TRUE"), parse_predicate("o == a + b"))
        result = compute_slice(program, contract, dom5)
        assert result.retained == frozenset({stmt(1)})

    def test_greedy_never_beats_exhaustive(self):
        rng = random.Random(505)
        compared = 0
        for _ in range(25):
            program = random_program(rng, max_stmts=6)
            contract = random_contract(rng)
            base = check(program, contract, dom5)
            if base.verdict != "verified":
                continue
            compared += 1
            exhaustive = compute_slice(program, contract, dom5)
            greedy = compute_slice(program, contract, dom5, strategy=GREEDY)
            assert len(greedy.retained) >= len(exhaustive.retained)
            assert greedy.verification.verified
            assert exhaustive.verification.verified
            assert is_slice_of(exhaustive.program, program).is_slice
        assert compared > 3


class TestCheckProjection:
    def test_inside_precondition_projections_agree(self, max2, max2_slice):
        result = check_projection(max2, max2_slice, {"a": 2, "b": 1}, {"max"})
        assert result.equal
        assert result.original_projection == (TrajectoryEntry(2, "max", 2),)

    def test_outside_precondition_projections_differ(self, max2, max2_slice):
        result = check_projection(max2, max2_slice, {"a": 1, "b": 2}, {"max"})
        assert not result.equal
        assert result.sliced_projection == ()
        assert result.original_projection == (TrajectoryEntry(3, "max", 2),)

    def test_program_against_itself(self, div_oracle):
        result = check_projection(div_oracle, div_oracle, {"x": 9, "y": 3})
        assert result.equal

    def test_requires_slice_relation(self, max2):
        unrelated = parse_program("proc max2(in a, in b, out max) { max := a + b; }")
        with pytest.raises(ValueError, match="not a deletion-derived slice"):
            check_projection(max2, unrelated, {"a": 0, "b": 0})


def test_present_units_after_deletion(max2):
    sliced = apply_deletion(max2, {else_clause(1)})
    assert deletable_units(sliced) == [stmt(1), stmt(2)]
