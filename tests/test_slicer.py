"""Deletion units, deletion application, the slice relation, and slicing."""

from __future__ import annotations

import gc
import hashlib
import random

import pytest

from tddslicer import (
    Contract,
    Domain,
    ParseError,
    apply_deletion,
    check,
    deletable_units,
    parse_predicate,
    parse_program,
    pretty_print,
)
from tddslicer import slice as compute_slice
from tddslicer import slicer, verifier
from tddslicer.cli import main
from tddslicer.corpus import corpus_path
from tddslicer.lang import ast, interp
from tddslicer.lang.ast import same_shape
from tddslicer.lang.interp import (
    BUDGET_EXCEEDED,
    FAULT,
    OK,
    RunResult,
    TrajectoryEntry,
    run,
    runner,
)
from tddslicer.slicer import (
    ELSE_CLAUSE,
    EXHAUSTIVE,
    GREEDY,
    STATEMENT,
    DeletionUnit,
    ExhaustiveCapError,
    OriginalNotVerifiedError,
    VacuousContractError,
)

from bruteforce import bf_check, bf_delete, bf_holds, bf_run, bf_slice, bf_units
from generators import comparison, linear_expr, random_contract, random_kept, random_program
from slices import check_projection, is_slice_of

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

    def test_matches_an_independent_deletion(self):
        """apply_deletion against bf_delete, ids included: each unit alone,
        then random sets of units, on programs where else blocks hold ifs
        and loops."""
        rng = random.Random(2357)
        compound = (ast.If, ast.While)
        nested_elses = 0
        for index in range(200):
            program = random_program(rng, max_stmts=rng.randint(4, 14), allow_while=True,
                                     faults=index % 2 == 0)
            units = deletable_units(program)
            chosen = [{unit} for unit in units]
            chosen += [{unit for unit in units if rng.random() < p} for p in (0.2, 0.5, 0.8)]
            for deleted in chosen:
                assert apply_deletion(program, deleted) == bf_delete(program, deleted), deleted
            nested_elses += sum(
                any(isinstance(inner, compound) for inner in s.orelse.stmts)
                for s in program.statements() if isinstance(s, ast.If)
            )
        assert nested_elses >= 15, nested_elses

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

    def test_unknown_strategy_refused_before_judging(self, max2, dom_ab8, monkeypatch):
        """The strategy is refused first: even a contract the program fails
        gives the ValueError, and nothing is judged."""
        checks = []
        monkeypatch.setattr(verifier.Judge, "check", lambda judge: checks.append(judge))
        for post in ("a > b && max == a", "max == b"):
            contract = Contract(parse_predicate("a > b"), parse_predicate(post))
            with pytest.raises(ValueError, match="^unknown strategy 'bogus'$"):
                compute_slice(max2, contract, dom_ab8, strategy="bogus")
        assert checks == []

    def test_vacuous_contract_refused(self, max2, dom_ab8):
        empty = Contract(parse_predicate("FALSE"), parse_predicate("TRUE"))
        with pytest.raises(VacuousContractError):
            compute_slice(max2, empty, dom_ab8)

    def test_exhaustive_cap(self):
        """17 units, every one an assignment to o, which the postcondition
        reads: all 17 count against the cap of 16."""
        body = " ".join(f"o := {i};" for i in range(17))
        program = parse_program(f"proc f(in a, in b, out o) {{ {body} }}")
        contract = Contract(parse_predicate("TRUE"), parse_predicate("o == 16"))
        with pytest.raises(ExhaustiveCapError, match="^17 deletable units .* use the greedy strategy$"):
            compute_slice(program, contract, dom5)
        greedy = compute_slice(program, contract, dom5, strategy=GREEDY)
        assert greedy.verification.verified
        assert greedy.retained == frozenset({stmt(17)})

    def test_exhaustive_cap_counts_else_clauses(self):
        """Four if/else assigning o and one increment: 13 statements and
        4 else clauses, all 17 units relevant."""
        body = " ".join(f"if (a > {i}) {{ o := {i}; }} else {{ o := b; }}" for i in range(4))
        program = parse_program(f"proc f(in a, in b, out o) {{ {body} o := o + 1; }}")
        assert len(program.statements()) == 13 and len(deletable_units(program)) == 17
        contract = Contract(parse_predicate("TRUE"), parse_predicate("o <= 4"))
        with pytest.raises(ExhaustiveCapError, match="^17 deletable units "):
            compute_slice(program, contract, dom5)
        assert compute_slice(program, contract, dom5, strategy=GREEDY).verification.verified

    def test_exhaustive_cap_counts_only_units_the_postcondition_can_depend_on(self):
        """The same 17 units under post TRUE: none is relevant, so the
        exhaustive search runs and returns the empty slice."""
        body = " ".join(f"o := {i};" for i in range(17))
        program = parse_program(f"proc f(in a, in b, out o) {{ {body} }}")
        contract = Contract(parse_predicate("TRUE"), parse_predicate("TRUE"))
        result = compute_slice(program, contract, dom5)
        assert result.program.body.stmts == ()
        assert result.retained == frozenset()
        assert result.minimal is True
        assert result.verification.verified

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


PADDED_DIV = """\
proc div(in x, in y, out q, out r) {
    var t;
    var d;
    t := x;
    d := x * 3;
    q := 0;
    if (t >= y) {
        t := t - y;
        skip;
        q := q + 1;
    }
    r := t;
    d := d - y;
}
"""

PADDED_MAX = """\
proc max2(in a, in b, out max) {
    var d;
    if (a > b) {
        d := a * 7;
        d := d + 6;
        max := a;
    } else {
        skip;
        max := b;
    }
    d := a * 3;
    d := d + 4;
}
"""

DIV_SPEC = "0 <= r && r < y && x == y * q + r"

#: (program, pre, post, domain) of each golden slice
GOLDEN_CASES = {
    "div_oracle": ("div_oracle.prog", "x >= 0 && y > 0", DIV_SPEC, "x in 0..16, y in 1..9"),
    "max2": ("max2.prog", "a > b", "a > b && max == a", "a in -8..8, b in -8..8"),
    "padded_div": (PADDED_DIV, "x < 2 * y", DIV_SPEC, "x in 0..8, y in 1..4"),
    "padded_max": (
        PADDED_MAX, "TRUE", "max >= a && max >= b && (max == a || max == b)",
        "a in -4..4, b in -4..4",
    ),
}

#: SHA-256 of `tddslicer slice ... --format machine` (exit 0 each), captured
#: before the lazy candidate search replaced the eager one
SLICE_GOLDENS = {
    ("div_oracle", "exhaustive"): "699ea2b91d0cea11e819db43592fd5cfd508959bdecf267203039f896bfcee68",
    ("div_oracle", "greedy"): "1c308f8dc5334a495f3bdf93b3871beed502231a9e22aca65fb75db99e9729f7",
    ("max2", "exhaustive"): "3032b24bb92b0511195a5d6aedff37c3a9c1d82ff6aa678e7e3410ce0a54fa1e",
    ("max2", "greedy"): "3fc4a07190b27adb42e397af8aa655602fcf713ecb3a2c9d5263b87d887e47e2",
    ("padded_div", "exhaustive"): "67e0018aadf0659637d8ba78911f20ff5ca8805ad33d3d294b5b89a41730a7d6",
    ("padded_div", "greedy"): "732adc63c6014f99bb6d202038e873c7e1dc03af40e84b54d230f8454fe0081b",
    ("padded_max", "exhaustive"): "0e75a115d4d0dcf23e231824f6cf997651af804b005afeab89b54bec33f5054d",
    ("padded_max", "greedy"): "0b1cc41e3d547df25a26a692316626728972ff97663bdf5bd6d1e04c06b7c635",
}


@pytest.mark.parametrize("case, strategy", sorted(SLICE_GOLDENS))
def test_slice_machine_output_is_golden(case, strategy, capsys, tmp_path):
    source, pre, post, dom = GOLDEN_CASES[case]
    if source.endswith(".prog"):
        path = corpus_path(source)
    else:
        path = tmp_path / f"{case}.prog"
        path.write_text(source)
    code = main([
        "slice", str(path), "--pre", pre, "--post", post, "--domain", dom,
        "--strategy", strategy, "--format", "machine",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SLICE_GOLDENS[case, strategy]


def test_div_oracle_exhaustive_run_count(div_oracle, dom_div, verifier_runs, monkeypatch):
    """The exhaustive slice of div_oracle runs a program 368 times: once per
    point of the original's check, and for each later candidate, once per
    input at which an earlier candidate failed, up to the first it fails,
    plus a scan from the first point for those that pass them all. Every
    candidate scanned from the first point took 678 runs. The gate raised
    keeps the 153-point scans off the loop nest, which makes no runs."""
    monkeypatch.setattr(interp, "NEST_FROM_POINTS", 10**18)
    _, pre, post, _ = GOLDEN_CASES["div_oracle"]
    contract = Contract(parse_predicate(pre), parse_predicate(post))
    result = compute_slice(div_oracle, contract, dom_div)
    assert result.deleted == frozenset({stmt(2)})
    assert len(verifier_runs) == 368


ORACLE_RANGES = {"a": (-2, 2), "b": (-2, 2)}


def _observed_contract(rng, program, budget, pre=None, exact=False):
    """A contract the program meets: pre (a random comparison or TRUE if
    not given) and, as the postcondition, the outputs the program gives
    where pre holds, each tied to its inputs if exact; None if no point
    satisfies pre or the program does not end normally on one."""
    if pre is None:
        pre = parse_predicate(rng.choice(("TRUE", comparison(rng, ("a", "b")))))
    outputs = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            if not bf_holds(pre, {"a": a, "b": b}):
                continue
            status, _, _, _, final, _ = bf_run(program, {"a": a, "b": b}, budget)
            if status != "ok":
                return None
            outputs.add(f"(a == {a} && b == {b} && o == {final['o']})" if exact else f"o == {final['o']}")
    if not outputs:
        return None
    return Contract(pre, parse_predicate(" || ".join(sorted(outputs))))


#: the kinds of oracle case, in turn: unrestricted, with a loop, with an
#: if or loop inside an if or loop, with an expression that can fault, an
#: if/else whose condition is the precondition (so the whole else block is
#: dead), one if/else written three ways, and with a step budget of at most 6
ORACLE_KINDS = ("any", "while", "nested", "faults", "dead else", "ties", "small budget")


def _nested(program):
    """Whether an if or a loop sits inside an if or a loop."""
    compound = (ast.If, ast.While)
    return any(
        isinstance(inner, compound)
        for outer in program.statements() if isinstance(outer, compound)
        for block in ((outer.then, outer.orelse) if isinstance(outer, ast.If) else (outer.body,))
        for inner in block.stmts
    )


def _if_else_program(rng):
    """if (c) { o := ...; ... } else { o := ...; ... } over a and b."""

    def block():
        return " ".join(f"o := {linear_expr(rng, ('a', 'b', 'o'))};" for _ in range(rng.randint(1, 3)))

    return parse_program(
        f"proc f(in a, in b, out o) {{ if ({comparison(rng, ('a', 'b'))}) {{ {block()} }}"
        f" else {{ {block()} }} }}"
    )


def _same_if_three_ways(rng):
    """One if/else over a and b written as an if/else and as two ifs with
    opposite conditions, in random order: equal-sized slices tie, and
    whether the else clause counts as a unit decides between them."""
    cond = comparison(rng, ("a", "b"))

    def block():
        return " ".join(f"o := {linear_expr(rng, ('a', 'b'))};" for _ in range(rng.randint(1, 2)))

    then, orelse = block(), block()
    parts = [f"if ({cond}) {{ {then} }} else {{ {orelse} }}", f"if ({cond}) {{ {then} }}",
             f"if (!({cond})) {{ {orelse} }}"]
    rng.shuffle(parts)
    return parse_program(f"proc f(in a, in b, out o) {{ {' '.join(parts)} }}")


def _oracle_program(rng, kind):
    """A program of the given kind with at most 9 deletable units, or None."""
    if kind == "dead else":
        return _if_else_program(rng)
    if kind == "ties":
        program = _same_if_three_ways(rng)
    else:
        program = random_program(
            rng, max_stmts=rng.randint(2, 8), allow_while=kind in ("any", "while", "nested"),
            faults=kind == "faults" or (kind == "any" and rng.random() < 0.3),
        )
    if len(bf_units(program)) > 9:
        return None
    if kind == "while" and not any(isinstance(s, ast.While) for s in program.statements()):
        return None
    if kind == "faults" and not any(op in pretty_print(program) for op in "/%^"):
        return None
    if kind == "nested" and not _nested(program):
        return None
    return program


def _oracle_case(rng, kind):
    """(program, contract, budget) of the given kind, the original
    verifying by bf_check."""
    while True:
        program = _oracle_program(rng, kind)
        if program is None:
            continue
        budget = rng.choice((2, 3, 4, 6) if kind == "small budget" else (10, 50, 10_000))
        if kind == "any" and rng.random() < 0.4:
            contract = random_contract(rng)
        else:
            pre = program.body.stmts[0].cond if kind == "dead else" else None
            exact = kind in ("dead else", "ties") or rng.random() < 0.5
            contract = _observed_contract(rng, program, budget, pre, exact)
        if contract is None:
            continue
        if bf_check(program, contract.pre, contract.post, ORACLE_RANGES, budget)[0] == "verified":
            return program, contract, budget


def test_both_strategies_match_the_reference_search():
    """Every SliceResult field of both strategies equals the reference
    copy of the eager searches in bruteforce.py, judged by bf_check."""
    rng = random.Random(5150)
    dom = Domain.from_dict(ORACLE_RANGES)
    dead_else_dropped = 0
    for index in range(160):
        kind = ORACLE_KINDS[index % len(ORACLE_KINDS)]
        program, contract, budget = _oracle_case(rng, kind)
        for strategy in (EXHAUSTIVE, GREEDY):
            result = compute_slice(program, contract, dom, strategy=strategy, step_budget=budget)
            expected = bf_slice(program, contract.pre, contract.post, ORACLE_RANGES, budget, strategy)
            assert result.retained == expected["retained"]
            assert result.deleted == expected["deleted"]
            assert result.program == expected["program"]  # ids included
            assert result.minimal == expected["minimal"]
            assert result.strategy == expected["strategy"]
            assert result.verification.to_dict() == {
                "verdict": "verified", "witness": None,
                "checked_points": expected["checked_points"], "domain": str(dom),
            }
            if strategy == EXHAUSTIVE and kind == "dead else":
                kept = result.program.body.stmts
                dead_else_dropped += bool(kept) and isinstance(kept[0], ast.If) and not kept[0].orelse.stmts
    # deleting every else statement and deleting the else clause give the
    # same program: the reference must agree on which slice wins
    assert dead_else_dropped >= 10


#: o := a, then 15 increments: only the whole program meets o == a + 15,
#: so the exhaustive search rejects every one of the 65,535 other
#: candidates, the worst case the exhaustive cap allows
ALL_FAIL = "proc f(in a, out o) { o := a; " + "o := o + 1; " * 15 + "}\n"

#: (verifier runs, SHA-256 of `tddslicer slice ... --format machine`) of
#: each strategy on ALL_FAIL, captured while every candidate was still
#: built and compiled as a program of its own
ALL_FAIL_PINS = {
    EXHAUSTIVE: (65_562, "65fd2a7220cbf9593d17be0c4d7a0147b35a699a2a9168048d23f05ea5e964b4"),
    GREEDY: (43, "aa6df15eb7dce3212b1097e20c5c57affec45c9f4f0ffa2ee25924ab5d5b4433"),
}


#: five sequential one-statement if/else, 3,125 candidates when all 20
#: units are kept in play; d is dead, so under a postcondition on o eight
#: units are relevant (the program of CI's five-if/else slice)
FIVE_IF_ELSE = (
    "proc f(in a, in b, out o) { var d;"
    " if (a > b) { d := a; } else { d := b; }"
    " if (a > 0) { o := a; } else { o := 0 - a; }"
    " if (d > 0) { d := d - 1; } else { d := 0; }"
    " if (b > 0) { o := o + b; } else { o := o - b; }"
    " if (o > 3) { d := o; } else { skip; } }\n"
)

#: an else block holding an if/else and a while, then more statements
ELSE_NESTED = (
    "proc g(in a, in b, out o) { var w;"
    " if (a > b) { o := a; } else {"
    " if (b > 0) { o := b; } else { w := b; }"
    " while (w < 2) { w := w + 1; o := o + w; } o := o + 1; }"
    " w := o; }\n"
)


@pytest.mark.parametrize("strategy", sorted(ALL_FAIL_PINS))
def test_all_fail_slice_runs_and_output_are_pinned(strategy, capsys, tmp_path, verifier_runs):
    path = tmp_path / "f.prog"
    path.write_text(ALL_FAIL)
    code = main([
        "slice", str(path), "--pre", "TRUE", "--post", "o == a + 15", "--domain", "a in 0..24",
        "--strategy", strategy, "--format", "machine",
    ])
    out = capsys.readouterr().out
    assert code == 0
    runs, digest = ALL_FAIL_PINS[strategy]
    assert len(verifier_runs) == runs
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_kept_set_run_equals_run_of_the_built_program():
    """runner(p, budget, kept=K), the scans' per-run core, recorded and
    not, gives run of p with every statement outside K deleted, field by
    field, including the key order of the final state; kept-sets of one
    program come and go in any order."""
    rng = random.Random(4711)
    statuses = {OK: 0, FAULT: 0, BUDGET_EXCEEDED: 0}
    for _ in range(240):
        program = random_program(rng, max_stmts=rng.randint(1, 10), allow_while=True, faults=True)
        kept_sets = [frozenset(random_kept(rng, program.body, rng.random())) for _ in range(3)]
        for _ in range(6):
            kept = rng.choice(kept_sets)
            if rng.random() < 0.3:
                kept = frozenset(sorted(kept))  # an equal set that is another object
            built = slicer._build(program, kept)
            inputs = {"a": rng.randint(-3, 3), "b": rng.randint(-3, 3)}
            budget = rng.randint(1, 400)
            recorded = run(built, inputs, budget)
            for record in (True, False):
                got = RunResult(*runner(program, budget, record=record, kept=kept)(inputs))
                expected = recorded if record else RunResult(
                    recorded.status, recorded.final, (), recorded.steps,
                    recorded.fault_stmt_id, recorded.fault_reason)
                assert got == expected, pretty_print(built)
                assert list(got.final) == list(expected.final)
                statuses[got.status] += 1
    assert min(statuses.values()) >= 30, statuses


def _eager_retainable(block):
    """Every set of block's statements a deletion can leave, as (retained
    units, retained statement ids in pre-order), all at once and unsorted:
    the reference for the streamed enumeration."""
    sets = [(0, ())]
    for stmt in block.stmts:
        if isinstance(stmt, ast.If):
            # the else clause is a retained unit when an else statement is
            elses = [(n + bool(ids), ids) for n, ids in _eager_retainable(stmt.orelse)]
            kept = [
                (1 + n + m, (stmt.stmt_id, *ids, *more))
                for n, ids in _eager_retainable(stmt.then)
                for m, more in elses
            ]
        elif isinstance(stmt, ast.While):
            kept = [(1 + n, (stmt.stmt_id, *ids)) for n, ids in _eager_retainable(stmt.body)]
        else:
            kept = [(1, (stmt.stmt_id,))]
        sets += [(n + m, ids + more) for n, ids in sets for m, more in kept]
    return sets


def _retainable(block, relevant):
    """slicer._retainable's candidates among the statements of block in
    relevant: their table counts a unit per statement and per else block
    that holds one."""
    table = slicer._preorder(block, relevant)
    return list(slicer._retainable(table, len(table) + len({owner for _, _, owner in table} - {-1})))


def test_streamed_candidates_come_in_sorted_order():
    rng = random.Random(9)
    shapes = (PADDED_DIV, PADDED_MAX, ALL_FAIL, FIVE_IF_ELSE, ELSE_NESTED)
    programs = [parse_program(source) for source in shapes]
    programs += [
        random_program(rng, max_stmts=rng.randint(4, 14), allow_while=True, faults=index % 2 == 0)
        for index in range(200)
    ]
    assert sum(map(_nested, programs)) >= 30
    for program in programs:
        everything = frozenset(s.stmt_id for s in program.statements())
        assert _retainable(program.body, everything) == sorted(_eager_retainable(program.body))


def test_all_fail_slice_compiles_each_statement_once_and_builds_once(monkeypatch):
    compiled, built = [], []
    real_compile, real_build = interp._compile_stmt, slicer._build

    def counting_compile(stmt):
        compiled.append(stmt.stmt_id)
        return real_compile(stmt)

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr(interp, "_compile_stmt", counting_compile)
    monkeypatch.setattr(slicer, "_build", counting_build)
    program = parse_program(ALL_FAIL)
    contract = Contract(parse_predicate("TRUE"), parse_predicate("o == a + 15"))
    result = compute_slice(program, contract, Domain.parse("a in 0..24"))
    assert result.program == program and result.deleted == frozenset()
    assert compiled == list(range(1, 17))
    assert len(built) == 1


@pytest.mark.parametrize("case", ["padded_div", "padded_max"])
@pytest.mark.parametrize("strategy", [EXHAUSTIVE, GREEDY])
def test_slice_builds_only_its_result(case, strategy, monkeypatch):
    """Both strategies judge kept-sets and build the slice they return
    once; greedy accepts several deletions on each of these."""
    built = []
    real_build = slicer._build

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr(slicer, "_build", counting_build)
    source, pre, post, dom = GOLDEN_CASES[case]
    contract = Contract(parse_predicate(pre), parse_predicate(post))
    result = compute_slice(parse_program(source), contract, Domain.parse(dom), strategy=strategy)
    assert len(result.deleted) >= 3
    assert len(built) == 1


def test_greedy_judges_closed_kept_sets_and_skips_what_is_gone(monkeypatch):
    """Every kept-set greedy judges holds the enclosing statement of each of
    its members, so it is a program a deletion can leave; a unit whose
    statements went with an earlier deletion (a statement nested in a
    deleted else clause, say) is skipped, not judged as the same program."""
    judged = []
    real_first_failure = verifier.Judge.first_failure

    def recording(self, points, kept=None):
        judged.append(kept)
        return real_first_failure(self, points, kept)

    monkeypatch.setattr(verifier.Judge, "first_failure", recording)
    rng = random.Random(2718)
    dom = Domain.from_dict(ORACLE_RANGES)
    skipped = 0
    for _ in range(60):
        program, contract, budget = _oracle_case(rng, "nested")
        judged.clear()
        compute_slice(program, contract, dom, strategy=GREEDY, step_budget=budget)
        for kept in judged:
            assert {s.stmt_id for s in slicer._build(program, kept).statements()} == kept
        skipped += len(judged) < len(deletable_units(program))
    assert skipped >= 10


def test_killer_inputs_satisfy_the_precondition(monkeypatch):
    """Judge.first_failure does not judge the precondition of the points
    it is given: every point the slicer gives it satisfies it."""
    given = []
    real_first_failure = verifier.Judge.first_failure

    def recording(self, points, kept=None):
        given.extend(points)
        return real_first_failure(self, points, kept)

    monkeypatch.setattr(verifier.Judge, "first_failure", recording)
    rng = random.Random(1618)
    dom = Domain.from_dict(ORACLE_RANGES)
    restricted = 0  # killers given under a precondition other than TRUE
    for index in range(40):
        program, contract, budget = _oracle_case(rng, ORACLE_KINDS[index % len(ORACLE_KINDS)])
        for strategy in (EXHAUSTIVE, GREEDY):
            given.clear()
            compute_slice(program, contract, dom, strategy=strategy, step_budget=budget)
            assert all(bf_holds(contract.pre, dict(point)) for point in given)
            restricted += len(given) * (contract.pre != ast.BoolLit(True))
    assert restricted > 50


def test_slice_ending_at_its_first_candidate_enumerates_no_other(monkeypatch):
    pulled = []
    real_retainable = slicer._retainable

    def counting_retainable(table, units):
        for key in real_retainable(table, units):
            pulled.append(key)
            yield key

    monkeypatch.setattr(slicer, "_retainable", counting_retainable)
    program = parse_program(ALL_FAIL)
    contract = Contract(parse_predicate("TRUE"), parse_predicate("TRUE"))
    result = compute_slice(program, contract, Domain.parse("a in 0..24"))
    assert result.program.body.stmts == ()
    assert pulled == [(0, ())]


def _ids(program):
    return frozenset(s.stmt_id for s in program.statements())


def test_relevance_closure_of_the_padded_programs():
    """The padding touches only d, which no postcondition reads; an if is
    relevant with its condition when a relevant statement is inside it."""
    div = parse_program(PADDED_DIV)
    assert slicer._relevant(div, parse_predicate(DIV_SPEC)) == frozenset({1, 3, 4, 5, 7, 8})
    assert slicer._relevant(div, parse_predicate("q >= 0")) == frozenset({1, 3, 4, 5, 7})
    assert slicer._relevant(div, parse_predicate("exists d in 0..1 : d == x")) == frozenset()
    max_ = parse_program(PADDED_MAX)
    assert slicer._relevant(max_, parse_predicate("max == a")) == frozenset({1, 4, 6})
    assert slicer._relevant(max_, parse_predicate("d == 0")) == frozenset({1, 2, 3, 7, 8})


def test_the_relevance_walk_is_never_what_a_deep_program_fails(monkeypatch):
    """S* reads each expression's variables with ast.free_vars, which
    recurses; slice judges the program first, which recurses at least as
    deep. So around the first depth at which slicing `o := a + ... + a`
    fails, it fails with ParseError(TOO_DEEP), as check does, and never
    inside _relevant."""
    contract, dom = Contract(parse_predicate("TRUE"), parse_predicate("o >= 0")), Domain.parse("a in 0..1")

    def program(terms):
        return parse_program("proc f(in a, out o) { o := a" + " + a" * (terms - 1) + "; }")

    def fails(terms):
        try:
            check(program(terms), contract, dom)
        except ParseError as error:
            assert str(error) == "expression nested too deeply"
            return True
        return False

    lo, hi = 2, 5000  # check passes lo terms and fails hi
    assert not fails(lo) and fails(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fails(mid) else (mid, hi)
    real, raised = slicer._relevant, []

    def relevant(program, post):
        try:
            return real(program, post)
        except ParseError:
            raised.append(program)
            raise

    monkeypatch.setattr(slicer, "_relevant", relevant)
    sliced = []
    for terms in range(hi - 5, hi + 5):
        try:
            compute_slice(program(terms), contract, dom)
        except ParseError as error:
            assert str(error) == "expression nested too deeply"
        else:
            sliced.append(terms)
    assert raised == []
    # slice fails from one depth on, within a frame or two of check
    first = hi - 5 + len(sliced)
    assert sliced == list(range(hi - 5, first)) and abs(first - hi) <= 2, (sliced, hi)


def test_the_part_inside_the_relevance_closure_of_a_verifying_kept_set_verifies():
    """Why the pruning is exact, judged by bf_check: whenever a kept-set
    verifies, so does its part inside S*."""
    rng = random.Random(6174)
    verified = pruned = 0
    for index in range(140):
        program, contract, budget = _oracle_case(rng, ORACLE_KINDS[index % len(ORACLE_KINDS)])
        relevant = slicer._relevant(program, contract.post)
        for _ in range(4):
            kept = frozenset(random_kept(rng, program.body, rng.random()))
            judged = bf_check(slicer._build(program, kept), contract.pre, contract.post,
                              ORACLE_RANGES, budget)
            if judged[0] != "verified":
                continue
            verified += 1
            pruned += not kept <= relevant
            inside = slicer._build(program, kept & relevant)
            assert bf_check(inside, contract.pre, contract.post, ORACLE_RANGES, budget) == judged
    assert verified >= 100 and pruned >= 50, (verified, pruned)


def test_exhaustive_answers_lie_inside_the_relevance_closure():
    rng = random.Random(8128)
    dom = Domain.from_dict(ORACLE_RANGES)
    pruned = 0
    for index in range(140):
        program, contract, budget = _oracle_case(rng, ORACLE_KINDS[index % len(ORACLE_KINDS)])
        relevant = slicer._relevant(program, contract.post)
        result = compute_slice(program, contract, dom, step_budget=budget)
        assert _ids(result.program) <= relevant
        pruned += relevant != _ids(program)
    assert pruned >= 40


def test_greedy_judges_only_deletions_that_reach_the_relevance_closure(monkeypatch):
    """Every kept-set greedy judges lacks a statement of S* that its kept-set
    holds: the kept-set it judged and accepted last, less what it deleted
    since without judging, all of it outside S*."""
    judged = []
    real_first_failure, real_check = verifier.Judge.first_failure, verifier.Judge.check

    def recording_first_failure(self, points, kept=None):
        judged.append((kept, None))
        return real_first_failure(self, points, kept)

    def recording_check(self, kept=None):
        result = real_check(self, kept)
        judged.append((kept, result.verified))
        return result

    monkeypatch.setattr(verifier.Judge, "first_failure", recording_first_failure)
    monkeypatch.setattr(verifier.Judge, "check", recording_check)
    rng = random.Random(1729)
    dom = Domain.from_dict(ORACLE_RANGES)
    unjudged = 0
    for index in range(140):
        program, contract, budget = _oracle_case(rng, ORACLE_KINDS[index % len(ORACLE_KINDS)])
        relevant = slicer._relevant(program, contract.post)
        judged.clear()
        result = compute_slice(program, contract, dom, strategy=GREEDY, step_budget=budget)
        current = _ids(program)
        for kept, verified in judged:
            if kept is None:  # the original's check
                continue
            if verified is None:
                assert not relevant.isdisjoint(current - kept)
            elif verified:
                current = kept
        unjudged += current != _ids(result.program)
    assert unjudged >= 30


def test_pruned_candidates_are_the_sorted_candidates_inside_the_relevance_closure():
    rng = random.Random(9)
    shapes = (PADDED_DIV, PADDED_MAX, ALL_FAIL, FIVE_IF_ELSE, ELSE_NESTED)
    programs = [parse_program(source) for source in shapes]
    programs += [
        random_program(rng, max_stmts=rng.randint(4, 14), allow_while=True, faults=index % 2 == 0)
        for index in range(200)
    ]
    pruned = 0
    for program in programs:
        for post in ("o == 0", "w == 0" if "w" in program.locals else "d == 0", "TRUE"):
            relevant = slicer._relevant(program, parse_predicate(post))
            inside = [key for key in sorted(_eager_retainable(program.body)) if set(key[1]) <= relevant]
            assert _retainable(program.body, relevant) == inside
            pruned += relevant not in (frozenset(), _ids(program))
    assert pruned >= 100


def test_greedy_lists_what_each_unit_deletes_in_one_walk(monkeypatch, verifier_runs):
    """Greedy takes the statements each unit deletes from one walk of the
    program, not a walk per unit: 1,000 dead statements cost a few walks,
    and only the one relevant deletion is judged."""
    program = parse_program("proc f(in a, out o) { var d; o := a;" + " d := d + 1;" * 1000 + " }")
    visited = 0
    real_walk = ast.walk_statements

    def counting(block):
        nonlocal visited
        for stmt in real_walk(block):
            visited += 1
            yield stmt

    monkeypatch.setattr(ast, "walk_statements", counting)
    contract = Contract(parse_predicate("TRUE"), parse_predicate("o == a"))
    result = compute_slice(program, contract, Domain.parse("a in 0..3"), strategy=GREEDY)
    assert result.retained == {stmt(1)}
    # the original's four points, then deleting o := a fails at a == 1
    assert len(verifier_runs) == 4 + 2
    assert visited < 10 * 1001


@pytest.mark.parametrize("strategy", [EXHAUSTIVE, GREEDY])
def test_a_slice_leaves_no_reference_cycle(strategy, max2):
    """With the cyclic collector off, a slice frees everything it made: the
    collector then finds nothing (a call warms the caches first)."""
    contract = Contract(parse_predicate("a > b"), parse_predicate("a > b && max == a"))
    dom = Domain.parse("a in -4..4, b in -4..4")
    compute_slice(max2, contract, dom, strategy)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            compute_slice(max2, contract, dom, strategy)
        assert gc.collect() == 0
    finally:
        gc.enable()
