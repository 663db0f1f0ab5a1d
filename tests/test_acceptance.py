"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Random suites are seeded and exact counts are asserted, so every
run checks the full stated sample sizes.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from tddslicer import (
    Contract,
    Domain,
    check,
    deletable_units,
    apply_deletion,
    format_predicate,
    is_instance,
    parse_predicate,
    parse_program,
    pretty_print,
    replay,
    subsumed_by,
    union,
)
from tddslicer import slice as compute_slice
from tddslicer.cli import main
from tddslicer.corpus import corpus_path
from tddslicer.session import FAILED_AS_EXPECTED, NOT_APPLICABLE, load_session
from tddslicer.slicer import GREEDY

from bruteforce import bf_check
from slices import is_slice_of
from generators import random_contract, random_program, random_test


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_max_slicing_reproduction(max2, max2_slice, max_contract_gt, dom_ab8):
    with criterion("1 max-slicing-reproduction"):
        start = time.perf_counter()
        result = compute_slice(max2, max_contract_gt, dom_ab8)
        elapsed = time.perf_counter() - start
        # Listing slice: if + then-assign retained, else branch deleted.
        assert result.program == max2_slice  # exact AST match, ids included
        assert {(u.kind, u.anchor) for u in result.retained} == {
            ("statement", 1),
            ("statement", 2),
        }
        assert result.minimal and result.verification.verified
        assert elapsed < 1.0


def test_criterion_2_contract_union_reproduction(max_contract_gt, max_contract_le, dom_ab8):
    with criterion("2 contract-union-reproduction"):
        from tddslicer import is_tautology

        start = time.perf_counter()
        combined = union(max_contract_gt, max_contract_le)
        pre_text = format_predicate(combined.pre)
        post_text = format_predicate(combined.post)
        tautology = is_tautology(combined.pre, dom_ab8)
        elapsed = time.perf_counter() - start
        assert pre_text == "a > b || a <= b"
        assert post_text == "(a > b && max == a) || (a <= b && max == b)"
        # same structure when reparsed (spacing aside)
        assert parse_predicate(pre_text) == parse_predicate("a>b || a<=b")
        assert parse_predicate(post_text) == parse_predicate(
            "(a>b && max==a) || (a<=b && max==b)"
        )
        assert tautology.holds
        assert elapsed < 1.0


def test_criterion_3_div_session_replay():
    with criterion("3 div-session-replay"):
        session = load_session(corpus_path("div.session"))
        assert str(session.dom) == "x in 0..16, y in 1..9"
        start = time.perf_counter()
        report = replay(session)
        elapsed = time.perf_counter() - start

        assert all(record.green.passed for record in report.cycles)
        assert all(
            regression.passed
            for record in report.cycles
            for regression in record.regressions
        )
        assert report.cycles[1].red.status == FAILED_AS_EXPECTED
        assert report.cycles[0].red.status == NOT_APPLICABLE
        for record in report.cycles:
            assert record.snapshot_contract.verdict == "verified"
            assert record.oracle_contract.verdict == "verified"
            assert record.chain_holds
        assert report.qlty == 100.0
        assert report.ok
        assert elapsed < 10.0


def test_criterion_4_verifier_oracle_equivalence():
    with criterion("4 verifier-oracle-equivalence"):
        rng = random.Random(2024_04)
        ranges = {"a": (-2, 2), "b": (-2, 2)}  # 5x5 domain
        dom = Domain.from_dict(ranges)
        agreements = 0
        for _ in range(200):
            program = random_program(rng, max_stmts=3)
            contract = random_contract(rng)
            mine = check(program, contract, dom)
            verdict, witness = bf_check(program, contract.pre, contract.post, ranges)
            assert mine.verdict == verdict
            if verdict == "counterexample":
                assert mine.witness.inputs == witness
            agreements += 1
        assert agreements == 200


def _bruteforce_min_retained(program, contract, dom) -> int:
    units = deletable_units(program)
    cache: dict = {}
    best = len(units)
    for size in range(len(units) + 1):
        for subset in itertools.combinations(units, size):
            candidate = apply_deletion(program, frozenset(subset))
            verified = cache.get(candidate)
            if verified is None:
                verified = check(candidate, contract, dom).verified
                cache[candidate] = verified
            if verified:
                best = min(best, len(deletable_units(candidate)))
    return best


def _verified_program_contract(rng, dom):
    while True:
        program = random_program(rng, max_stmts=rng.randint(2, 8))
        if len(deletable_units(program)) > 12:
            continue
        for _ in range(8):
            contract = random_contract(rng)
            result = check(program, contract, dom)
            if result.verified and result.checked_points > 0:
                return program, contract


def test_criterion_5_slicer_minimality():
    with criterion("5 slicer-minimality"):
        rng = random.Random(2024_05)
        dom = Domain.parse("a in -2..2, b in -2..2")
        checked = 0
        for _ in range(50):
            program, contract = _verified_program_contract(rng, dom)
            exhaustive = compute_slice(program, contract, dom)
            optimum = _bruteforce_min_retained(program, contract, dom)
            assert len(exhaustive.retained) == optimum
            greedy = compute_slice(program, contract, dom, strategy=GREEDY)
            assert len(greedy.retained) >= len(exhaustive.retained)
            assert greedy.verification.verified
            assert is_slice_of(greedy.program, program).is_slice
            checked += 1
        assert checked == 50


def test_criterion_6_algebraic_suite():
    with criterion("6 algebraic-suite"):
        rng = random.Random(2024_06)
        dom = Domain.parse("a in -3..3, b in -3..3")
        out_ranges = {"o": (-3, 3)}

        for _ in range(1000):
            test, first, second = (
                random_test(rng),
                random_contract(rng),
                random_contract(rng),
            )
            if is_instance(test, first).holds:
                assert is_instance(test, union(first, second)).holds

        for _ in range(1000):
            first, second = random_contract(rng), random_contract(rng)
            combined = union(first, second)
            assert subsumed_by(first, combined, dom, out_ranges).holds
            assert subsumed_by(second, combined, dom, out_ranges).holds

        def equivalent(c1, c2):
            return (
                subsumed_by(c1, c2, dom, out_ranges).holds
                and subsumed_by(c2, c1, dom, out_ranges).holds
            )

        for _ in range(200):
            a, b, c = (random_contract(rng) for _ in range(3))
            assert equivalent(union(a, b), union(b, a))
            assert equivalent(union(union(a, b), c), union(a, union(b, c)))


def test_criterion_7_round_trip_and_determinism(capsys):
    with criterion("7 round-trip-and-determinism"):
        corpus = [
            "max2.prog",
            "max2_slice.prog",
            "div_oracle.prog",
            *[f"div_cycle{i}.prog" for i in range(1, 10)],
        ]
        for name in corpus:
            program = parse_program(corpus_path(name).read_text())
            assert parse_program(pretty_print(program)) == program

        session_path = str(corpus_path("div.session"))
        assert main(["replay", session_path, "--format", "machine"]) == 0
        first = capsys.readouterr().out
        assert main(["replay", session_path, "--format", "machine"]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()  # byte identical
        assert json.loads(first)["qlty"] == 100.0
