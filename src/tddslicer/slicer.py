"""Specification-based slicing by statement deletion.

A slice of S under {P}{Q} is a deletion-derived sub-program that still
verifies against the same contract over the same Domain. Slicing is
semantic-by-oracle: delete, then re-verify; no dataflow analysis. Deletion
preserves the original statement ids so trajectories and reports align
across versions.

Deleting a statement removes its whole subtree; deleting an else clause
keeps the If and its then-block. An If whose else block ends up empty is
structurally identical to one with no else at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .contracts import Contract
from .lang import ast
from .lang.interp import DEFAULT_STEP_BUDGET
from .predicates import Domain
from .verifier import VACUOUS, VerificationResult, check

STATEMENT = "statement"
ELSE_CLAUSE = "else_clause"

#: exhaustive search is refused above this many deletable units (2^16 subsets)
EXHAUSTIVE_CAP = 16

EXHAUSTIVE = "exhaustive"
GREEDY = "greedy"


class SliceError(Exception):
    pass


class OriginalNotVerifiedError(SliceError):
    """The full program does not satisfy the contract, so no deletion can."""

    def __init__(self, verification: VerificationResult):
        self.verification = verification
        super().__init__(
            f"program does not verify against the contract ({verification.verdict}); "
            "nothing to slice"
        )


class VacuousContractError(SliceError):
    """No domain point satisfies the precondition; every deletion would
    'verify', so slicing is refused."""

    def __init__(self, verification: VerificationResult):
        self.verification = verification
        super().__init__(
            "precondition is unsatisfiable within the domain; slicing refused"
        )


class ExhaustiveCapError(SliceError):
    def __init__(self, units: int, cap: int):
        self.units = units
        self.cap = cap
        super().__init__(
            f"{units} deletable units exceed the exhaustive cap of {cap}; "
            "use the greedy strategy"
        )


@dataclass(frozen=True, order=True)
class DeletionUnit:
    """Something deletion can remove: a statement (with its subtree) or the
    else clause of an If."""

    kind: str
    anchor: int

    def __str__(self) -> str:
        return f"{self.kind}@{self.anchor}"


def deletable_units(program: ast.Program) -> list[DeletionUnit]:
    """One statement unit per statement (pre-order), then one else_clause
    unit per If with a nonempty else (by anchor)."""
    units = [DeletionUnit(STATEMENT, s.stmt_id) for s in program.statements()]
    units.extend(
        DeletionUnit(ELSE_CLAUSE, s.stmt_id)
        for s in program.statements()
        if isinstance(s, ast.If) and s.orelse.stmts
    )
    return units


def apply_deletion(
    program: ast.Program, deleted: frozenset[DeletionUnit] | set[DeletionUnit]
) -> ast.Program:
    """Remove the given units; ids of surviving statements are unchanged.

    Deleting a unit nested inside an already-deleted unit is a no-op; the
    result may have an empty body, which is valid.
    """
    valid = set(deletable_units(program))
    bogus = set(deleted) - valid
    if bogus:
        raise ValueError(f"units not present in program: {sorted(map(str, bogus))}")
    stmt_ids = {u.anchor for u in deleted if u.kind == STATEMENT}
    else_anchors = {u.anchor for u in deleted if u.kind == ELSE_CLAUSE}

    def rebuild(block: ast.Block) -> ast.Block:
        kept: list[ast.Stmt] = []
        for stmt in block.stmts:
            if stmt.stmt_id in stmt_ids:
                continue
            if isinstance(stmt, ast.If):
                orelse = (
                    ast.Block() if stmt.stmt_id in else_anchors else rebuild(stmt.orelse)
                )
                kept.append(ast.If(stmt.stmt_id, stmt.cond, rebuild(stmt.then), orelse))
            elif isinstance(stmt, ast.While):
                kept.append(ast.While(stmt.stmt_id, stmt.cond, rebuild(stmt.body)))
            else:
                kept.append(stmt)
        return ast.Block(tuple(kept))

    return ast.Program(program.name, program.params, program.locals, rebuild(program.body))


@dataclass(frozen=True)
class SliceResult:
    """A verified deletion-derived program.

    retained holds the units still present; program always equals
    apply_deletion(original, complement of retained); verification is the
    Verified result that admitted the slice. minimal is only guaranteed by
    the exhaustive strategy.
    """

    retained: frozenset[DeletionUnit]
    deleted: frozenset[DeletionUnit]
    program: ast.Program
    minimal: bool
    strategy: str
    verification: VerificationResult


def slice(
    program: ast.Program,
    contract: Contract,
    dom: Domain,
    strategy: str = EXHAUSTIVE,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> SliceResult:
    """Find a deletion-derived program still verifying {pre}{post} over dom.

    exhaustive enumerates deletion sets by decreasing size (ties broken by
    the lexicographically smallest retained stmt-id sequence) and returns
    the first success, which has the minimum possible retained-unit count.
    greedy makes a single reverse-pre-order pass, keeping each deletion
    that still verifies; its result is sound but not necessarily minimal.
    """
    base = check(program, contract, dom, step_budget)
    if base.verdict == VACUOUS:
        raise VacuousContractError(base)
    if not base.verified:
        raise OriginalNotVerifiedError(base)
    units = deletable_units(program)
    if strategy == EXHAUSTIVE:
        return _slice_exhaustive(program, contract, dom, step_budget, units, base)
    if strategy == GREEDY:
        return _slice_greedy(program, contract, dom, step_budget, units, base)
    raise ValueError(f"unknown strategy {strategy!r}")


def _retained_key(program: ast.Program) -> tuple[int, ...]:
    return tuple(s.stmt_id for s in program.statements())


def _slice_exhaustive(
    program: ast.Program,
    contract: Contract,
    dom: Domain,
    step_budget: int,
    units: list[DeletionUnit],
    base: VerificationResult,
) -> SliceResult:
    if len(units) > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(len(units), EXHAUSTIVE_CAP)
    verdict_cache: dict[ast.Program, VerificationResult] = {program: base}
    for size in range(len(units), -1, -1):
        candidates = []
        for subset in itertools.combinations(units, size):
            deleted = frozenset(subset)
            candidate = apply_deletion(program, deleted)
            candidates.append((_retained_key(candidate), tuple(sorted(deleted)), deleted, candidate))
        candidates.sort(key=lambda c: (c[0], c[1]))
        for _, _, deleted, candidate in candidates:
            result = verdict_cache.get(candidate)
            if result is None:
                result = check(candidate, contract, dom, step_budget)
                verdict_cache[candidate] = result
            if result.verified:
                retained = frozenset(deletable_units(candidate))
                return SliceResult(
                    retained=retained,
                    deleted=frozenset(units) - retained,
                    program=candidate,
                    minimal=True,
                    strategy=EXHAUSTIVE,
                    verification=result,
                )
    raise AssertionError("unreachable: the empty deletion always verifies")


def _slice_greedy(
    program: ast.Program,
    contract: Contract,
    dom: Domain,
    step_budget: int,
    units: list[DeletionUnit],
    base: VerificationResult,
) -> SliceResult:
    deleted: set[DeletionUnit] = set()
    current = program
    present = set(units)
    verification = base
    for unit in reversed(units):
        if unit not in present:
            continue  # nested inside something already deleted
        trial = deleted | {unit}
        candidate = apply_deletion(program, trial)
        result = check(candidate, contract, dom, step_budget)
        if result.verified:
            deleted = trial
            current = candidate
            present = set(deletable_units(current))
            verification = result
    retained = frozenset(deletable_units(current))
    return SliceResult(
        retained=retained,
        deleted=frozenset(units) - retained,
        program=current,
        minimal=False,
        strategy=GREEDY,
        verification=verification,
    )
