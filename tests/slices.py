"""Test-only helpers about slices: the slice relation, trace projections
of a program against its slice, and a lint of in-parameter writes.

is_slice_of recovers the deletion set that turns an original program into
a candidate, so tests can check that a computed slice really is one;
check_projection compares the trajectories of both programs on one input.
"""

from __future__ import annotations

from dataclasses import dataclass

from tddslicer.lang import ast
from tddslicer.lang.interp import (
    DEFAULT_STEP_BUDGET,
    RunResult,
    Trajectory,
    project,
    run,
)
from tddslicer.slicer import ELSE_CLAUSE, STATEMENT, DeletionUnit


@dataclass(frozen=True)
class SliceRelation:
    is_slice: bool
    deleted: frozenset[DeletionUnit] | None

    def __bool__(self) -> bool:
        return self.is_slice


def is_slice_of(
    candidate: ast.Program, original: ast.Program, allow_renamed: bool = False
) -> SliceRelation:
    """Is candidate reachable from original by deleting units?

    Matching ignores statement ids (a freshly parsed candidate has its own
    numbering). Signatures must agree; allow_renamed relaxes only the
    procedure name.
    """
    if not allow_renamed and candidate.name != original.name:
        return SliceRelation(False, None)
    if candidate.params != original.params or candidate.locals != original.locals:
        return SliceRelation(False, None)
    deleted = _match_block(original.body.stmts, candidate.body.stmts)
    if deleted is None:
        return SliceRelation(False, None)
    return SliceRelation(True, frozenset(deleted))


def _delete_all(stmts: tuple[ast.Stmt, ...]) -> set[DeletionUnit]:
    return {DeletionUnit(STATEMENT, s.stmt_id) for s in stmts}


def _match_block(
    orig: tuple[ast.Stmt, ...], cand: tuple[ast.Stmt, ...]
) -> set[DeletionUnit] | None:
    def rec(i: int, j: int) -> set[DeletionUnit] | None:
        if j == len(cand):
            return _delete_all(orig[i:])
        if i == len(orig):
            return None
        inner = _match_stmt(orig[i], cand[j])
        if inner is not None:
            rest = rec(i + 1, j + 1)
            if rest is not None:
                return inner | rest
        rest = rec(i + 1, j)
        if rest is not None:
            return {DeletionUnit(STATEMENT, orig[i].stmt_id)} | rest
        return None

    return rec(0, 0)


def _match_stmt(orig: ast.Stmt, cand: ast.Stmt) -> set[DeletionUnit] | None:
    if type(orig) is not type(cand):
        return None
    if isinstance(orig, ast.Assign):
        if orig.target == cand.target and orig.expr == cand.expr:
            return set()
        return None
    if isinstance(orig, ast.Skip):
        return set()
    if isinstance(orig, ast.While):
        if orig.cond != cand.cond:
            return None
        return _match_block(orig.body.stmts, cand.body.stmts)
    if isinstance(orig, ast.If):
        if orig.cond != cand.cond:
            return None
        then = _match_block(orig.then.stmts, cand.then.stmts)
        if then is None:
            return None
        if orig.orelse.stmts and not cand.orelse.stmts:
            return then | {DeletionUnit(ELSE_CLAUSE, orig.stmt_id)}
        orelse = _match_block(orig.orelse.stmts, cand.orelse.stmts)
        if orelse is None:
            return None
        return then | orelse
    raise TypeError(f"not a statement: {orig!r}")


@dataclass(frozen=True)
class ProjectionCheck:
    """Diagnostic comparison of variable traces between original and slice.

    Specification-based slices only promise final-state agreement inside
    the precondition, so unequal projections are reported, not errors.
    """

    equal: bool
    original_projection: Trajectory
    sliced_projection: Trajectory
    original_run: RunResult
    sliced_run: RunResult


def check_projection(
    original: ast.Program,
    sliced: ast.Program,
    inputs: dict[str, int],
    vars: set[str] | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> ProjectionCheck:
    """Run both programs and compare their trajectories projected onto vars.

    sliced must be a slice of original. The slice's own writes always land
    on retained statements, so the comparison filters by variables only;
    a write the original makes on a deleted statement shows up as an
    inequality, which is exactly the diagnostic signal.
    """
    relation = is_slice_of(sliced, original)
    if not relation.is_slice:
        raise ValueError("sliced program is not a deletion-derived slice of the original")
    original_run = run(original, inputs, step_budget)
    sliced_run = run(sliced, inputs, step_budget)
    original_projection = project(original_run.trajectory, vars)
    sliced_projection = project(sliced_run.trajectory, vars)
    return ProjectionCheck(
        equal=original_projection == sliced_projection,
        original_projection=original_projection,
        sliced_projection=sliced_projection,
        original_run=original_run,
        sliced_run=sliced_run,
    )


def lint(program: ast.Program) -> list[str]:
    """Non-fatal style findings: currently, assignments to in-parameters.

    Contracts read in-params in postconditions assuming they are unmodified;
    reassigning one is legal but almost always a mistake.
    """
    in_params = set(program.in_params)
    findings = []
    for stmt in ast.walk_statements(program.body):
        if isinstance(stmt, ast.Assign) and stmt.target in in_params:
            findings.append(
                f"statement {stmt.stmt_id} assigns to in-parameter '{stmt.target}'"
            )
    return findings
