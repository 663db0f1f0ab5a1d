"""Specification-based slicing by statement deletion.

A slice of S under {P}{Q} is a deletion-derived sub-program that still
verifies against the same contract over the same Domain. Slicing is
semantic-by-oracle: delete, then re-verify. Deletion preserves the
original statement ids so trajectories and reports align across versions.

The search only tries deleting what the postcondition can depend on: S*,
the flow-insensitive relevance closure of the program (Weiser's dependence
closure). It starts from the variables of Q and adds every assignment to
a relevant variable with the variables it reads, and every if or while
enclosing a relevant statement with the variables of its condition, until
nothing changes. A statement outside S* assigns only variables that
nothing in S* reads, so deleting it leaves every relevant value as it was
and only removes steps and faults: if a candidate verifies, so does every
candidate between it and its part inside S*, with the same result.

Deleting a statement removes its whole subtree; deleting an else clause
keeps the If and its then-block. An If whose else block ends up empty is
structurally identical to one with no else at all.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import combinations
from collections.abc import Iterator

from .contracts import Contract
from .errors import (
    EXHAUSTIVE,
    GREEDY,
    ExhaustiveCapError,
    OriginalNotVerifiedError,
    VacuousContractError,
)
from .lang import ast
from .lang.ast import Record
from .lang.interp import DEFAULT_STEP_BUDGET
from .predicates import Domain
from .verifier import VACUOUS, Judge, VerificationResult

STATEMENT = "statement"
ELSE_CLAUSE = "else_clause"

#: exhaustive search is refused above this many deletable units inside S*
#: (2^16 candidates)
EXHAUSTIVE_CAP = 16


@total_ordering
class DeletionUnit(Record):
    """Something deletion can remove: a statement (with its subtree) or the
    else clause of an If. Units order by kind, then anchor."""

    __slots__ = ("kind", "anchor")
    kind: str
    anchor: int

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

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
    removals = _removals(program)
    bogus = set(deleted) - removals.keys()
    if bogus:
        raise ValueError(f"units not present in program: {sorted(map(str, bogus))}")
    everything = {s.stmt_id for s in program.statements()}
    return _build(program, everything.difference(*(removals[unit] for unit in deleted)))


def _removals(program: ast.Program) -> dict[DeletionUnit, tuple[int, ...]]:
    """For each deletion unit of program, the ids of every statement
    deleting it removes: the statement or the statements of the else
    clause, each with every statement nested inside it. Each is one run
    of the pre-order list of every statement."""
    table = _preorder(program.body, {s.stmt_id for s in program.statements()})
    ids = [sid for sid, _, _ in table]
    removals: dict[DeletionUnit, tuple[int, ...]] = {}
    starts: dict[int, int] = {}
    for index, (sid, end, owner) in enumerate(table):
        removals[DeletionUnit(STATEMENT, sid)] = tuple(ids[index:end])
        if owner >= 0 and starts.setdefault(owner, index) == index:
            # the else block runs from its first statement to the If's end
            removals[DeletionUnit(ELSE_CLAUSE, ids[owner])] = tuple(ids[index:table[owner][1]])
    return removals


def _build(program: ast.Program, kept: frozenset[int] | set[int]) -> ast.Program:
    """program with only the statements whose id is in kept and whose
    enclosing statements are kept too; ids are unchanged."""
    return ast.Program(program.name, program.params, program.locals, _rebuild(program.body, kept))


def _rebuild(block: ast.Block, kept: frozenset[int] | set[int]) -> ast.Block:
    """block with only the statements of _build's kept, rebuilt; a function
    of the module, so no call leaves a closure that holds itself."""
    stmts: list[ast.Stmt] = []
    for stmt in block.stmts:
        if stmt.stmt_id not in kept:
            continue
        if isinstance(stmt, ast.If):
            then, orelse = _rebuild(stmt.then, kept), _rebuild(stmt.orelse, kept)
            stmts.append(ast.If(stmt.stmt_id, stmt.cond, then, orelse))
        elif isinstance(stmt, ast.While):
            stmts.append(ast.While(stmt.stmt_id, stmt.cond, _rebuild(stmt.body, kept)))
        else:
            stmts.append(stmt)
    return ast.Block(tuple(stmts))


class SliceResult(Record):
    """A verified deletion-derived program.

    retained holds the units still present; program always equals
    apply_deletion(original, complement of retained); verification is the
    Verified result that admitted the slice. minimal is only guaranteed by
    the exhaustive strategy.
    """

    __slots__ = ("retained", "deleted", "program", "minimal", "strategy", "verification")
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

    A candidate is determined by the statements it retains, a set that
    holds the enclosing statement of each of its members. Its retained
    units are those statements plus the else clause of each If with a
    retained else statement. exhaustive tries each candidate once, by
    increasing retained-unit count, ties broken by the smaller sequence
    of retained statement ids in pre-order, and returns the first that
    verifies: it has the fewest retained units possible. That is the
    order of trying every deletion set by decreasing size with the same
    tie-break, because a candidate first comes up at the largest
    deletion set that yields it, the complement of its retained units.
    The candidates are generated in that order one at a time, so a search
    that ends early never enumerates the rest. greedy makes a single
    reverse-pre-order pass over the units, keeping each deletion that
    still verifies; its result is sound but not necessarily minimal.

    Both strategies prune by S*, the statements the postcondition can
    depend on, computed once per call. exhaustive tries only candidates
    inside S*, in the same order, and counts only the units inside S*
    against EXHAUSTIVE_CAP: if a candidate verifies, its part inside S*
    verifies with no more units and comes no later, so the first that
    verifies lies inside S*. greedy accepts without judging a deletion
    whose kept statements all lie outside S*: its kept-set always
    verifies, and so does that set without statements nothing relevant
    reads, with the same result.

    The contract is validated and compiled once per call, and so is the
    program: a candidate is judged as the set of statement ids it keeps
    (runner's kept), and only the result is built as a Program.
    Each candidate is judged first on the inputs at which earlier
    candidates failed, most recent first; one that passes them all is
    checked over the points where the precondition holds, so the slice's
    verification is what check returns for the built slice. Below the
    gate those are the points the original's check kept on the Judge, so
    no candidate judges the precondition again. An unknown strategy is a
    ValueError before anything is judged.
    """
    if strategy not in (EXHAUSTIVE, GREEDY):
        raise ValueError(f"unknown strategy {strategy!r}")
    judge = Judge(program, contract, dom, step_budget)
    base = judge.check()
    if base.verdict == VACUOUS:
        raise VacuousContractError(base)
    if not base.verified:
        raise OriginalNotVerifiedError(base)
    units = deletable_units(program)
    relevant = _relevant(program, contract.post)
    if strategy == EXHAUSTIVE:
        kept, verification = _slice_exhaustive(program, judge, base, relevant)
    else:
        kept, verification = _slice_greedy(program, judge, units, base, relevant)
    built = _build(program, kept)
    retained = frozenset(deletable_units(built))
    return SliceResult(
        retained=retained,
        deleted=frozenset(units) - retained,
        program=built,
        minimal=strategy == EXHAUSTIVE,
        strategy=strategy,
        verification=verification,
    )


def _relevant(program: ast.Program, post: ast.BoolExpr) -> frozenset[int]:
    """S*: the ids of the statements post can depend on, flow-insensitively.

    The closure of post's free variables under "an assignment to a relevant
    variable is relevant, and so are the variables it reads" and "an if or
    while enclosing a relevant statement is relevant, and so are the
    variables of its condition". It holds the enclosing statement of each
    of its members. The statements are walked with a stack of its own;
    each expression's variables are ast.free_vars, which recurses no
    deeper than compiling the program, which slice's first check has done.
    """
    enclosing: dict[int, int | None] = {}
    reads: dict[int, frozenset[str]] = {}
    assigns: dict[str, list[int]] = {}
    stack: list[tuple[ast.Stmt, int | None]] = [(stmt, None) for stmt in program.body.stmts]
    while stack:
        stmt, outer = stack.pop()
        enclosing[stmt.stmt_id] = outer
        if isinstance(stmt, ast.Assign):
            reads[stmt.stmt_id] = ast.free_vars(stmt.expr)
            assigns.setdefault(stmt.target, []).append(stmt.stmt_id)
        elif isinstance(stmt, (ast.If, ast.While)):
            reads[stmt.stmt_id] = ast.free_vars(stmt.cond)
            blocks = (stmt.then, stmt.orelse) if isinstance(stmt, ast.If) else (stmt.body,)
            stack.extend((inner, stmt.stmt_id) for block in blocks for inner in block.stmts)
    seen = set(ast.free_vars(post))
    pending = list(seen)
    relevant: set[int] = set()
    while pending:
        for sid in assigns.get(pending.pop(), ()):
            while sid is not None and sid not in relevant:
                relevant.add(sid)
                fresh = reads[sid] - seen
                seen |= fresh
                pending.extend(fresh)
                sid = enclosing[sid]
    return frozenset(relevant)


def _verifies(judge: Judge, kept: frozenset[int], killers: list) -> VerificationResult | None:
    """The verification of the judged program keeping the statements in
    kept if it verifies, else None.

    killers holds the inputs of earlier failures, most recent first: a
    candidate failing one of them is rejected without a full scan, and
    that input moves to the front. A candidate failing the full scan adds
    its witness's inputs at the front.
    """
    failure = judge.first_failure(killers, kept)
    if failure is not None:
        killers.remove(failure.inputs)
        killers.insert(0, failure.inputs)
        return None
    result = judge.check(kept)
    if not result.verified:
        killers.insert(0, result.witness.inputs)
        return None
    return result


def _preorder(block: ast.Block, keep: frozenset[int] | set[int]) -> list[tuple[int, int, int]]:
    """The statements of block in keep, in pre-order, as (id, index past
    its subtree, index of the If whose else block holds it directly or -1).
    keep must hold the enclosing statement of each of its members, so each
    subtree and each else block is one run of the list. Walked with a
    stack of its own, so no depth of program fails here."""
    rows: list[list[int]] = []
    stack: list = [(stmt, -1) for stmt in reversed(block.stmts)]
    while stack:
        stmt, owner = stack.pop()
        if stmt is None:  # every statement nested in row owner is listed
            rows[owner][1] = len(rows)
        elif stmt.stmt_id in keep:
            index = len(rows)
            rows.append([stmt.stmt_id, 0, owner])
            stack.append((None, index))
            if isinstance(stmt, ast.If):
                stack += [(inner, index) for inner in reversed(stmt.orelse.stmts)]
                stack += [(inner, -1) for inner in reversed(stmt.then.stmts)]
            elif isinstance(stmt, ast.While):
                stack += [(inner, -1) for inner in reversed(stmt.body.stmts)]
    return [tuple(row) for row in rows]


def _retainable(
    table: list[tuple[int, int, int]], total: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every set of the statements of table (_preorder's) that a deletion
    can leave, as (retained units, retained statement ids in pre-order), in
    ascending order and one at a time; total is the table's count of
    units, its statements and the else blocks that hold one.

    For each unit count, one walk of the pre-order list tries each
    statement retained before deleted; deleting one skips its subtree.
    Two sets with the same unit count are never a prefix of one another,
    so the one holding the smallest id in which they differ is the
    smaller: the sets of one unit count come in ascending order.
    """
    ids = [sid for sid, _, _ in table]
    # the first retained statement of an else block retains the else
    # clause too: opens[i] is where the block holding the i-th one starts
    starts: dict[int, int] = {}
    opens = [starts.setdefault(owner, index) for index, (_, _, owner) in enumerate(table)]
    # most[i] bounds the units the statements from the i-th on can add
    most = [len(table) - i + len({owner for _, _, owner in table[i:]} - {-1})
            for i in range(len(table) + 1)]
    leaves_from = len(table)
    while leaves_from and table[leaves_from - 1][1:] == (leaves_from, -1):
        leaves_from -= 1
    for n in range(total + 1):
        stack = [(0, 0, -1, ())]
        while stack:
            i, units, last, kept = stack.pop()
            if units == n:
                yield n, kept
            elif i >= leaves_from:
                # only plain leaves left: combinations come in this very order
                for more in combinations(ids[i:], n - units):
                    yield n, kept + more
            else:
                _, end, owner = table[i]
                if units + most[end] >= n:
                    stack.append((end, units, last, kept))
                held = units + 1 + (owner >= 0 and last < opens[i])
                if held <= n <= held + most[i + 1]:
                    stack.append((i + 1, held, i, kept + (ids[i],)))


def _slice_exhaustive(
    program: ast.Program,
    judge: Judge,
    base: VerificationResult,
    relevant: frozenset[int],
) -> tuple[frozenset[int], VerificationResult]:
    """The kept-set of the first candidate inside relevant that verifies,
    and its verification."""
    table = _preorder(program.body, relevant)
    most = len(table) + len({owner for _, _, owner in table} - {-1})
    if most > EXHAUSTIVE_CAP:
        raise ExhaustiveCapError(most, EXHAUSTIVE_CAP)
    killers: list = []
    for n, ids in _retainable(table, most):
        kept = frozenset(ids)
        # a candidate retaining every unit inside relevant verifies as the
        # program does, with the same result
        result = base if n == most else _verifies(judge, kept, killers)
        if result is not None:
            break
    return kept, result


def _slice_greedy(
    program: ast.Program,
    judge: Judge,
    units: list[DeletionUnit],
    base: VerificationResult,
    relevant: frozenset[int],
) -> tuple[frozenset[int], VerificationResult]:
    """The kept-set left by every deletion that still verifies, one unit
    at a time in reverse pre-order, and its verification. A deletion
    removes whole subtrees, so kept holds the enclosing statement of each
    of its members, and a unit none of whose statements is kept is gone
    already and skipped. A deletion of kept statements none of which is in
    relevant verifies, with the same result, so it is accepted unjudged."""
    kept = frozenset(s.stmt_id for s in program.statements())
    verification = base
    killers: list = []
    removals = _removals(program)
    for unit in reversed(units):
        removed = kept.intersection(removals[unit])
        if relevant.isdisjoint(removed):
            kept -= removed
            continue
        result = _verifies(judge, kept - removed, killers)
        if result is not None:
            kept, verification = kept - removed, result
    return kept, verification
