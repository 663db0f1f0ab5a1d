"""Reference answers for the benchmark, independent of the code under test.

Expression and predicate semantics come from `tests/bruteforce.py`
(`bf_eval`, `bf_holds`, `bf_check`), imported read-only. Statement
execution with the step budget, deletion, and bounded implication are
written here from the documented semantics. The package's AST dataclasses
and its parser are reused as plain data, as `tests/bruteforce.py` does.

Nothing here is timed: the harness computes every reference answer after
the timed loop has ended.
"""

from __future__ import annotations

import itertools

from bruteforce import bf_check, bf_eval, bf_holds
from tddslicer.lang import ast
from workloads import domain_text

STATEMENT = "statement"
ELSE_CLAUSE = "else_clause"

_FAULT_REASON = {"/": "division by zero", "%": "modulo by zero",
                 "negative exponent": "negative exponent"}


class _Fault(Exception):
    def __init__(self, reason: str):
        self.reason = reason


class _OutOfSteps(Exception):
    def __init__(self, stmt_id: int):
        self.stmt_id = stmt_id


def _value(expr, env):
    try:
        return bf_eval(expr, env)
    except ZeroDivisionError as err:
        raise _Fault(_FAULT_REASON[str(err)]) from None


def _truth(pred, env):
    try:
        return bf_holds(pred, env)
    except ZeroDivisionError as err:
        raise _Fault(_FAULT_REASON[str(err)]) from None


class _Machine:
    """One statement execution or one loop-condition test costs one step;
    the step that goes over the budget stops the run before it executes."""

    def __init__(self, env, budget):
        self.env = env
        self.budget = budget
        self.steps = 0
        self.stmt_id = None

    def tick(self, stmt_id):
        self.steps += 1
        if self.steps > self.budget:
            raise _OutOfSteps(stmt_id)

    def block(self, block):
        for stmt in block.stmts:
            self.tick(stmt.stmt_id)
            self.stmt_id = stmt.stmt_id
            if isinstance(stmt, ast.Assign):
                self.env[stmt.target] = _value(stmt.expr, self.env)
            elif isinstance(stmt, ast.If):
                self.block(stmt.then if _truth(stmt.cond, self.env) else stmt.orelse)
            elif isinstance(stmt, ast.While):
                while _truth(stmt.cond, self.env):
                    self.block(stmt.body)
                    self.tick(stmt.stmt_id)
                    self.stmt_id = stmt.stmt_id


def ref_run(program, inputs, budget):
    """(status, final state, detail) of one run."""
    env = dict(inputs)
    for name in program.out_params:
        env[name] = 0
    for name in program.locals:
        env[name] = 0
    machine = _Machine(env, budget)
    try:
        machine.block(program.body)
    except _OutOfSteps as stop:
        return "budget_exceeded", env, f"step budget exceeded at statement {stop.stmt_id}"
    except _Fault as fault:
        return "fault", env, f"{fault.reason} at statement {machine.stmt_id}"
    return "ok", env, None


def domain_points(ranges):
    """Assignments in the documented order: names sorted, values ascending."""
    names = sorted(ranges)
    spans = [range(ranges[n][0], ranges[n][1] + 1) for n in names]
    for values in itertools.product(*spans):
        yield dict(zip(names, values))


def ref_check(program, pre, post, ranges, budget):
    """The expected `check --format machine` payload (minus the header)."""
    checked = 0
    verdict, witness = "verified", None
    for inputs in domain_points(ranges):
        try:
            if not _truth(pre, dict(inputs)):
                continue
        except _Fault as fault:
            verdict = "fault"
            witness = {"inputs": inputs, "final": None,
                       "detail": f"precondition fault: {fault.reason}"}
            break
        checked += 1
        status, final, detail = ref_run(program, inputs, budget)
        if status != "ok":
            verdict = status
            witness = {"inputs": inputs, "final": final, "detail": detail}
            break
        try:
            holds = _truth(post, final)
        except _Fault as fault:
            verdict = "fault"
            witness = {"inputs": inputs, "final": final,
                       "detail": f"postcondition fault: {fault.reason}"}
            break
        if not holds:
            verdict = "counterexample"
            witness = {"inputs": inputs, "final": final, "detail": "postcondition is false"}
            break
    if verdict == "verified" and checked == 0:
        verdict = "vacuous"
    if verdict in ("verified", "counterexample", "vacuous"):
        # the step-counting machine above must agree with bf_check itself
        bf_verdict, bf_witness = bf_check(program, pre, post, ranges)
        got = None if witness is None else witness["inputs"]
        if (bf_verdict, bf_witness) != (verdict, got):
            raise AssertionError(f"reference disagrees with bf_check: {verdict} vs {bf_verdict}")
    return {"verdict": verdict, "witness": witness, "checked_points": checked,
            "domain": domain_text(ranges)}


# --- bounded implication and subsumption ----------------------------------


def free_names(node, bound=frozenset()):
    if isinstance(node, ast.Var):
        return set() if node.name in bound else {node.name}
    if isinstance(node, ast.Exists):
        return free_names(node.body, bound | {node.var})
    found = set()
    for field in ("operand", "left", "right"):
        child = getattr(node, field, None)
        if child is not None:
            found |= free_names(child, bound)
    return found


def ref_implies(p1, p2, ranges):
    """(holds, first counterexample over the full grid or None)."""
    for point in domain_points(ranges):
        if bf_holds(p1, dict(point)) and not bf_holds(p2, dict(point)):
            return False, point
    return True, None


def ref_subsumed_by(c1, c2, ranges, out_ranges):
    pre = ref_implies(c1[0], c2[0], ranges)
    if not pre[0]:
        return {"holds": False, "pre": list(pre), "post": None}
    post_ranges = dict(ranges)
    for name in sorted((free_names(c1[1]) | free_names(c2[1])) - set(ranges)):
        post_ranges[name] = tuple(out_ranges[name])
    post = ref_implies(c1[1], c2[1], post_ranges)
    return {"holds": post[0], "pre": list(pre), "post": list(post)}


# --- deletion and slicing ---------------------------------------------------


def all_units(program):
    """Statement units in pre-order, then else-clause units by anchor."""
    stmts = list(_walk(program.body))
    units = [(STATEMENT, s.stmt_id) for s in stmts]
    units += [(ELSE_CLAUSE, s.stmt_id) for s in stmts
              if isinstance(s, ast.If) and s.orelse.stmts]
    return units


def _walk(block):
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _walk(stmt.then)
            yield from _walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            yield from _walk(stmt.body)


def delete(program, units):
    gone = {anchor for kind, anchor in units if kind == STATEMENT}
    no_else = {anchor for kind, anchor in units if kind == ELSE_CLAUSE}

    def keep(block):
        out = []
        for stmt in block.stmts:
            if stmt.stmt_id in gone:
                continue
            if isinstance(stmt, ast.If):
                orelse = ast.Block() if stmt.stmt_id in no_else else keep(stmt.orelse)
                stmt = ast.If(stmt.stmt_id, stmt.cond, keep(stmt.then), orelse)
            elif isinstance(stmt, ast.While):
                stmt = ast.While(stmt.stmt_id, stmt.cond, keep(stmt.body))
            out.append(stmt)
        return ast.Block(tuple(out))

    return ast.Program(program.name, program.params, program.locals, keep(program.body))


def shape(node):
    """Structure with statement ids dropped, for comparing against reparsed text."""
    if isinstance(node, ast.Program):
        return (node.name, node.params, node.locals, shape(node.body))
    if isinstance(node, ast.Block):
        return tuple(shape(s) for s in node.stmts)
    if isinstance(node, ast.Assign):
        return ("assign", node.target, node.expr)
    if isinstance(node, ast.Skip):
        return ("skip",)
    if isinstance(node, ast.If):
        return ("if", node.cond, shape(node.then), shape(node.orelse))
    return ("while", node.cond, shape(node.body))


def verifies(program, pre, post, ranges):
    return bf_check(program, pre, post, ranges)[0] == "verified"


def min_retained(program, pre, post, ranges):
    """Fewest units any verified deletion-derived program keeps (all subsets)."""
    units = all_units(program)
    seen = {}
    best = len(units)
    for size in range(len(units) + 1):
        for subset in itertools.combinations(units, size):
            candidate = delete(program, subset)
            if candidate not in seen:
                seen[candidate] = verifies(candidate, pre, post, ranges)
            if seen[candidate]:
                best = min(best, len(all_units(candidate)))
    return best


def greedy_retained(program, pre, post, ranges):
    """Single pass over the units in reverse order, keeping every deletion
    that still verifies; returns the retained units of the result."""
    deleted = []
    current = program
    for unit in reversed(all_units(program)):
        if unit not in all_units(current):
            continue  # nested inside something already deleted
        candidate = delete(program, deleted + [unit])
        if verifies(candidate, pre, post, ranges):
            deleted.append(unit)
            current = candidate
    return sorted(all_units(current))


def pre_count(pre, ranges):
    return sum(1 for point in domain_points(ranges) if bf_holds(pre, dict(point)))
