"""Deterministic interpreter with state-trajectory tracing.

Programs and predicates are lowered once into nested Python closures
(closure compilation, after Feeley & Lapalme, "Using Closures for Code
Generation", 1987) and the closures then run once per input. A program is
compiled on its first run and kept on the Program instance; a predicate is
compiled by compile_bool, once per query by the callers that evaluate it
at many points.

A run produces the final state plus, when recorded, the trajectory: one
(stmt_id, var, value) entry per executed assignment, in execution order.
Every statement execution event costs one step against the budget; a
While costs one step per condition evaluation, so even an empty loop body
exhausts the budget.

Integers are Python ints (arbitrary precision), so overflow cannot occur;
division/modulo by zero and negative exponents are runtime faults carried
in the result, not exceptions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..errors import EvaluationFault, UnboundVariableError
from . import ast

DEFAULT_STEP_BUDGET = 10000

#: pass for `vars` in project() to keep everything
ALL = None

OK = "ok"
FAULT = "fault"
BUDGET_EXCEEDED = "budget_exceeded"

_BUDGET_REASON = "step budget exceeded"


class TrajectoryEntry(NamedTuple):
    stmt_id: int
    var: str
    value: int


Trajectory = tuple[TrajectoryEntry, ...]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: final state and trajectory are partial when the
    status is not "ok" (they cover everything executed up to the fault or
    budget exhaustion). The trajectory is empty for an unrecorded run."""

    status: str
    final: dict[str, int]
    trajectory: Trajectory
    steps: int
    fault_stmt_id: int | None = None
    fault_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C++ semantics)."""
    if b == 0:
        raise EvaluationFault("division by zero")
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return q


def trunc_mod(a: int, b: int) -> int:
    """Remainder satisfying a == trunc_div(a, b) * b + trunc_mod(a, b)."""
    if b == 0:
        raise EvaluationFault("modulo by zero")
    return a - trunc_div(a, b) * b


def _power(a: int, b: int) -> int:
    if b < 0:
        raise EvaluationFault("negative exponent")
    return a**b


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": trunc_div,
    "%": trunc_mod,
    "^": _power,
}

_CMP = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# --- expressions and predicates --------------------------------------------
#
# A compiled expression or predicate is a function of the state dict. A
# variable missing from the state surfaces as the KeyError of the dict
# lookup; the public entry points (compile_bool, run) turn it into
# UnboundVariableError.


def _compile_expr(expr: ast.Expr) -> Callable[[dict[str, int]], int]:
    if isinstance(expr, ast.Var):
        return operator.itemgetter(expr.name)
    if isinstance(expr, ast.IntLit):
        value = expr.value
        return lambda state: value
    if isinstance(expr, ast.Neg):
        operand = _compile_expr(expr.operand)
        return lambda state: -operand(state)
    if isinstance(expr, ast.Arith):
        return _binary(_ARITH[expr.op], expr, _compile_expr(expr.left), _compile_expr(expr.right))
    raise TypeError(f"not an arithmetic expression: {expr!r}")


def _binary(fn, node, left, right):
    """Apply fn to node's operands, left first. left and right are the
    compiled operands; variables and literals are read inline instead,
    saving a call per operand (`t - y`, `q + 1`, `x > 0`).

    The operands are compiled by the caller, so a deep expression costs
    one Python frame per nesting level to compile and to run, as it did
    to parse.
    """
    if isinstance(node.left, ast.Var):
        name = node.left.name
        if isinstance(node.right, ast.Var):
            other = node.right.name
            return lambda state: fn(state[name], state[other])
        if isinstance(node.right, ast.IntLit):
            value = node.right.value
            return lambda state: fn(state[name], value)
    if isinstance(node.right, ast.IntLit):
        value = node.right.value
        return lambda state: fn(left(state), value)
    return lambda state: fn(left(state), right(state))


def _compile_pred(pred: ast.BoolExpr) -> Callable[[dict[str, int]], bool]:
    if isinstance(pred, ast.Cmp):
        return _binary(_CMP[pred.op], pred, _compile_expr(pred.left), _compile_expr(pred.right))
    if isinstance(pred, ast.And):
        left, right = _compile_pred(pred.left), _compile_pred(pred.right)
        return lambda state: left(state) and right(state)
    if isinstance(pred, ast.Or):
        left, right = _compile_pred(pred.left), _compile_pred(pred.right)
        return lambda state: left(state) or right(state)
    if isinstance(pred, ast.Not):
        operand = _compile_pred(pred.operand)
        return lambda state: not operand(state)
    if isinstance(pred, ast.BoolLit):
        value = pred.value
        return lambda state: value
    if isinstance(pred, ast.Exists):
        return _compile_exists(pred)
    raise TypeError(f"not a boolean expression: {pred!r}")


def _compile_exists(pred: ast.Exists) -> Callable[[dict[str, int]], bool]:
    """Enumerate the range in ascending order, with the bound variable
    shadowing any same-named variable in state; the state is restored
    afterwards, whatever happens."""
    var, values, body = pred.var, range(pred.lo, pred.hi + 1), _compile_pred(pred.body)

    def exists(state):
        shadowed = var in state
        saved = state.get(var)
        try:
            for value in values:
                state[var] = value
                if body(state):
                    return True
            return False
        finally:
            if shadowed:
                state[var] = saved
            else:
                del state[var]

    return exists


def compile_bool(pred: ast.BoolExpr) -> Callable[[dict[str, int]], bool]:
    """Lower a boolean expression or predicate once into a function of the
    state, for callers that evaluate it at many points.

    Short-circuit semantics; bounded existentials enumerate their range in
    ascending order and leave the state as they found it. The function
    raises UnboundVariableError when the state misses a free variable and
    EvaluationFault on arithmetic faults.
    """
    test = _compile_pred(pred)

    def holds(state: dict[str, int]) -> bool:
        try:
            return test(state)
        except KeyError as missing:
            raise UnboundVariableError(missing.args[0]) from None

    return holds


# --- statements and programs -------------------------------------------------
#
# A compiled statement is a function of (state, counters). Each one ticks
# its own step, checks the budget, and turns an arithmetic fault in its own
# expression into a _Stop carrying its own statement id.


class _Stop(Exception):
    def __init__(self, status: str, stmt_id: int, reason: str):
        self.status = status
        self.stmt_id = stmt_id
        self.reason = reason


class _Counters:
    """Mutable state of one run shared by the compiled statements: steps
    left in the budget (-1 once exceeded) and the trajectory log, None
    when the run is not recorded."""

    __slots__ = ("left", "log")

    def __init__(self, budget: int, log: list[TrajectoryEntry] | None):
        self.left = budget
        self.log = log


def _compile_block(block: ast.Block) -> tuple:
    """A block compiles to the tuple of its compiled statements; the
    enclosing statement loops over it, which saves a call per block."""
    return tuple(_compile_stmt(stmt) for stmt in block.stmts)


def _compile_stmt(stmt: ast.Stmt):
    if isinstance(stmt, ast.Assign):
        return _compile_assign(stmt)
    if isinstance(stmt, ast.If):
        return _compile_if(stmt)
    if isinstance(stmt, ast.While):
        return _compile_while(stmt)
    if isinstance(stmt, ast.Skip):
        return _compile_skip(stmt)
    raise TypeError(f"not a statement: {stmt!r}")


def _compile_assign(stmt: ast.Assign):
    sid, target, expr = stmt.stmt_id, stmt.target, _compile_expr(stmt.expr)

    def assign(state, counters):
        counters.left -= 1
        if counters.left < 0:
            raise _Stop(BUDGET_EXCEEDED, sid, _BUDGET_REASON)
        try:
            value = expr(state)
        except EvaluationFault as fault:
            raise _Stop(FAULT, sid, fault.reason) from None
        state[target] = value
        if counters.log is not None:
            counters.log.append(TrajectoryEntry(sid, target, value))

    return assign


def _compile_skip(stmt: ast.Skip):
    sid = stmt.stmt_id

    def skip(state, counters):
        counters.left -= 1
        if counters.left < 0:
            raise _Stop(BUDGET_EXCEEDED, sid, _BUDGET_REASON)

    return skip


def _compile_if(stmt: ast.If):
    sid, cond = stmt.stmt_id, _compile_pred(stmt.cond)
    then, orelse = _compile_block(stmt.then), _compile_block(stmt.orelse)

    def if_(state, counters):
        counters.left -= 1
        if counters.left < 0:
            raise _Stop(BUDGET_EXCEEDED, sid, _BUDGET_REASON)
        try:
            taken = cond(state)
        except EvaluationFault as fault:
            raise _Stop(FAULT, sid, fault.reason) from None
        for inner in then if taken else orelse:
            inner(state, counters)

    return if_


def _compile_while(stmt: ast.While):
    sid, cond, body = stmt.stmt_id, _compile_pred(stmt.cond), _compile_block(stmt.body)

    def while_(state, counters):
        while True:
            # the first test and each re-test of the condition is a step
            counters.left -= 1
            if counters.left < 0:
                raise _Stop(BUDGET_EXCEEDED, sid, _BUDGET_REASON)
            try:
                again = cond(state)
            except EvaluationFault as fault:
                raise _Stop(FAULT, sid, fault.reason) from None
            if not again:
                return
            for inner in body:
                inner(state, counters)

    return while_


class _CompiledProgram(NamedTuple):
    in_params: frozenset[str]
    zeroed: dict[str, int]  # out-parameters and locals, all 0
    body: tuple


def _compiled(program: ast.Program) -> _CompiledProgram:
    """The program's compiled form, built on first use and kept on the
    instance (Program is frozen, hence object.__setattr__; equality and
    hashing see only the dataclass fields)."""
    code = program.__dict__.get("_compiled")
    if code is None:
        code = _CompiledProgram(
            frozenset(program.in_params),
            dict.fromkeys((*program.out_params, *program.locals), 0),
            _compile_block(program.body),
        )
        object.__setattr__(program, "_compiled", code)
    return code


def run(
    program: ast.Program,
    inputs: dict[str, int],
    step_budget: int = DEFAULT_STEP_BUDGET,
    *,
    record: bool = True,
) -> RunResult:
    """Execute program with the given in-parameter binding.

    inputs must bind exactly the in-parameters; out-parameters and locals
    start at 0. The result is deterministic and, on success, identical for
    any budget at least as large. With record=False the trajectory is left
    empty (every other field is the same), which saves its cost for callers
    that only judge the final state.
    """
    code = _compiled(program)
    if inputs.keys() != code.in_params:
        missing = sorted(code.in_params - set(inputs))
        extra = sorted(set(inputs) - code.in_params)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise ValueError(f"inputs must bind exactly the in-parameters: {', '.join(parts)}")
    if step_budget < 1:
        raise ValueError("step_budget must be positive")

    state = {**inputs, **code.zeroed}
    log = [] if record else None
    counters = _Counters(step_budget, log)
    try:
        for stmt in code.body:
            stmt(state, counters)
    except _Stop as stop:
        status, stmt_id, reason = stop.status, stop.stmt_id, stop.reason
    except KeyError as missing:
        raise UnboundVariableError(missing.args[0]) from None
    else:
        status, stmt_id, reason = OK, None, None
    return RunResult(
        status=status,
        final=state,
        trajectory=tuple(log) if record else (),
        steps=step_budget - counters.left,
        fault_stmt_id=stmt_id,
        fault_reason=reason,
    )


def project(trajectory: Trajectory, vars: set[str] | None = ALL) -> Trajectory:
    """Keep the entries whose variable is in vars; ALL (None) keeps every
    entry. Order is preserved, so the result is a subsequence of the input.
    """
    return tuple(entry for entry in trajectory if vars is ALL or entry.var in vars)
