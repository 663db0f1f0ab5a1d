"""Deterministic interpreter with state-trajectory tracing.

Programs and predicates are lowered once into nested Python closures
(closure compilation, after Feeley & Lapalme, "Using Closures for Code
Generation", 1987) and the closures then run once per input. A program is
compiled on its first run and kept on the Program instance; a run that
keeps only some statements (a slice candidate) composes its body from the
same compiled statements. A predicate is compiled by compile_bool, once
per query by the callers that evaluate it at many points. Compiled with a
row variable, a predicate judges in one call a row of points that differ
only in that variable, with the work per point done by map, compress and
filter over the row (column at a time, after Boncz et al., "MonetDB/X100",
CIDR 2005) and no generated source. runner, made once per (program,
budget, kept-set), is the one per-run core: the verifier's scans call it
per point for a plain tuple; run wraps it with the input checks and
returns a RunResult.

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
from itertools import compress, filterfalse, repeat
from typing import Callable, NamedTuple

from ..errors import TOO_DEEP, EvaluationFault, ParseError, UnboundVariableError
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
#
# Compiled with a row variable, a node that reads it becomes a _Rows
# instead: a function of (env, values), where values are distinct values
# of the row variable (never none) and env binds the other variables. An
# expression gives its values aligned to values; a predicate gives the
# values at which it holds, in no set order, so the right side of && sees
# only the left side's survivors and the body of exists only the values
# still open. The work per value runs in map, compress and filter. A node
# that does not read the row variable (an exists that binds it included)
# stays a closure of the state and runs once per row. Each test for a
# _Rows starts with `row is not None`, which keeps compiling without a row
# about as cheap as it was before rows.


class _Rows:
    """A node compiled with a row variable that reads it: fn(env, values)."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn


def _aligned(node: ast.Expr, code) -> Callable:
    """An expression, node compiled to code, as a function of (env, values)
    giving its values aligned to values; a closure of the state gives its
    one value, repeated (a literal, one shared endless repeat)."""
    if isinstance(code, _Rows):
        return code.fn
    if isinstance(node, ast.IntLit):
        forever = repeat(node.value)
        return lambda env, values: forever
    return lambda env, values: repeat(code(env))


def _selecting(code) -> Callable:
    """A predicate as a function of (env, values) giving the values at
    which it holds; a closure of the state keeps all of them or none."""
    if isinstance(code, _Rows):
        return code.fn
    return lambda env, values: values if code(env) else []


_ROW_VAR = _Rows(lambda env, values: values)


def _compile_expr(expr: ast.Expr, row: str | None = None) -> Callable:
    if isinstance(expr, ast.Var):
        if row is not None and expr.name == row:
            return _ROW_VAR
        return operator.itemgetter(expr.name)
    if isinstance(expr, ast.IntLit):
        value = expr.value
        return lambda state: value
    if isinstance(expr, ast.Neg):
        operand = _compile_expr(expr.operand, row)
        if row is not None and isinstance(operand, _Rows):
            values_of = operand.fn
            return _Rows(lambda env, values: map(operator.neg, values_of(env, values)))
        return lambda state: -operand(state)
    if isinstance(expr, ast.Arith):
        fn = _ARITH[expr.op]
        left, right = _compile_expr(expr.left, row), _compile_expr(expr.right, row)
        if row is not None and (isinstance(left, _Rows) or isinstance(right, _Rows)):
            return _Rows(_row_binary(fn, expr, left, right))
        return _binary(fn, expr, left, right)
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


def _row_binary(fn, node, left, right) -> Callable:
    """_binary over a row: fn of node's operands, value by value, as a
    function of (env, values); the row variable itself is values."""
    if left is _ROW_VAR:
        rhs = _aligned(node.right, right)
        return lambda env, values: map(fn, values, rhs(env, values))
    lhs = _aligned(node.left, left)
    if right is _ROW_VAR:
        return lambda env, values: map(fn, lhs(env, values), values)
    rhs = _aligned(node.right, right)
    return lambda env, values: map(fn, lhs(env, values), rhs(env, values))


def _compile_pred(pred: ast.BoolExpr, row: str | None = None) -> Callable:
    if isinstance(pred, ast.Cmp):
        op = _CMP[pred.op]
        left, right = _compile_expr(pred.left, row), _compile_expr(pred.right, row)
        if row is not None and (isinstance(left, _Rows) or isinstance(right, _Rows)):
            verdicts = _row_binary(op, pred, left, right)
            return _Rows(lambda env, values: list(compress(values, verdicts(env, values))))
        return _binary(op, pred, left, right)
    if isinstance(pred, ast.And):
        left, right = _compile_pred(pred.left, row), _compile_pred(pred.right, row)
        if row is not None and (isinstance(left, _Rows) or isinstance(right, _Rows)):
            return _row_and(_selecting(left), _selecting(right))
        return lambda state: left(state) and right(state)
    if isinstance(pred, ast.Or):
        left, right = _compile_pred(pred.left, row), _compile_pred(pred.right, row)
        if row is not None and (isinstance(left, _Rows) or isinstance(right, _Rows)):
            return _row_or(_selecting(left), _selecting(right))
        return lambda state: left(state) or right(state)
    if isinstance(pred, ast.Not):
        operand = _compile_pred(pred.operand, row)
        if row is not None and isinstance(operand, _Rows):
            return _row_not(operand.fn)
        return lambda state: not operand(state)
    if isinstance(pred, ast.BoolLit):
        value = pred.value
        return lambda state: value
    if isinstance(pred, ast.Exists):
        body = _compile_pred(pred.body, None if pred.var == row else row)
        if isinstance(body, _Rows):
            return _row_exists(pred, body.fn)
        return _compile_exists(pred, body)
    raise TypeError(f"not a boolean expression: {pred!r}")


def _row_and(left, right) -> _Rows:
    def and_(env, values):
        held = left(env, values)
        return right(env, held) if held else held

    return _Rows(and_)


def _row_or(left, right) -> _Rows:
    def or_(env, values):
        held = left(env, values)
        if not held:
            return right(env, values)
        if len(held) == len(values):
            return held
        hit = set(held)
        return [*held, *right(env, list(filterfalse(hit.__contains__, values)))]

    return _Rows(or_)


def _row_not(operand) -> _Rows:
    def not_(env, values):
        hit = set(operand(env, values))
        return list(filterfalse(hit.__contains__, values))

    return _Rows(not_)


def _compile_exists(pred: ast.Exists, body: Callable) -> Callable[[dict[str, int]], bool]:
    """Enumerate the range in ascending order, with the bound variable
    shadowing any same-named variable in state; the state is restored
    afterwards, whatever happens."""
    var, values = pred.var, range(pred.lo, pred.hi + 1)

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


def _row_exists(pred: ast.Exists, body: Callable) -> _Rows:
    """_compile_exists over a row: each bound value, in ascending order, is
    tried on the row values for which none before it held."""
    var, bound = pred.var, range(pred.lo, pred.hi + 1)

    def exists(env, values):
        shadowed = var in env
        saved = env.get(var)
        found, open_ = [], values
        try:
            for value in bound:
                env[var] = value
                hit = body(env, open_)
                if hit:
                    found += hit
                    if len(found) == len(values):
                        break
                    done = set(hit)
                    open_ = list(filterfalse(done.__contains__, open_))
        finally:
            if shadowed:
                env[var] = saved
            else:
                del env[var]
        return found

    return _Rows(exists)


def compile_bool(pred: ast.BoolExpr, row: str | None = None) -> Callable:
    """Lower a boolean expression or predicate once into a function of the
    state, for callers that evaluate it at many points.

    Short-circuit semantics; bounded existentials enumerate their range in
    ascending order and leave the state as they found it. The function
    raises UnboundVariableError when the state misses a free variable and
    EvaluationFault on arithmetic faults. Compiling raises ParseError(TOO_DEEP)
    for a predicate too deeply nested, as parsing does.

    With row, a variable name, the function judges a row of points that
    differ only in that variable: it takes (env, values), env binding the
    other free variables and values distinct values of row, and returns
    the values at which pred holds, in no set order. It leaves env as it
    found it. It evaluates the parts that do not read row once per call,
    and it raises what it meets, unmapped, also at a value where judging
    the points one by one in order would have stopped earlier; a caller
    that needs the first fault judges the row again, point by point.
    """
    try:
        test = _compile_pred(pred, row)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None
    if row is not None:
        return _selecting(test)

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


class _Part(NamedTuple):
    """One statement, compiled. A leaf (Assign, Skip) is its statement
    function, with blocks None. An If or While is a function of its
    composed blocks that makes the statement function, with blocks the
    parts of its blocks (then and else, or the loop body)."""

    stmt_id: int
    code: Callable
    blocks: tuple | None


def _compile_block(block: ast.Block) -> tuple[_Part, ...]:
    return tuple(_compile_stmt(stmt) for stmt in block.stmts)


def _compile_stmt(stmt: ast.Stmt) -> _Part:
    if isinstance(stmt, ast.Assign):
        return _Part(stmt.stmt_id, _compile_assign(stmt), None)
    if isinstance(stmt, ast.If):
        blocks = (_compile_block(stmt.then), _compile_block(stmt.orelse))
        return _Part(stmt.stmt_id, _compile_if(stmt), blocks)
    if isinstance(stmt, ast.While):
        return _Part(stmt.stmt_id, _compile_while(stmt), (_compile_block(stmt.body),))
    if isinstance(stmt, ast.Skip):
        return _Part(stmt.stmt_id, _compile_skip(stmt), None)
    raise TypeError(f"not a statement: {stmt!r}")


def _compose(parts: tuple[_Part, ...], kept: frozenset[int]) -> tuple:
    """The block of parts with only the statements whose id is in kept (a
    statement whose enclosing statement is not kept is gone with it), as
    the tuple of its statement functions; the enclosing statement loops
    over it, which saves a call per block. Leaves are shared; each If and
    While is made anew around its composed blocks."""
    return tuple([
        code if blocks is None else code(*[_compose(block, kept) for block in blocks])
        for stmt_id, code, blocks in parts
        if stmt_id in kept
    ])


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

    def make(then: tuple, orelse: tuple):
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

    return make


def _compile_while(stmt: ast.While):
    sid, cond = stmt.stmt_id, _compile_pred(stmt.cond)

    def make(body: tuple):
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

    return make


class _CompiledProgram(NamedTuple):
    in_params: frozenset[str]
    zeroed: dict[str, int]  # out-parameters and locals, all 0
    parts: tuple[_Part, ...]  # the body's statements
    body: tuple  # every statement kept


def _compiled(program: ast.Program) -> _CompiledProgram:
    """The program's compiled form, built on first use and kept on the
    instance (Program is frozen, hence object.__setattr__; equality and
    hashing see only the dataclass fields). ParseError(TOO_DEEP) for a
    program too deeply nested to compile, as parsing does."""
    code = program.__dict__.get("_compiled")
    if code is None:
        try:
            parts = _compile_block(program.body)
        except RecursionError:
            raise ParseError(TOO_DEEP) from None
        everything = frozenset(stmt.stmt_id for stmt in program.statements())
        code = _CompiledProgram(
            frozenset(program.in_params),
            dict.fromkeys((*program.out_params, *program.locals), 0),
            parts,
            _compose(parts, everything),
        )
        object.__setattr__(program, "_compiled", code)
    return code


def runner(
    program: ast.Program,
    step_budget: int,
    *,
    record: bool = False,
    kept: frozenset[int] | None = None,
) -> Callable[[dict[str, int]], tuple]:
    """The per-run core: program as a function of its inputs that returns
    the plain tuple of run's RunResult fields, (status, final, trajectory,
    steps, fault_stmt_id, fault_reason). It does not check the inputs. A
    budget below 1 or a program too deep to compile makes a function that
    raises, when called, what run raises: a scan meets the error at its
    first point that runs, and not at all if none does.

    kept, a frozenset of statement ids (None keeps all), runs the program
    as if every statement outside it, with everything inside that one, had
    been deleted (ids unchanged), as the slicer's deletions do: the result
    equals that of running the program so built. The original is compiled
    once; runner composes kept's body from its compiled statements.
    """
    if step_budget < 1:
        return _refuse(ValueError, "step_budget must be positive")
    try:
        code = _compiled(program)
    except ParseError:
        return _refuse(ParseError, TOO_DEEP)
    body = code.body if kept is None else _compose(code.parts, kept)
    zeroed = code.zeroed

    def execute(inputs: dict[str, int]) -> tuple:
        state = {**inputs, **zeroed}
        counters = _Counters(step_budget, [] if record else None)
        try:
            for stmt in body:
                stmt(state, counters)
        except _Stop as stop:
            status, stmt_id, reason = stop.status, stop.stmt_id, stop.reason
        except KeyError as missing:
            raise UnboundVariableError(missing.args[0]) from None
        else:
            status, stmt_id, reason = OK, None, None
        trajectory = tuple(counters.log) if record else ()
        return status, state, trajectory, step_budget - counters.left, stmt_id, reason

    return execute


def _refuse(error: type[Exception], message: str):
    def refuse(inputs):
        raise error(message)

    return refuse


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
    that only judge the final state. Callers that run one program at many
    points use runner instead, which checks nothing per run and builds no
    RunResult.
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
    return RunResult(*runner(program, step_budget, record=record)(inputs))


def project(trajectory: Trajectory, vars: set[str] | None = ALL) -> Trajectory:
    """Keep the entries whose variable is in vars; ALL (None) keeps every
    entry. Order is preserved, so the result is a subsequence of the input.
    """
    return tuple(entry for entry in trajectory if vars is ALL or entry.var in vars)
