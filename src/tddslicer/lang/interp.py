"""Deterministic interpreter with state-trajectory tracing.

Programs and predicates are lowered once into nested Python closures
(closure compilation, after Feeley & Lapalme, "Using Closures for Code
Generation", 1987) and the closures then run once per input. A program is
compiled on its first run and kept on the Program instance; a run that
keeps only some statements (a slice candidate) composes its body from the
same compiled statements. A predicate is compiled by compile_bool, once
per contract: its Prepared value (predicates) keeps the closure. runner,
made once per (program, budget, kept-set), is the one per-run core: the
verifier's scans call it per point for a plain tuple; run wraps it with
the input checks and returns a RunResult. Every run runs on the closures.

loop_nest emits a whole scan as one Python function (operator fusion,
after Neumann, "Efficiently Compiling Efficient Query Plans for Modern
Hardware", VLDB 2011): a for loop per domain variable, the precondition,
the program's statements and the postcondition inline. It gives the first
point that does not pass and the count before it; the verifier words
that point's outcome on the closures. where emits the precondition half
of a scan the same way: a generator of the points where one of several
predicates holds or raises, for check_all and implies. Both compile only
for NEST_FROM_POINTS points or more, the one gate: fewer do not repay the
compile, and their callers judge those on the closures.

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

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from ..errors import TOO_DEEP, EvaluationFault, ParseError, UnboundVariableError
from . import ast

DEFAULT_STEP_BUDGET = 10000

#: domain points from which loop_nest and where compile a scan: fewer do
#: not repay the compile
NEST_FROM_POINTS = 120

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


def _compile_expr(expr: ast.Expr) -> Callable:
    if isinstance(expr, ast.Var):
        return operator.itemgetter(expr.name)
    if isinstance(expr, ast.IntLit):
        value = expr.value
        return lambda state: value
    if isinstance(expr, ast.Neg):
        operand = _compile_expr(expr.operand)
        return lambda state: -operand(state)
    if isinstance(expr, ast.Arith):
        left, right = _compile_expr(expr.left), _compile_expr(expr.right)
        return _binary(_ARITH[expr.op], expr, left, right)
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


def _compile_pred(pred: ast.BoolExpr) -> Callable:
    if isinstance(pred, ast.Cmp):
        left, right = _compile_expr(pred.left), _compile_expr(pred.right)
        return _binary(_CMP[pred.op], pred, left, right)
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
        return _compile_exists(pred, _compile_pred(pred.body))
    raise TypeError(f"not a boolean expression: {pred!r}")


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


def compile_bool(pred: ast.BoolExpr) -> Callable[[dict[str, int]], bool]:
    """Lower a boolean expression or predicate once into a function of the
    state, for callers that evaluate it at many points.

    Short-circuit semantics; bounded existentials enumerate their range in
    ascending order and leave the state as they found it. The function
    raises UnboundVariableError when the state misses a free variable and
    EvaluationFault on arithmetic faults. Compiling raises ParseError(TOO_DEEP)
    for a predicate too deeply nested, as parsing does.
    """
    try:
        test = _compile_pred(pred)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None

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


# --- compiled scans ---------------------------------------------------------
#
# A whole scan emitted as the Python source of one function and compiled by
# Python: the statements inline, the program variables locals named
# v_<name>, each step counted in the local left.


def _faulting(fn: Callable) -> Callable:
    """fn, an arithmetic operator that can fault, taking the id of the
    statement it is in and raising the fault as that statement's _Stop."""

    def apply(a: int, b: int, stmt_id: int) -> int:
        try:
            return fn(a, b)
        except EvaluationFault as fault:
            raise _Stop(FAULT, stmt_id, fault.reason) from None

    return apply


_SOURCE_GLOBALS = {
    "__builtins__": {},
    "_Stop": _Stop,
    "BUDGET_EXCEEDED": BUDGET_EXCEEDED,
    "Exception": Exception,
    "any": any,
    "range": range,
    "_BUDGET_REASON": _BUDGET_REASON,
    "_div": _faulting(trunc_div),
    "_mod": _faulting(trunc_mod),
    "_pow": _faulting(_power),
}
_HELPERS = {"/": "_div", "%": "_mod", "^": "_pow"}


class _Emitter:
    """The source of one program's statements, kept-set and variables:
    lines of (indent, text). A name that is not a declared ASCII
    identifier is a ValueError, so no generated name can clash."""

    def __init__(self, names: tuple[str, ...], kept: frozenset[int] | None):
        self.names = frozenset(names)
        self.kept = kept
        self.lines: list[tuple[int, str]] = []
        for name in names:
            self.var(name)

    def var(self, name: str) -> str:
        if name not in self.names or not (name.isascii() and name.isidentifier()):
            raise ValueError(f"not a declared identifier: {name!r}")
        return "v_" + name

    def expr(self, expr: ast.Expr, sid: int) -> str:
        if isinstance(expr, ast.Var):
            return self.var(expr.name)
        if isinstance(expr, ast.IntLit):
            return f"({expr.value!r})" if expr.value < 0 else repr(expr.value)
        if isinstance(expr, ast.Neg):
            return f"(-{self.expr(expr.operand, sid)})"
        left, right = self.expr(expr.left, sid), self.expr(expr.right, sid)
        if expr.op in _HELPERS:
            return f"{_HELPERS[expr.op]}({left}, {right}, {sid})"
        return f"({left} {expr.op} {right})"

    def pred(self, pred: ast.BoolExpr, sid: int) -> str:
        if isinstance(pred, ast.Cmp):
            return f"({self.expr(pred.left, sid)} {pred.op} {self.expr(pred.right, sid)})"
        if isinstance(pred, ast.Not):
            return f"(not {self.pred(pred.operand, sid)})"
        if isinstance(pred, (ast.And, ast.Or)):
            word = "and" if isinstance(pred, ast.And) else "or"
            return f"({self.pred(pred.left, sid)} {word} {self.pred(pred.right, sid)})"
        if isinstance(pred, ast.BoolLit):
            return repr(pred.value)
        # an exists: the bound variable is the generator's own
        outer, self.names = self.names, self.names | {pred.var}
        body, bound = self.pred(pred.body, sid), self.var(pred.var)
        self.names = outer
        return f"any({body} for {bound} in range({pred.lo!r}, {pred.hi + 1!r}))"

    def block(self, block: ast.Block, depth: int) -> bool:
        """Emit block's kept statements; whether there was any."""
        start = len(self.lines)
        for stmt in block.stmts:
            if self.kept is None or stmt.stmt_id in self.kept:
                self.stmt(stmt, depth)
        return len(self.lines) > start

    def stmt(self, stmt: ast.Stmt, depth: int) -> None:
        sid, emit = stmt.stmt_id, self.lines.append
        if isinstance(stmt, ast.While):
            emit((depth, "while True:"))
            depth += 1
        emit((depth, "left -= 1"))
        emit((depth, f"if left < 0: raise _Stop(BUDGET_EXCEEDED, {sid}, _BUDGET_REASON)"))
        if isinstance(stmt, ast.Assign):
            emit((depth, f"{self.var(stmt.target)} = {self.expr(stmt.expr, sid)}"))
        elif isinstance(stmt, ast.If):
            emit((depth, f"if {self.pred(stmt.cond, sid)}:"))
            if not self.block(stmt.then, depth + 1):
                emit((depth + 1, "pass"))
            orelse = len(self.lines)
            if self.block(stmt.orelse, depth + 1):
                self.lines.insert(orelse, (depth, "else:"))
        elif isinstance(stmt, ast.While):
            emit((depth, f"if not {self.pred(stmt.cond, sid)}: break"))
            self.block(stmt.body, depth)


def _load(name: str, function: str, emit: Callable[[], list]) -> Callable | None:
    """The function called function that the source lines emit() define,
    compiled, or None when Python refuses them: source nested too
    deeply (about 200 parentheses, 20 loops, 100 indents) is SyntaxError,
    RecursionError or MemoryError; a hand-built program with a name that
    is not a declared identifier, or an integer too long to print, is
    ValueError."""
    try:
        source = "\n".join("    " * depth + text for depth, text in emit()) + "\n"
        namespace = dict(_SOURCE_GLOBALS)
        exec(compile(source, f"<{name}>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError, ValueError):
        return None
    return namespace[function]


def loop_nest(
    program: ast.Program,
    step_budget: int,
    kept: frozenset[int] | None,
    ranges: tuple[tuple[str, int, int], ...],
    pre: ast.BoolExpr,
    post: ast.BoolExpr,
) -> Callable[[], tuple] | None:
    """`scan()`, compiled, or None for fewer than NEST_FROM_POINTS points,
    a step_budget below 1 or source Python refuses (see _load). scan
    judges pre holds -> run -> post holds at each point of ranges, the
    in-parameters' (name, lo, hi) in name order, one for loop each, with
    the kept statements inline. It returns (None, count) or, at the first
    point where pre raises, the run ends other than ok, or post is false
    or raises, (inputs, count); count is the points before it where pre
    held."""
    if math.prod(hi - lo + 1 for _, lo, hi in ranges) < NEST_FROM_POINTS or step_budget < 1:
        return None

    def source() -> list:
        zeroed = (*program.out_params, *program.locals)
        emitter = _Emitter((*program.in_params, *zeroed), kept)
        inner = len(ranges) + 2  # the depth of one point's statements
        emitter.block(program.body, inner)
        point = ", ".join(f"{name!r}: i_{name}" for name, _, _ in ranges)
        return [
            (0, "def scan():"),
            (1, "count = 0"),
            *[(depth, f"for i_{name} in range({lo!r}, {hi + 1!r}):")
              for depth, (name, lo, hi) in enumerate(ranges, 1)],
            (inner - 1, "try:"),
            *[(inner, f"v_{name} = i_{name}") for name, _, _ in ranges],
            (inner, f"if not {emitter.pred(pre, None)}: continue"),
            *[(inner, f"v_{name} = 0") for name in zeroed],
            (inner, f"left = {step_budget!r}"),
            *emitter.lines,
            (inner, f"if {emitter.pred(post, None)}:"),
            (inner + 1, "count += 1"),
            (inner + 1, "continue"),
            (inner - 1, "except Exception:"),
            (inner, "pass"),
            (inner - 1, f"return {{{point}}}, count"),
            (1, "return None, count"),
        ]

    return _load(program.name, "scan", source)


def where(
    ranges: tuple[tuple[str, int, int], ...], preds: tuple[ast.BoolExpr, ...]
) -> Callable[[], Iterator[tuple[dict[str, int], tuple]]] | None:
    """`visits()`, compiled, or None for fewer than NEST_FROM_POINTS points
    or source Python refuses (see _load). visits judges each of preds at
    each point of ranges, (name, lo, hi) in name order, one for loop each,
    and yields (point, held) in that order wherever one of them holds or
    raises: point is a new dict binding the names in order, held a tuple
    with True, False or, where it raised, None for each of preds."""
    if math.prod(hi - lo + 1 for _, lo, hi in ranges) < NEST_FROM_POINTS:
        return None

    def source() -> list:
        emitter = _Emitter(tuple(name for name, _, _ in ranges), None)
        inner = len(ranges) + 1  # the depth of one point's judging
        point = ", ".join(f"{name!r}: v_{name}" for name, _, _ in ranges)
        lines = [(0, "def visits():")]
        lines += [(depth, f"for v_{name} in range({lo!r}, {hi + 1!r}):")
                  for depth, (name, lo, hi) in enumerate(ranges, 1)]
        for n, pred in enumerate(preds):
            lines += [
                (inner, "try:"),
                (inner + 1, f"h_{n} = {emitter.pred(pred, None)}"),
                (inner, "except Exception:"),
                (inner + 1, f"h_{n} = None"),
            ]
        held = "".join(f"h_{n}, " for n in range(len(preds)))
        return [
            *lines,
            (inner, f"held = ({held})"),
            (inner, f"if held != {(False,) * len(preds)!r}:"),
            (inner + 1, f"yield {{{point}}}, held"),
        ]

    return _load("where", "visits", source)


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
