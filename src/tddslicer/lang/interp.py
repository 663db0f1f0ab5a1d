"""Deterministic interpreter with state-trajectory tracing.

Programs and predicates are lowered once into nested Python closures
(closure compilation, after Feeley & Lapalme, "Using Closures for Code
Generation", 1987) and the closures then run once per input. A program is
compiled on its first run and kept on the Program instance; a run that
keeps only some statements (a slice candidate) composes its body from the
same compiled statements. A predicate is compiled by compile_bool, once
per node: the node keeps its closure (predicates.closure). runner,
made once per (program, budget, kept-set), is the one per-run core: the
verifier's scans call it per point for a plain tuple; run wraps it with
the input checks and returns a RunResult. A run runs on the closures
unless its caller knows that it will call the runner NEST_FROM_POINTS
times or more (replay for a snapshot's tests): then runner emits the
unrecorded run as one Python function, _Emitter's statements inline,
and the closures run only the points where it raises.

loop_nest emits a whole scan as one Python function (operator fusion,
after Neumann, "Efficiently Compiling Efficient Query Plans for Modern
Hardware", VLDB 2011): a for loop per domain variable, each conjunct of
the precondition in the outermost loop that binds what it reads, the
program's statements with one budget charge per block, and the
postcondition, all inline. It gives the first point that does not pass
and the count before it; the verifier words that point's outcome on the
closures. where emits the precondition half of a scan the same way: a
generator of the points where one of several predicates holds or raises,
read only through predicates.visits, which gives check_all, implies and
Judge.check's fallback their points. Both place conjuncts by one rule
(_Emitter.placed): a top-level conjunct is judged in the outermost loop
that binds what it, or a conjunct before it, reads, except that one that
can raise (a /, % or ^ that ast.fault_free, implies' interval walk, cannot
clear over the scan's ranges), and every one after it, is judged in the
innermost loop; && judges left to right, so the results are the same,
and no outer loop raises. loop_nest gives each conjunct a line and an
exists a for loop of its own; where judges what a predicate places in a
loop with one expression, an exists in it as any(...), and a loop where
every predicate is already false skips the loops inside it. Both compile
only for NEST_FROM_POINTS points or more, and runner only for as many
calls, the one gate: fewer do not repay the compile, and their callers
judge those on the closures.

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
from collections import namedtuple
from collections.abc import Callable, Iterator

from ..errors import TOO_DEEP, EvaluationFault, ParseError, UnboundVariableError
from . import ast
from .ast import Record

DEFAULT_STEP_BUDGET = 10000

#: domain points from which loop_nest and where compile a scan, and calls
#: from which runner compiles a run: fewer do not repay the compile
NEST_FROM_POINTS = 120

OK = "ok"
FAULT = "fault"
BUDGET_EXCEEDED = "budget_exceeded"

_BUDGET_REASON = "step budget exceeded"


#: one assignment of a run: stmt_id (int), var (str) and the value (int)
#: it assigned
TrajectoryEntry = namedtuple("TrajectoryEntry", ("stmt_id", "var", "value"))


Trajectory = tuple[TrajectoryEntry, ...]


class RunResult(Record, defaults={"fault_stmt_id": None, "fault_reason": None}):
    """Outcome of one run: final state and trajectory are partial when the
    status is not "ok" (they cover everything executed up to the fault or
    budget exhaustion). The trajectory is empty for an unrecorded run."""

    __slots__ = ("status", "final", "trajectory", "steps", "fault_stmt_id", "fault_reason")
    status: str
    final: dict[str, int]
    trajectory: Trajectory
    steps: int
    fault_stmt_id: int | None
    fault_reason: str | None

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
    if isinstance(pred, (ast.And, ast.Or)):
        return join_pairwise(list(map(_compile_pred, pred.operands)), type(pred))
    if isinstance(pred, ast.Not):
        operand = _compile_pred(pred.operand)
        return lambda state: not operand(state)
    if isinstance(pred, ast.BoolLit):
        value = pred.value
        return lambda state: value
    if isinstance(pred, ast.Exists):
        return _compile_exists(pred, _compile_pred(pred.body))
    raise TypeError(f"not a boolean expression: {pred!r}")


#: the closure of two closures joined by && or ||
_JOIN = {ast.And: lambda left, right: lambda state: left(state) and right(state),
         ast.Or: lambda left, right: lambda state: left(state) or right(state)}


def join_pairwise(tests: list[Callable], kind: type[ast.And] | type[ast.Or]) -> Callable:
    """The closure of a kind (And or Or) node of tests, its operands' closures,
    joined neighbours first: n - 1 joins, as a binary chain, log2(n) deep."""
    join = _JOIN[kind]
    while len(tests) > 1:
        pairs = [join(tests[i], tests[i + 1]) for i in range(0, len(tests) - 1, 2)]
        tests = pairs + tests[len(pairs) * 2:]
    return tests[0]


def _compile_exists(pred: ast.Exists, body: Callable) -> Callable[[dict[str, int]], bool]:
    """Enumerate the range in ascending order, with the bound variable
    shadowing any same-named variable in state; the state is restored
    afterwards, whatever happens, an empty range included."""
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
                state.pop(var, None)

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


#: one statement, compiled: a leaf (Assign, Skip) is its statement
#: function, with blocks None; an If or While is a function of its composed
#: blocks that makes the statement function, with blocks the parts of its
#: blocks (then and else, or the loop body)
_Part = namedtuple("_Part", ("stmt_id", "code", "blocks"))


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


#: a program compiled: its in-parameters (a frozenset), zeroed (its
#: out-parameters and locals, all 0), parts (its body's statements) and
#: body (every statement kept)
_CompiledProgram = namedtuple("_CompiledProgram", ("in_params", "zeroed", "parts", "body"))


def _compiled(program: ast.Program) -> _CompiledProgram:
    """The program's compiled form, built on first use and kept on the
    instance, in its _compiled slot (Program is frozen, hence
    object.__setattr__; equality, hashing and repr see only its fields).
    ParseError(TOO_DEEP) for a program too deeply nested to compile, as
    parsing does."""
    try:
        return program._compiled
    except AttributeError:
        pass
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
# v_<name>. Each block charges the local left, on entry, with every step
# that its own level takes, so one subtraction and one test pay for the
# block. A scan stops at any exception, whatever raised it, and gives the
# point: its caller judges that point again on the closures, which word
# the fault or the budget.


_SOURCE_GLOBALS = {
    "__builtins__": {},
    "Exception": Exception,
    "any": any,
    "range": range,
    "_div": trunc_div,
    "_mod": trunc_mod,
    "_pow": _power,
}
_HELPERS = {"/": "_div", "%": "_mod", "^": "_pow"}
#: how tightly Python binds the operators the source writes as they are
_BINDS = {"+": 1, "-": 1, "*": 2}


def _python(prefix: str, name: str) -> str:
    """prefix + name, the Python name of a variable; a name that is not
    an ASCII identifier is a ValueError, so no generated name can clash."""
    if not (name.isascii() and name.isidentifier()):
        raise ValueError(f"not a declared identifier: {name!r}")
    return prefix + name


class _Emitter:
    """The source of one program's statements, kept-set and variables:
    lines of (indent, text). A declared variable is prefix + its name; a
    name that is not declared is a ValueError. An exists variable is
    e_<name> in its body, and a ^ whose exponent is a literal >= 0 is
    Python's **. read holds the Python names of the variables written, and
    called whether a call to _div, _mod or _pow has been written, since
    placed last reset them."""

    def __init__(self, names: tuple[str, ...], kept: frozenset[int] | None, prefix: str = "v_"):
        self.names = {name: _python(prefix, name) for name in names}
        self.kept = kept
        self.lines: list[tuple[int, str]] = []
        self.read: set[str] = set()
        self.called = False

    def var(self, name: str) -> str:
        try:
            python = self.names[name]
        except KeyError:
            raise ValueError(f"not a declared identifier: {name!r}") from None
        self.read.add(python)
        return python

    def expr(self, expr: ast.Expr, bind: int = 0) -> str:
        """expr's source, in parentheses where Python binds it no more
        tightly than bind asks: + and - bind 1, * binds 2, and the rest
        (a name, a literal, a call, a parenthesized power or negation) 3.
        An operand of + - * is bare only where it binds more tightly than
        its operator, so a chain of one operator nests as the tree does."""
        if isinstance(expr, ast.Var):
            return self.var(expr.name)
        if isinstance(expr, ast.IntLit):
            return f"({expr.value!r})" if expr.value < 0 else repr(expr.value)
        if isinstance(expr, ast.Neg):
            return f"(-{self.expr(expr.operand, 3)})"
        if expr.op in _BINDS:
            binds = _BINDS[expr.op]
            text = f"{self.expr(expr.left, binds + 1)} {expr.op} {self.expr(expr.right, binds + 1)}"
            return f"({text})" if binds < bind else text
        if expr.op == "^" and isinstance(expr.right, ast.IntLit) and expr.right.value >= 0:
            return f"({self.expr(expr.left, 3)} ** {expr.right.value!r})"
        self.called = True
        return f"{_HELPERS[expr.op]}({self.expr(expr.left)}, {self.expr(expr.right)})"

    def pred(self, pred: ast.BoolExpr) -> str:
        """pred's source: a comparison bare, as every context it meets
        binds less tightly, and and, or and not in parentheses."""
        if isinstance(pred, ast.Cmp):
            return f"{self.expr(pred.left)} {pred.op} {self.expr(pred.right)}"
        if isinstance(pred, ast.Not):
            return f"(not {self.pred(pred.operand)})"
        if isinstance(pred, (ast.And, ast.Or)):
            word = " and " if isinstance(pred, ast.And) else " or "
            return f"({word.join(map(self.pred, pred.operands))})"
        if isinstance(pred, ast.BoolLit):
            return repr(pred.value)
        return _any(self.exists(pred))

    def exists(self, pred: ast.Exists) -> tuple[str, str, str]:
        """The Python name of pred's bound variable, the source of its
        body, in which that name is the variable's, and of its range."""
        names = self.names
        self.names = {**names, pred.var: _python("e_", pred.var)}
        bound, body = self.names[pred.var], self.pred(pred.body)
        self.names = names
        return bound, body, f"range({pred.lo!r}, {pred.hi + 1!r})"

    def placed(self, pred: ast.BoolExpr, ranges: tuple[tuple[str, int, int], ...]) -> tuple[list, bool]:
        """The codes of pred's top-level conjuncts but a literal TRUE, in
        order, by the loop that judges each, the declared names being the
        loops' variables, outermost first, with ranges: 0 (before the loops)
        to their count; and whether one of them can raise, that is, calls
        _div, _mod or _pow (see called) where ast.fault_free cannot clear it
        over ranges. A conjunct goes to the deepest loop of the names that
        it, or one before it, reads, so it is judged once per value of what
        it may read and after the ones before it; but one that can raise,
        and every one after it, goes to the innermost loop, so no outer loop
        raises. A code is the conjunct's source, or an exists conjunct's
        triple, as exists gives it."""
        loops = tuple(self.names.values())
        placed: list[list] = [[] for _ in range(len(loops) + 1)]
        level, risky = 0, False
        for conjunct in ast.flatten(pred, ast.And):
            if isinstance(conjunct, ast.BoolLit) and conjunct.value:
                continue
            self.read, self.called = set(), False
            code = self.exists(conjunct) if isinstance(conjunct, ast.Exists) else self.pred(conjunct)
            risky = risky or self.called and not ast.fault_free(conjunct, ranges)
            deeper = range(len(loops), level, -1)
            level = next((loop for loop in deeper if risky or loops[loop - 1] in self.read), level)
            placed[level].append(code)
        return placed, risky

    @staticmethod
    def conjuncts(codes: list, depth: int, reject: str) -> list:
        """The lines that judge codes (placed's) in order and run reject
        at the first that is false; an exists is a for loop of its own,
        whose else rejects."""
        lines = []
        for code in codes:
            if isinstance(code, tuple):
                bound, body, values = code
                lines += [
                    (depth, f"for {bound} in {values}:"),
                    (depth + 1, f"if {body}: break"),
                    (depth, "else:"),
                    (depth + 1, reject),
                ]
            else:
                lines.append((depth, f"if not {code}: {reject}"))
        return lines

    def block(self, block: ast.Block, depth: int, after: int = 0, budget: int | None = None) -> bool:
        """Emit block's kept statements; whether there was any. They come
        after the charge: one step per statement (a leaf, an if's test, a
        while's first test) plus after (a loop body's next test). A run's
        first block starts left at budget less its charge instead."""
        stmts = [stmt for stmt in block.stmts if self.kept is None or stmt.stmt_id in self.kept]
        steps = len(stmts) + after
        if budget is not None:
            self.lines.append((depth, f"left = {budget - steps!r}"))
            if budget < steps:
                self.lines.append((depth, "raise Exception"))
        elif steps:
            self.lines += [(depth, f"left -= {steps!r}"), (depth, "if left < 0: raise Exception")]
        for stmt in stmts:
            self.stmt(stmt, depth)
        return bool(stmts)

    def stmt(self, stmt: ast.Stmt, depth: int) -> None:
        """Emit stmt, whose step its block has charged: a skip is no line."""
        emit = self.lines.append
        if isinstance(stmt, ast.Assign):
            emit((depth, f"{self.var(stmt.target)} = {self.expr(stmt.expr)}"))
        elif isinstance(stmt, ast.If):
            emit((depth, f"if {self.pred(stmt.cond)}:"))
            if not self.block(stmt.then, depth + 1):
                emit((depth + 1, "pass"))
            orelse = len(self.lines)
            if self.block(stmt.orelse, depth + 1):
                self.lines.insert(orelse, (depth, "else:"))
        elif isinstance(stmt, ast.While):
            emit((depth, f"while {self.pred(stmt.cond)}:"))
            self.block(stmt.body, depth + 1, after=1)


def _any(code: tuple[str, str, str]) -> str:
    """The source of an exists as one expression, from _Emitter.exists's triple."""
    bound, body, values = code
    return f"any({body} for {bound} in {values})"


def _load(name: str, function: str, emit: Callable[[], list]) -> Callable | None:
    """The function called function that the source lines emit() define,
    compiled, or None when Python refuses them: source nested too
    deeply (about 200 parentheses, 20 loops, 100 indents) is SyntaxError,
    RecursionError or MemoryError, and a predicate too deep to walk
    ParseError; a hand-built program with a name that is not a declared
    identifier, or an integer too long to print, is ValueError."""
    try:
        source = "\n".join("    " * depth + text for depth, text in emit()) + "\n"
        namespace = dict(_SOURCE_GLOBALS)
        exec(compile(source, f"<{name}>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError, ValueError, ParseError):
        return None
    # popped, so that the function does not hold itself through __globals__
    return namespace.pop(function)


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
    the kept statements inline. Each conjunct of pre's && chain is judged
    in the loop that _Emitter.placed gives it: that of the deepest variable
    that it, or a conjunct before it, reads (before every loop if none),
    or the innermost from the first that can raise on; an exists conjunct
    is a for loop of its own, and a TRUE is no line. Only the innermost
    loop raises. scan returns (None, count) or, at the first point where
    pre raises, the run ends other than ok, or post is false or raises,
    (inputs, count); count is the points before it where pre held."""
    if math.prod(hi - lo + 1 for _, lo, hi in ranges) < NEST_FROM_POINTS or step_budget < 1:
        return None

    def source() -> list:
        zeroed = (*program.out_params, *program.locals)
        emitter = _Emitter((*program.in_params, *zeroed), kept)
        inner = len(ranges) + 1  # the depth of one point's judging
        emitter.block(program.body, inner + 1, budget=step_budget)
        # the precondition reads the loop variables, i_<name>
        judge = _Emitter(tuple(name for name, _, _ in ranges), None, "i_")
        at, _ = judge.placed(pre, ranges)
        lines = [(0, "def scan():"), (1, "count = 0"), *judge.conjuncts(at[0], 1, "return None, count")]
        for level, (name, lo, hi) in enumerate(ranges, 1):
            lines.append((level, f"for i_{name} in range({lo!r}, {hi + 1!r}):"))
            if level < len(ranges):
                lines += judge.conjuncts(at[level], level + 1, "continue")
        point = ", ".join(f"{name!r}: i_{name}" for name, _, _ in ranges)
        return [
            *lines,
            (inner, "try:"),
            *judge.conjuncts(at[-1], inner + 1, "continue"),
            *[(inner + 1, f"v_{name} = i_{name}") for name, _, _ in ranges],
            *[(inner + 1, f"v_{name} = 0") for name in zeroed],
            *emitter.lines,
            (inner + 1, f"if {emitter.pred(post)}:"),
            (inner + 2, "count += 1"),
            (inner + 2, "continue"),
            (inner, "except Exception:"),
            (inner + 1, "pass"),
            (inner, f"return {{{point}}}, count"),
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
    with True, False or, where it raised, None for each of preds.

    Each top-level conjunct of a predicate is judged in the loop
    _Emitter.placed gives it, as loop_nest judges its precondition's. A
    loop judges the conjuncts it gets with one line, h_<n>_<level> =
    prev and (c1 and ... and cn), an exists as any(...), where prev is
    what the loops outside hold, True or False (h_<n> in the innermost
    loop); && judges left to right with a short circuit, so h is what
    judging the conjuncts one by one gives. A loop where every predicate
    is already False skips the loops inside it. Only the innermost
    conjuncts can raise, and they are in a try, which sets None where one
    raises, exactly when they can."""
    if math.prod(hi - lo + 1 for _, lo, hi in ranges) < NEST_FROM_POINTS:
        return None

    def source() -> list:
        judge = _Emitter(tuple(name for name, _, _ in ranges), None)
        inner = len(ranges)  # the innermost loop
        at, risky = zip(*[judge.placed(pred, ranges) for pred in preds])
        known: dict[int, str] = {}  # pred -> the name of what its conjuncts so far hold
        lines = [(0, "def visits():")]
        for level in range(inner + 1):
            judged = [n for n, placed in enumerate(at) if placed[level]]
            for n in judged:
                value = f"h_{n}_{level}" if level < inner else f"h_{n}"
                codes = " and ".join(code if isinstance(code, str) else _any(code) for code in at[n][level])
                line = f"{value} = {known[n]} and ({codes})" if n in known else f"{value} = ({codes})"
                if level == inner and risky[n]:
                    lines += [(level + 1, "try:"), (level + 2, line),
                              (level + 1, "except Exception:"), (level + 2, f"{value} = None")]
                else:
                    lines.append((level + 1, line))
                known[n] = value
            if level == inner:
                break
            if judged and len(known) == len(preds):
                false = " and ".join(f"{value} is False" for value in known.values())
                lines.append((level + 1, f"if {false}: {'continue' if level else 'return'}"))
            name, lo, hi = ranges[level]
            lines.append((level + 1, f"for v_{name} in range({lo!r}, {hi + 1!r}):"))
        held = "".join(known.get(n, "True") + ", " for n in range(len(preds)))
        point = ", ".join(f"{name!r}: v_{name}" for name, _, _ in ranges)
        return [
            *lines,
            (inner + 1, f"held = ({held})"),
            (inner + 1, f"if held != {(False,) * len(preds)!r}:"),
            (inner + 2, f"yield {{{point}}}, held"),
        ]

    return _load("where", "visits", source)


def runner(
    program: ast.Program,
    step_budget: int,
    *,
    record: bool = False,
    kept: frozenset[int] | None = None,
    calls: int = 1,
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

    calls is how many calls the caller knows it will make (replay's
    tester, for a snapshot's tests; the scans make one call). From
    NEST_FROM_POINTS calls on, an unrecorded run is emitted as the source
    of one Python function (see _run_source), which repays its compile
    there, unless Python refuses the source (see _load). The function
    gives what the closures give wherever it returns; at any exception,
    a fault, the budget or an unbound variable, the closures run that
    point again and word it.
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

    if record or calls < NEST_FROM_POINTS:
        return execute
    emitted = _load(program.name, "run", lambda: _run_source(program, step_budget, kept, tuple(zeroed)))
    if emitted is None:
        return execute

    def fast(inputs: dict[str, int]) -> tuple:
        try:
            return emitted(inputs)
        except Exception:
            return execute(inputs)

    return fast


def _run_source(program: ast.Program, step_budget: int, kept: frozenset[int] | None,
                zeroed: tuple[str, ...]) -> list:
    """The lines of `run(inputs)`: program's kept statements inline, as
    loop_nest emits them, after reading each in-parameter from inputs and
    zeroing zeroed, the out-parameters and locals in the closures' order.
    It returns (OK, final, (), steps, None, None), final being {**inputs}
    updated with every variable's value, so that its keys come in the
    order of the closures' state; it raises where the run ends other than
    ok, or an in-parameter is missing from inputs."""
    names = (*program.in_params, *zeroed)
    emitter = _Emitter(names, kept)
    emitter.block(program.body, 1, budget=step_budget)
    final = "".join(f", {name!r}: v_{name}" for name in names)
    return [
        (0, "def run(inputs):"),
        *[(1, f"v_{name} = inputs[{name!r}]") for name in program.in_params],
        *[(1, f"v_{name} = 0") for name in zeroed],
        *emitter.lines,
        (1, f"return {OK!r}, {{**inputs{final}}}, (), {step_budget!r} - left, None, None"),
    ]


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

    inputs must bind exactly the in-parameters, else a ValueError (a
    program too deeply nested to compile is a ParseError(TOO_DEEP) first);
    out-parameters and locals start at 0. The result is deterministic and,
    on success, identical for any budget at least as large. With
    record=False the trajectory is left empty (every other field is the
    same), which saves its cost for callers that only judge the final
    state. Callers that run one program at many points, or whose inputs
    are known to fit (a Session's tests), use runner instead, which checks
    nothing per run and builds no RunResult.
    """
    in_params = _compiled(program).in_params
    if inputs.keys() != in_params:
        missing = sorted(in_params - set(inputs))
        extra = sorted(set(inputs) - in_params)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        raise ValueError(f"inputs must bind exactly the in-parameters: {', '.join(parts)}")
    return RunResult(*runner(program, step_budget, record=record)(inputs))


def project(trajectory: Trajectory, vars: set[str] | None = None) -> Trajectory:
    """Keep the entries whose variable is in vars; None keeps every entry.
    Order is preserved, so the result is a subsequence of the input.
    """
    return tuple(entry for entry in trajectory if vars is None or entry.var in vars)
