"""Independent brute-force re-implementations used as test oracles.

Nothing here shares execution logic with the package: tokenizing,
expression evaluation, statement execution, and triple checking are
written from scratch against the documented semantics (truncating
division, zero initialization, lexicographic domain enumeration). The
package's AST dataclasses, its DeletionUnit and its ParseError are reused
as plain data.
"""

from __future__ import annotations

import itertools

from tddslicer.errors import ParseError
from tddslicer.lang import ast
from tddslicer.slicer import ELSE_CLAUSE, STATEMENT, DeletionUnit


def bf_eval(node, env: dict[str, int]) -> int:
    if isinstance(node, ast.IntLit):
        return node.value
    if isinstance(node, ast.Var):
        return env[node.name]
    if isinstance(node, ast.Neg):
        return -bf_eval(node.operand, env)
    if isinstance(node, ast.Arith):
        a, b = bf_eval(node.left, env), bf_eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "^":
            if b < 0:
                raise ZeroDivisionError("negative exponent")
            return a**b
        if node.op in ("/", "%"):
            if b == 0:
                raise ZeroDivisionError(node.op)
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            return quotient if node.op == "/" else a - quotient * b
    raise AssertionError(f"unexpected expr {node!r}")


def bf_holds(pred, env: dict[str, int]) -> bool:
    if isinstance(pred, ast.BoolLit):
        return pred.value
    if isinstance(pred, ast.Cmp):
        a, b = bf_eval(pred.left, env), bf_eval(pred.right, env)
        return {
            "==": a == b,
            "!=": a != b,
            "<": a < b,
            "<=": a <= b,
            ">": a > b,
            ">=": a >= b,
        }[pred.op]
    if isinstance(pred, ast.Not):
        return not bf_holds(pred.operand, env)
    if isinstance(pred, ast.And):
        return bf_holds(pred.left, env) and bf_holds(pred.right, env)
    if isinstance(pred, ast.Or):
        return bf_holds(pred.left, env) or bf_holds(pred.right, env)
    if isinstance(pred, ast.Exists):
        for value in range(pred.lo, pred.hi + 1):
            inner = dict(env)
            inner[pred.var] = value
            if bf_holds(pred.body, inner):
                return True
        return False
    raise AssertionError(f"unexpected predicate {pred!r}")


def bf_exec(block: ast.Block, env: dict[str, int]) -> None:
    """Execute a loop-free block in place (the criterion-4 programs)."""
    for stmt in block.stmts:
        if isinstance(stmt, ast.Assign):
            env[stmt.target] = bf_eval(stmt.expr, env)
        elif isinstance(stmt, ast.Skip):
            pass
        elif isinstance(stmt, ast.If):
            if bf_holds(stmt.cond, env):
                bf_exec(stmt.then, env)
            else:
                bf_exec(stmt.orelse, env)
        elif isinstance(stmt, ast.While):
            guard = 0
            while bf_holds(stmt.cond, env):
                bf_exec(stmt.body, env)
                guard += 1
                if guard > 100000:
                    raise AssertionError("brute-force oracle only handles terminating loops")
        else:
            raise AssertionError(f"unexpected statement {stmt!r}")


_FAULT_REASONS = {"/": "division by zero", "%": "modulo by zero",
                  "negative exponent": "negative exponent"}


class _Halt(Exception):
    def __init__(self, status: str, stmt_id: int, reason: str):
        self.status, self.stmt_id, self.reason = status, stmt_id, reason


def bf_run(program: ast.Program, inputs: dict[str, int], budget: int):
    """Run a program by the README's rules, loops and faults included.

    Outs and locals start at 0. Each statement executed costs one step, and
    so does each evaluation of a loop condition; the step that goes over
    the budget stops the run with "budget_exceeded" at its statement,
    before the statement does anything. A division or modulo by zero or a
    negative exponent stops it with "fault" at the statement whose
    expression or condition faulted. Returns (status, steps, fault_stmt_id,
    fault_reason, final, trajectory), the trajectory being the
    (stmt_id, var, value) triples of every assignment executed.
    """
    env = dict(inputs)
    for name in (*program.out_params, *program.locals):
        env[name] = 0
    trajectory = []
    steps = 0

    def charge(stmt_id):
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _Halt("budget_exceeded", stmt_id, "step budget exceeded")

    def evaluate(evaluator, node, stmt_id):
        try:
            return evaluator(node, env)
        except ZeroDivisionError as err:
            raise _Halt("fault", stmt_id, _FAULT_REASONS[str(err)]) from None

    def execute(block):
        for stmt in block.stmts:
            charge(stmt.stmt_id)
            if isinstance(stmt, ast.Assign):
                value = evaluate(bf_eval, stmt.expr, stmt.stmt_id)
                env[stmt.target] = value
                trajectory.append((stmt.stmt_id, stmt.target, value))
            elif isinstance(stmt, ast.If):
                taken = evaluate(bf_holds, stmt.cond, stmt.stmt_id)
                execute(stmt.then if taken else stmt.orelse)
            elif isinstance(stmt, ast.While):
                while evaluate(bf_holds, stmt.cond, stmt.stmt_id):
                    execute(stmt.body)
                    charge(stmt.stmt_id)
            elif not isinstance(stmt, ast.Skip):
                raise AssertionError(f"unexpected statement {stmt!r}")

    try:
        execute(program.body)
    except _Halt as halt:
        return halt.status, steps, halt.stmt_id, halt.reason, env, tuple(trajectory)
    return "ok", steps, None, None, env, tuple(trajectory)


def bf_check(program: ast.Program, pre, post, ranges: dict[str, tuple[int, int]],
             budget: int | None = None):
    """Decide {pre} program {post} by exhaustive execution.

    Returns (verdict, witness_inputs) with verdicts "verified",
    "counterexample", "vacuous" and "fault" (a predicate faulted);
    enumeration is lexicographic by variable name with values ascending,
    matching the documented order. Without a budget the program must
    terminate and not fault (bf_exec); with one it runs under bf_run, and
    its "fault" or "budget_exceeded" status is the verdict.
    """
    names = sorted(ranges)
    spans = [range(ranges[n][0], ranges[n][1] + 1) for n in names]
    satisfied = 0
    for values in itertools.product(*spans):
        inputs = dict(zip(names, values))
        try:
            if not bf_holds(pre, dict(inputs)):
                continue
        except ZeroDivisionError:
            return "fault", inputs
        satisfied += 1
        if budget is None:
            env = dict(inputs)
            for name in (*program.out_params, *program.locals):
                env[name] = 0
            bf_exec(program.body, env)
        else:
            status, _, _, _, env, _ = bf_run(program, inputs, budget)
            if status != "ok":
                return status, inputs
        try:
            if not bf_holds(post, env):
                return "counterexample", inputs
        except ZeroDivisionError:
            return "fault", inputs
    if satisfied == 0:
        return "vacuous", None
    return "verified", None


def replay_trajectory(program: ast.Program, inputs: dict[str, int], trajectory) -> dict[str, int]:
    """Fold a trajectory's assignments over the zero-initialized state.

    For an "ok" run this reproduces the final state exactly; the soundness
    oracle for trajectories.
    """
    state = dict(inputs)
    for name in (*program.out_params, *program.locals):
        state[name] = 0
    for stmt_id, var, value in trajectory:
        state[var] = value
    return state


# --- slicing -----------------------------------------------------------------
# Reference copies of the slicer's two searches as they were first written:
# the exhaustive one tries every deletion set, largest first, and judges
# each with bf_check. Listing units and deleting them is written here from
# scratch.


def bf_units(program: ast.Program) -> list:
    """Statement units in pre-order, then else-clause units (nonempty
    else only) in pre-order of their If."""
    order = list(_bf_preorder(program.body))
    units = [DeletionUnit(STATEMENT, s.stmt_id) for s in order]
    units += [DeletionUnit(ELSE_CLAUSE, s.stmt_id) for s in order
              if isinstance(s, ast.If) and s.orelse.stmts]
    return units


def bf_delete(program: ast.Program, deleted) -> ast.Program:
    """program without the deleted statements (with their subtrees) and
    without the statements of deleted else clauses; ids unchanged."""
    gone = {(u.kind, u.anchor) for u in deleted}

    def block(b):
        kept = []
        for stmt in b.stmts:
            if (STATEMENT, stmt.stmt_id) in gone:
                continue
            if isinstance(stmt, ast.If):
                orelse = ast.Block() if (ELSE_CLAUSE, stmt.stmt_id) in gone else block(stmt.orelse)
                kept.append(ast.If(stmt.stmt_id, stmt.cond, block(stmt.then), orelse))
            elif isinstance(stmt, ast.While):
                kept.append(ast.While(stmt.stmt_id, stmt.cond, block(stmt.body)))
            else:
                kept.append(stmt)
        return ast.Block(tuple(kept))

    return ast.Program(program.name, program.params, program.locals, block(program.body))


def _bf_slice_fields(candidate, units, minimal, strategy, satisfied):
    retained = frozenset(bf_units(candidate))
    return {
        "retained": retained,
        "deleted": frozenset(units) - retained,
        "program": candidate,
        "minimal": minimal,
        "strategy": strategy,
        "checked_points": satisfied,
    }


def bf_slice(program: ast.Program, pre, post, ranges: dict[str, tuple[int, int]],
             budget: int, strategy: str) -> dict:
    """The slice the given strategy picks, judged by bf_check.

    exhaustive: every subset of the units by decreasing size, each level
    sorted by (retained statement ids in pre-order, sorted deleted units),
    first verified wins. greedy: one pass over the units in reverse,
    keeping each deletion that verifies. The original must verify.
    Returns the SliceResult fields, with the accepted verification's
    checked_points (the domain points satisfying pre).
    """
    names = sorted(ranges)
    spans = [range(ranges[n][0], ranges[n][1] + 1) for n in names]
    satisfied = sum(bf_holds(pre, dict(zip(names, v))) for v in itertools.product(*spans))
    verdicts: dict = {}

    def verifies(candidate):
        if candidate not in verdicts:
            verdicts[candidate] = bf_check(candidate, pre, post, ranges, budget)[0] == "verified"
        return verdicts[candidate]

    assert verifies(program), "the original must verify"
    units = bf_units(program)
    if strategy == "greedy":
        deleted, current = set(), program
        for unit in reversed(units):
            if unit not in bf_units(current):
                continue
            candidate = bf_delete(program, deleted | {unit})
            if verifies(candidate):
                deleted.add(unit)
                current = candidate
        return _bf_slice_fields(current, units, False, "greedy", satisfied)
    for size in range(len(units), -1, -1):
        level = []
        for subset in itertools.combinations(units, size):
            candidate = bf_delete(program, subset)
            key = tuple(s.stmt_id for s in _bf_preorder(candidate.body))
            level.append((key, tuple(sorted(subset)), candidate))
        level.sort(key=lambda entry: entry[:2])
        for _, _, candidate in level:
            if verifies(candidate):
                return _bf_slice_fields(candidate, units, True, "exhaustive", satisfied)
    raise AssertionError("unreachable: the original verifies")


def _bf_preorder(block: ast.Block):
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, ast.If):
            yield from _bf_preorder(stmt.then)
            yield from _bf_preorder(stmt.orelse)
        elif isinstance(stmt, ast.While):
            yield from _bf_preorder(stmt.body)


# --- bounded implication ------------------------------------------------------


def _bf_children(node) -> tuple:
    if isinstance(node, (ast.Neg, ast.Not)):
        return (node.operand,)
    if isinstance(node, (ast.Arith, ast.Cmp, ast.And, ast.Or)):
        return (node.left, node.right)
    if isinstance(node, ast.Exists):
        return (node.body,)
    return ()


def _bf_free(node) -> set[str]:
    if isinstance(node, ast.Var):
        return {node.name}
    free = set().union(*(_bf_free(child) for child in _bf_children(node)))
    return free - {node.var} if isinstance(node, ast.Exists) else free


#: a product of operands whose magnitudes have more bits than this between
#: them has an unknown interval
_BF_SPAN_BITS = 4096


def _bf_interval(expr, bounds: dict[str, tuple[int, int]]):
    """(lo, hi) bounding expr's values when its variables range over
    bounds, or None where unknown: exact for literals, variables, negation,
    + - and *; unknown for / % ^ and a product past _BF_SPAN_BITS."""
    if isinstance(expr, ast.IntLit):
        return expr.value, expr.value
    if isinstance(expr, ast.Var):
        return bounds.get(expr.name)
    if isinstance(expr, ast.Neg):
        inner = _bf_interval(expr.operand, bounds)
        return inner and (-inner[1], -inner[0])
    if expr.op in ("/", "%", "^"):
        return None
    left, right = _bf_interval(expr.left, bounds), _bf_interval(expr.right, bounds)
    if left is None or right is None:
        return None
    if expr.op == "+":
        return left[0] + right[0], left[1] + right[1]
    if expr.op == "-":
        return left[0] - right[1], left[1] - right[0]
    bits = max(abs(v) for v in left).bit_length() + max(abs(v) for v in right).bit_length()
    if bits > _BF_SPAN_BITS:
        return None
    products = [x * y for x, y in itertools.product(left, right)]
    return min(products), max(products)


def _bf_cannot_fault(node, bounds: dict[str, tuple[int, int]]) -> bool:
    """No / or % whose divisor's interval may hold 0 and no ^ whose
    exponent's interval may go below 0, each exists variable bounded by its
    own range inside its body; an unknown interval may do either."""
    if isinstance(node, ast.Arith) and node.op in ("/", "%", "^"):
        bound = _bf_interval(node.right, bounds)
        if bound is None:
            return False
        if node.op == "^" and bound[0] < 0:
            return False
        if node.op != "^" and bound[0] <= 0 <= bound[1]:
            return False
    if isinstance(node, ast.Exists):
        bounds = {**bounds, node.var: (node.lo, node.hi)}
    return all(_bf_cannot_fault(child, bounds) for child in _bf_children(node))


def _bf_disjuncts(pred) -> list:
    if isinstance(pred, ast.Or):
        return _bf_disjuncts(pred.left) + _bf_disjuncts(pred.right)
    return [pred]


def bf_implies(p1, p2, ranges: dict[str, tuple[int, int]]):
    """Decide p1 => p2 over ranges as implies documents it, point by point.

    The variables neither side reads stay at their range floor; the others
    are enumerated lexicographically by name, values ascending. A point
    lists the fixed variables first, then the enumerated ones, each group
    in name order. Returns ("fault", point, reason) for the first point at
    which p1, or p2 where p1 holds, faults; else (holds, witness,
    checked_points), the witness being the first point at which p1 holds
    and p2 does not and checked_points the points judged up to it. When
    each of p1's OR-disjuncts is one of p2's and neither side can fault
    over ranges (_bf_cannot_fault), the answer is (True, None, 0) without
    enumeration.
    """
    if (all(d in _bf_disjuncts(p2) for d in _bf_disjuncts(p1))
            and _bf_cannot_fault(p1, ranges) and _bf_cannot_fault(p2, ranges)):
        return True, None, 0
    needed = _bf_free(p1) | _bf_free(p2)
    fixed = {name: ranges[name][0] for name in sorted(ranges) if name not in needed}
    names = sorted(needed)
    spans = [range(ranges[n][0], ranges[n][1] + 1) for n in names]
    checked = 0
    for values in itertools.product(*spans):
        checked += 1
        point = {**fixed, **dict(zip(names, values))}
        try:
            if bf_holds(p1, dict(point)) and not bf_holds(p2, dict(point)):
                return False, point, checked
        except ZeroDivisionError as err:
            return "fault", point, _FAULT_REASONS[str(err)]
    return True, None, checked


_BF_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
_BF_DIGITS = "0123456789"
_BF_PUNCT_PAIRS = (":=", "==", "!=", "<=", ">=", "&&", "||", "..")
_BF_PUNCT_SINGLES = "{}(),;:=<>+-*/%^!"


def bf_tokenize(text: str):
    """(tokens, end) for text: tokens as (kind, text, line, col), with kind
    "ident", "int" or the punctuation itself, and end the (line, col) of the
    end of input.

    One character at a time: a newline starts the next line at column 1,
    any other str.isspace() character is one column, and `//` skips to the
    end of its line without moving the column. Then an ASCII letter or `_`
    starts an identifier of ASCII letters, digits and `_`, an ASCII digit an
    integer of ASCII digits, and otherwise a two-character punctuation wins
    over a one-character one. Any other character raises ParseError.
    """
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c.isspace():
            col, i = col + 1, i + 1
            continue
        if text[i:i + 2] == "//":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if c in _BF_LETTERS or c in _BF_DIGITS:
            digits = c in _BF_DIGITS
            alphabet = _BF_DIGITS if digits else _BF_LETTERS + _BF_DIGITS
            j = i + 1
            while j < len(text) and text[j] in alphabet:
                j += 1
            kind, word = "int" if digits else "ident", text[i:j]
        elif text[i:i + 2] in _BF_PUNCT_PAIRS:
            kind = word = text[i:i + 2]
        elif c in _BF_PUNCT_SINGLES:
            kind = word = c
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
        tokens.append((kind, word, line, col))
        col, i = col + len(word), i + len(word)
    return tokens, (line, col)
