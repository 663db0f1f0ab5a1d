"""Canonical text rendering for programs and predicates, and the JSON
text of the machine output (render_json).

parse(pretty_print(p)) is structurally equal to p: parenthesization is
minimal except that it always preserves the AST shape and that `&&` groups
under `||` stay parenthesized for readability; an operand that is a chain
itself is parenthesized.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

from . import ast

INDENT = "    "

# arithmetic precedence, smaller binds looser
_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5

_ARITH_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "%": _MUL, "^": _POW}


def _expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Neg):
        inner = _expr(expr.operand)
        # -(5) keeps Neg of a literal distinct from the literal -5
        if _expr_prec(expr.operand) < _UNARY or (
            isinstance(expr.operand, ast.IntLit) and expr.operand.value >= 0
        ):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, ast.Arith):
        prec = _ARITH_PREC[expr.op]
        left, right = _expr(expr.left), _expr(expr.right)
        if expr.op == "^":
            # right-associative: parenthesize a same-level left child
            if _expr_prec(expr.left) <= prec:
                left = f"({left})"
            if _expr_prec(expr.right) < prec:
                right = f"({right})"
        else:
            if _expr_prec(expr.left) < prec:
                left = f"({left})"
            if _expr_prec(expr.right) <= prec:
                right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an arithmetic expression: {expr!r}")


def _expr_prec(expr: ast.Expr) -> int:
    if isinstance(expr, ast.IntLit):
        # negative literals render with a leading minus, so they bind like
        # a unary minus for parenthesization purposes
        return _UNARY if expr.value < 0 else _ATOM
    if isinstance(expr, ast.Var):
        return _ATOM
    if isinstance(expr, ast.Neg):
        return _UNARY
    return _ARITH_PREC[expr.op]


def format_predicate(pred: ast.BoolExpr) -> str:
    if isinstance(pred, ast.BoolLit):
        return "TRUE" if pred.value else "FALSE"
    if isinstance(pred, ast.Cmp):
        return f"{_expr(pred.left)} {pred.op} {_expr(pred.right)}"
    if isinstance(pred, ast.Not):
        inner = pred.operand
        if isinstance(inner, ast.BoolLit):
            return f"!{format_predicate(inner)}"
        return f"!({format_predicate(inner)})"
    if isinstance(pred, (ast.And, ast.Or)):
        op = " && " if isinstance(pred, ast.And) else " || "
        return op.join(map(_operand, pred.operands))
    if isinstance(pred, ast.Exists):
        return f"exists {pred.var} in {pred.lo}..{pred.hi} : {format_predicate(pred.body)}"
    raise TypeError(f"not a predicate node: {pred!r}")


def _operand(operand: ast.BoolExpr) -> str:
    """An operand of && or ||, in parentheses if a chain or an exists."""
    text = format_predicate(operand)
    if isinstance(operand, (ast.And, ast.Or, ast.Exists)):
        return f"({text})"
    return text


def pretty_print(program: ast.Program) -> str:
    """Canonical program text: locals in one sorted vardecl, one statement
    per line, empty blocks rendered as `{ }`."""
    params = ", ".join(f"{p.mode} {p.name}" for p in program.params)
    header = f"proc {program.name}({params})"
    lines = [f"{header} {{"]
    if program.locals:
        lines.append(f"{INDENT}var {', '.join(sorted(program.locals))};")
    if not program.locals and not program.body.stmts:
        return f"{header} {{ }}\n"
    lines.extend(_stmt_lines(program.body, 1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stmt_lines(block: ast.Block, depth: int) -> list[str]:
    pad = INDENT * depth
    lines: list[str] = []
    for stmt in block.stmts:
        if isinstance(stmt, ast.Assign):
            lines.append(f"{pad}{stmt.target} := {_expr(stmt.expr)};")
        elif isinstance(stmt, ast.Skip):
            lines.append(f"{pad}skip;")
        elif isinstance(stmt, ast.If):
            lines.append(f"{pad}if ({format_predicate(stmt.cond)}) {{")
            lines.extend(_stmt_lines(stmt.then, depth + 1))
            if stmt.orelse.stmts:
                lines.append(f"{pad}}} else {{")
                lines.extend(_stmt_lines(stmt.orelse, depth + 1))
            lines.append(f"{pad}}}")
        elif isinstance(stmt, ast.While):
            lines.append(f"{pad}while ({format_predicate(stmt.cond)}) {{")
            lines.extend(_stmt_lines(stmt.body, depth + 1))
            lines.append(f"{pad}}}")
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return lines


#: the format_version of every command's machine output (render_json)
FORMAT_VERSION = 1


def render_json(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for a
    JSON value: None, a bool, int, float or str, or a list, tuple or
    str-keyed dict of JSON values. As there, an int longer than CPython's
    int-to-string limit (sys.get_int_max_str_digits()) is a ValueError;
    any other type, a subclass of one of these too, is a TypeError."""
    return _json(value, "\n")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


#: the JSON text of a value of each scalar type, by its exact type: no
#: call of a Python function for a str, int, bool or None
_SCALAR = {
    str: _string,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float,
}


def _json(value, newline: str) -> str:
    """value's JSON text at the indent that newline ends with."""
    kind = type(value)
    if kind in _SCALAR:
        return _SCALAR[kind](value)
    if kind not in (dict, list, tuple):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is dict:
        items = [f"{_string(key)}: "
                 f"{_SCALAR[type(item)](item) if type(item) in _SCALAR else _json(item, inner)}"
                 for key, item in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    items = [_SCALAR[type(item)](item) if type(item) in _SCALAR else _json(item, inner)
             for item in value]
    return f"[{inner}{(',' + inner).join(items)}{newline}]"
