"""AST for the mini while-language and its contract predicates.

All nodes are frozen dataclasses: values are immutable after construction
and safe to share between threads. Statements carry a pre-order id assigned
by the parser (1-based, contiguous); deletion-based slicing preserves the
ids of surviving statements, so ids in a sliced program may have gaps.

BoolLit and Exists only occur in predicates, never in program bodies; the
program parser rejects them, the shared evaluator handles both.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass
from typing import Iterator, Union

from ..errors import TOO_DEEP, ParseError

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


# --- expressions ---------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Arith:
    """Binary integer operator: + - * / % ^.

    / truncates toward zero and % satisfies a == (a/b)*b + a%b.
    ^ requires a non-negative right operand at evaluation time.
    """

    op: str
    left: "Expr"
    right: "Expr"


Expr = Union[IntLit, Var, Neg, Arith]


# --- boolean expressions / predicates ------------------------------------


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not:
    operand: "BoolExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class BoolLit:
    """TRUE / FALSE. Predicate-only."""

    value: bool


@dataclass(frozen=True)
class Exists:
    """Bounded existential `exists v in lo..hi : body`. Predicate-only.

    Bounds are inclusive literals with lo <= hi; the bound variable shadows
    any program variable of the same name inside body.
    """

    var: str
    lo: int
    hi: int
    body: "BoolExpr"


BoolExpr = Union[Cmp, Not, And, Or, BoolLit, Exists]


def free_vars(node: Expr | BoolExpr) -> frozenset[str]:
    """Free (unbound) variables of an expression or predicate. Queries call
    it before compiling, so one too deep to walk is ParseError(TOO_DEEP)."""
    try:
        return _free_vars(node)
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def _free_vars(node: Expr | BoolExpr) -> frozenset[str]:
    if isinstance(node, IntLit) or isinstance(node, BoolLit):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, (Neg, Not)):
        return _free_vars(node.operand)
    if isinstance(node, (Arith, Cmp, And, Or)):
        return _free_vars(node.left) | _free_vars(node.right)
    if isinstance(node, Exists):
        return _free_vars(node.body) - {node.var}
    raise TypeError(f"not an expression node: {node!r}")


def sure_nonneg(exponent: Expr, nonneg: frozenset[str]) -> bool:
    """Whether exponent, the right operand of a ^, cannot be negative: a
    literal >= 0, or a variable in nonneg, the exists variables in scope
    whose range floor is >= 0. A ^ with such an exponent cannot fault."""
    if isinstance(exponent, IntLit):
        return exponent.value >= 0
    return isinstance(exponent, Var) and exponent.name in nonneg


def or_disjuncts(pred: BoolExpr) -> tuple[BoolExpr, ...]:
    """Flatten nested Or nodes into the ordered tuple of disjuncts."""
    if isinstance(pred, Or):
        return or_disjuncts(pred.left) + or_disjuncts(pred.right)
    return (pred,)


# --- statements and programs ----------------------------------------------


@dataclass(frozen=True)
class Assign:
    stmt_id: int
    target: str
    expr: Expr


@dataclass(frozen=True)
class Skip:
    stmt_id: int


@dataclass(frozen=True)
class If:
    stmt_id: int
    cond: BoolExpr
    then: "Block"
    orelse: "Block"


@dataclass(frozen=True)
class While:
    stmt_id: int
    cond: BoolExpr
    body: "Block"


Stmt = Union[Assign, Skip, If, While]


@dataclass(frozen=True)
class Block:
    stmts: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Param:
    name: str
    mode: str  # "in" | "out"


@dataclass(frozen=True)
class Program:
    """A procedure: named params (in/out), zero-initialized locals, a body.

    Invariants (enforced by the parser):
    - parameter and local names are pairwise distinct
    - every variable referenced in the body is a param or a local
    - at least one out-parameter exists
    - statement ids are 1-based, contiguous, pre-order
    """

    name: str
    params: tuple[Param, ...]
    locals: frozenset[str]
    body: Block

    @property
    def in_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.mode == "in")

    @property
    def out_params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params if p.mode == "out")

    def statements(self) -> tuple[Stmt, ...]:
        return tuple(walk_statements(self.body))


def walk_statements(block: Block) -> Iterator[Stmt]:
    """Pre-order traversal of every statement in a block."""
    for stmt in block.stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then)
            yield from walk_statements(stmt.orelse)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def same_shape(a: Program | Block | Stmt, b: Program | Block | Stmt) -> bool:
    """Structural equality ignoring statement ids.

    Sliced programs keep their original (gappy) ids, so comparing a slice
    against freshly parsed text needs id-blind equality. The nodes are
    compared field by field with a stack of their own, not by recursion,
    so a program of any depth compares.
    """
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, tuple):  # a block's statements, a program's params
            if len(x) != len(y):
                return False
            pending += zip(x, y)
        elif is_dataclass(x):  # its fields only: a Program keeps its compiled code too
            pending += ((getattr(x, name), getattr(y, name))
                        for name in x.__dataclass_fields__ if name != "stmt_id")
        elif x != y:
            return False
    return True
