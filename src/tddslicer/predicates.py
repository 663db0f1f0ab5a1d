"""Contract predicates: parsing, evaluation, and Domain-bounded queries.

Every logical query here is relative to an explicit Domain; the toolkit
never claims validity beyond the declared ranges. Enumeration order is
lexicographic by variable name with values ascending, so witnesses are
reproducible. Arithmetic faults during enumeration mean the predicate is
undefined at that point and are raised as PredicateUndefinedError, never
silently treated as false.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EvaluationFault
from .lang import ast
from .lang.interp import compile_bool
from .lang.parser import parse_domain_spec

Predicate = ast.BoolExpr

TRUE = ast.BoolLit(True)

State = dict[str, int]


class PredicateUndefinedError(Exception):
    """A bounded query hit an arithmetic fault at some domain point."""

    def __init__(self, assignment: State, reason: str):
        self.assignment = assignment
        self.reason = reason
        super().__init__(f"predicate undefined at {assignment}: {reason}")


@dataclass(frozen=True)
class Domain:
    """Inclusive integer ranges, one per variable.

    For verification the domain must cover exactly the in-parameters of the
    program under analysis; subsumption checks extend it with out-parameter
    ranges.
    """

    ranges: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple(sorted(self.ranges)))
        seen = set()
        for name, lo, hi in self.ranges:
            if name in seen:
                raise ValueError(f"duplicate range for {name!r}")
            seen.add(name)
            if lo > hi:
                raise ValueError(f"empty range {lo}..{hi} for {name!r}")

    @classmethod
    def from_dict(cls, ranges: dict[str, tuple[int, int]]) -> "Domain":
        return cls(tuple((name, lo, hi) for name, (lo, hi) in ranges.items()))

    @classmethod
    def parse(cls, text: str) -> "Domain":
        return cls.from_dict(parse_domain_spec(text))

    @property
    def vars(self) -> frozenset[str]:
        return frozenset(name for name, _, _ in self.ranges)

    def points(self, only: frozenset[str] | None = None):
        """All assignments, lexicographic by name then ascending by value.

        With `only`, enumerate just those variables (they must exist).
        """
        names = [n for n, _, _ in self.ranges if only is None or n in only]
        if only is not None:
            missing = only - set(names)
            if missing:
                raise KeyError(f"not in domain: {sorted(missing)}")
        spans = [range(lo, hi + 1) for n, lo, hi in self.ranges if n in names]
        for values in itertools.product(*spans):
            yield dict(zip(names, values))

    def floor_assignment(self, names: frozenset[str]) -> State:
        return {n: lo for n, lo, _ in self.ranges if n in names}

    def extend(self, extra: dict[str, tuple[int, int]]) -> "Domain":
        merged = {name: (lo, hi) for name, lo, hi in self.ranges}
        for name, (lo, hi) in extra.items():
            if name in merged:
                raise ValueError(f"range for {name!r} already present")
            merged[name] = (lo, hi)
        return Domain.from_dict(merged)

    def widest_range(self) -> tuple[int, int]:
        """The widest span among the declared ranges (name order breaks ties).

        Used as the default range for out-parameters in subsumption checks.
        """
        if not self.ranges:
            raise ValueError("empty domain has no ranges")
        best = self.ranges[0]
        for entry in self.ranges[1:]:
            if entry[2] - entry[1] > best[2] - best[1]:
                best = entry
        return (best[1], best[2])

    def __str__(self) -> str:
        return ", ".join(f"{name} in {lo}..{hi}" for name, lo, hi in self.ranges)


def eval_predicate(pred: Predicate, state: State) -> bool:
    """Standard short-circuit semantics; existentials enumerate their range.

    Raises UnboundVariableError when state misses a free variable and
    EvaluationFault on arithmetic faults inside the evaluation.
    """
    return compile_bool(pred)(dict(state))


@dataclass(frozen=True)
class ImplicationResult:
    """Outcome of a bounded implication: holds, or a counterexample.

    checked_points counts the evaluated assignments (variables irrelevant
    to both sides are fixed at their range floor, which cannot change the
    verdict and keeps the witness equal to full-grid enumeration's first).
    """

    holds: bool
    witness: State | None
    checked_points: int
    domain: Domain

    def __bool__(self) -> bool:
        return self.holds


def _static_fault_free(pred: Predicate, nonneg_vars: frozenset[str] = frozenset()) -> bool:
    """Conservative: no / or %, and ^ only with provably non-negative
    exponents (literal >= 0 or a bound variable whose range floor is >= 0)."""

    def expr_ok(expr: ast.Expr, safe: frozenset[str]) -> bool:
        if isinstance(expr, (ast.IntLit, ast.Var)):
            return True
        if isinstance(expr, ast.Neg):
            return expr_ok(expr.operand, safe)
        if isinstance(expr, ast.Arith):
            if expr.op in ("/", "%"):
                return False
            if expr.op == "^":
                exponent = expr.right
                nonneg = (
                    isinstance(exponent, ast.IntLit) and exponent.value >= 0
                ) or (isinstance(exponent, ast.Var) and exponent.name in safe)
                if not nonneg:
                    return False
            return expr_ok(expr.left, safe) and expr_ok(expr.right, safe)
        return False

    def pred_ok(node: Predicate, safe: frozenset[str]) -> bool:
        if isinstance(node, ast.BoolLit):
            return True
        if isinstance(node, ast.Cmp):
            return expr_ok(node.left, safe) and expr_ok(node.right, safe)
        if isinstance(node, ast.Not):
            return pred_ok(node.operand, safe)
        if isinstance(node, (ast.And, ast.Or)):
            return pred_ok(node.left, safe) and pred_ok(node.right, safe)
        if isinstance(node, ast.Exists):
            inner = safe | {node.var} if node.lo >= 0 else safe - {node.var}
            return pred_ok(node.body, inner)
        return False

    return pred_ok(pred, nonneg_vars)


def implies(p1: Predicate, p2: Predicate, dom: Domain) -> ImplicationResult:
    """Bounded implication: p1 => p2 at every assignment within dom.

    On failure the witness is the first counterexample in enumeration
    order. When p1 is syntactically one of p2's OR-disjuncts and neither
    side can fault, the implication holds by construction and enumeration
    is skipped.
    """
    needed = ast.free_vars(p1) | ast.free_vars(p2)
    uncovered = needed - dom.vars
    if uncovered:
        raise ValueError(f"domain does not cover free variables: {sorted(uncovered)}")

    if _static_fault_free(p1) and _static_fault_free(p2) and p1 in ast.or_disjuncts(p2):
        return ImplicationResult(True, None, 0, dom)

    floor = dom.floor_assignment(dom.vars - needed)
    premise, conclusion = compile_bool(p1), compile_bool(p2)
    checked = 0
    for point in dom.points(only=frozenset(needed)) if needed else [{}]:
        checked += 1
        state = {**floor, **point}
        try:
            if premise(state) and not conclusion(state):
                return ImplicationResult(False, state, checked, dom)
        except EvaluationFault as fault:
            raise PredicateUndefinedError(state, fault.reason) from None
    return ImplicationResult(True, None, checked, dom)


def is_tautology(pred: Predicate, dom: Domain) -> ImplicationResult:
    """True iff pred holds at every assignment within dom."""
    return implies(TRUE, pred, dom)


__all__ = [
    "Domain",
    "ImplicationResult",
    "Predicate",
    "PredicateUndefinedError",
    "State",
    "TRUE",
    "eval_predicate",
    "implies",
    "is_tautology",
]
