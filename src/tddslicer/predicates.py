"""Contract predicates: parsing, evaluation, and Domain-bounded queries.

Every logical query here is relative to an explicit Domain; the toolkit
never claims validity beyond the declared ranges. Enumeration order is
lexicographic by variable name with values ascending, so witnesses are
reproducible. Arithmetic faults during enumeration mean the predicate is
undefined at that point and are raised as PredicateUndefinedError, never
silently treated as false.

Domain.rows() is the one odometer: it enumerates a domain a row at a
time, a row being the points that differ only in the fastest-varying
variable, and points() flattens it. implies judges its points a row at a
time, with the predicates compiled for the row variable (compile_bool's
row); a row that raises anything is judged again point by point, so
every answer, witness, count and fault is that of judging one point after
another.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse

from .errors import TOO_DEEP, EvaluationFault, ParseError
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

    #: the most values in one row, so memory does not depend on a range's width
    ROW_WIDTH = 1024
    #: the most values in the first row; each later row may hold twice as
    #: many as the one before, up to ROW_WIDTH, so a scan that stops early
    #: judges few values past its stop
    FIRST_ROW_WIDTH = 16

    @cached_property
    def row(self) -> str | None:
        """The row variable: the last variable with more than one value,
        else the last variable; None without variables."""
        wide = [name for name, lo, hi in self.ranges if lo < hi]
        if wide:
            return wide[-1]
        return self.ranges[-1][0] if self.ranges else None

    def rows(self):
        """All assignments as rows, in points() order: (prefix, values)
        for the points that differ only in the row variable (see row),
        which takes the values of the range values: at most
        FIRST_ROW_WIDTH of them in the first row, and in each later row
        at most twice as many as in the one before, up to ROW_WIDTH (a
        wide range makes more rows). The variables after the row variable
        have one value each, constants of every row.

        prefix is a new dict binding every variable in name order, the
        row variable to the first of values: the row's first point.
        Without variables the one row is the point {} and values is
        range(1). Lazy: an odometer over the ranges, so memory does not
        depend on their width.
        """
        row = self.row
        if row is None:
            yield {}, range(1)
            return
        names = [name for name, _, _ in self.ranges]
        split = names.index(row)
        outer = self.ranges[:split]
        _, low, high = self.ranges[split]
        digits = [lo for _, lo, _ in self.ranges]
        width, widest = self.FIRST_ROW_WIDTH, self.ROW_WIDTH
        while True:
            start = low
            while start <= high:
                stop = min(start + width, high + 1)
                digits[split] = start
                yield dict(zip(names, digits)), range(start, stop)
                start = stop
                if width < widest:
                    width *= 2
            # advance the outer values, the rightmost fastest
            digit = split - 1
            while digit >= 0 and digits[digit] == outer[digit][2]:
                digits[digit] = outer[digit][1]
                digit -= 1
            if digit < 0:
                return
            digits[digit] += 1

    def points(self):
        """All assignments, lexicographic by name then ascending by value:
        the points of rows(), each a new dict."""
        row = self.row
        for prefix, values in self.rows():
            for value in values:
                point = prefix.copy()
                if row is not None:
                    point[row] = value
                yield point

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
    is skipped. A predicate too deeply nested to walk, compare or evaluate
    raises ParseError(TOO_DEEP).

    The points are judged a row at a time, the rows of Domain.rows() over
    the variables either side reads (the others stay at their range
    floor). p1 runs over the row, p2 over
    the values where p1 holds, and the first value p2 drops is the witness.
    A row in which anything raises is judged again point by point, so the
    witness, checked_points and the first fault are those of judging every
    point in order.
    """
    needed = ast.free_vars(p1) | ast.free_vars(p2)
    uncovered = needed - dom.vars
    if uncovered:
        raise ValueError(f"domain does not cover free variables: {sorted(uncovered)}")
    try:
        return _enumerate(p1, p2, dom, needed)
    except RecursionError:
        # the checks and evaluation below recurse once per nesting level,
        # as free_vars does, but from deeper frames
        raise ParseError(TOO_DEEP) from None


def _enumerate(
    p1: Predicate, p2: Predicate, dom: Domain, needed: frozenset[str]
) -> ImplicationResult:
    if p1 in ast.or_disjuncts(p2) and _static_fault_free(p1) and _static_fault_free(p2):
        return ImplicationResult(True, None, 0, dom)

    floor = {name: lo for name, lo, _ in dom.ranges if name not in needed}
    varying = Domain(tuple(entry for entry in dom.ranges if entry[0] in needed))
    row = varying.row
    if row is None:
        found = _first_counterexample(p1, p2, [floor])
        return ImplicationResult(found is None, None if found is None else floor, 1, dom)

    premise_rows, conclusion_rows = compile_bool(p1, row), compile_bool(p2, row)
    checked = 0
    for prefix, values in varying.rows():
        env = {**floor, **prefix}
        try:
            held = premise_rows(env, values)
            kept = conclusion_rows(env, held) if held else held
        except Exception:
            # unlike the points judged in order, the row does not stop
            # at its first counterexample: judge it again that way, which
            # raises what the points raise, as PredicateUndefinedError
            found = _first_counterexample(p1, p2, ({**env, row: value} for value in values))
        else:
            found = None
            if len(kept) < len(held):
                # values ascend, so the first p2 drops is the least
                kept = set(kept)
                value = min(filterfalse(kept.__contains__, held))
                found = value - values.start, {**env, row: value}
        if found is not None:
            index, state = found
            return ImplicationResult(False, state, checked + index + 1, dom)
        checked += len(values)
    return ImplicationResult(True, None, checked, dom)


def _first_counterexample(p1: Predicate, p2: Predicate, states) -> tuple[int, State] | None:
    """(index, state) of the first of states where p1 holds and p2 does
    not, judged one by one; PredicateUndefinedError at the first fault."""
    premise, conclusion = compile_bool(p1), compile_bool(p2)
    for index, state in enumerate(states):
        try:
            if premise(state) and not conclusion(state):
                return index, state
        except EvaluationFault as fault:
            raise PredicateUndefinedError(state, fault.reason) from None
    return None


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
