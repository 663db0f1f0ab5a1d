"""Contract predicates: parsing, evaluation, and Domain-bounded queries.

Every logical query here is relative to an explicit Domain; the toolkit
never claims validity beyond the declared ranges. Enumeration order is
lexicographic by variable name with values ascending, so witnesses are
reproducible. Arithmetic faults during enumeration mean the predicate is
undefined at that point and are raised as PredicateUndefinedError, never
silently treated as false.

Domain.points is the one odometer, and visits its one reader: visits
gives the points where some predicate holds or raises, from one compiled
filter (lang.interp.where) over NEST_FROM_POINTS points or more, and from
the closures below the gate or where Python refuses the source. implies
and the verifier's scans take their points from visits only. implies
judges each point where p1 && !p2 holds or raises again on the closures,
so every answer, witness, count and fault is that of judging the points
in order.

A Prepared value holds what queries derive from one predicate: its free
variables, its OR-disjuncts, whether it can fault over a domain and its
compiled closure, each derived on first use and kept. A Contract keeps the
Prepared values of its pre and post, and union composes its parts'
values instead of walking the growing Or again. implies and is_tautology
prepare their arguments and take the one entry, implication, which the
contract algebra calls with the values its contracts keep.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, Sequence

from .errors import TOO_DEEP, EvaluationFault, ParseError
from .lang import ast
from .lang.interp import compile_bool, where
from .lang.parser import parse_domain_spec

Predicate = ast.BoolExpr

TRUE = ast.BoolLit(True)

State = dict[str, int]


class PredicateUndefinedError(Exception):
    """A bounded query hit an arithmetic fault at some domain point."""

    def __init__(self, assignment: State, reason: str):
        self.assignment = assignment
        self.reason = reason
        super().__init__(f"predicate undefined at {_state_text(assignment)}: {reason}")


def _state_text(state: State) -> str:
    """state as a dict prints, except that a value longer than CPython's
    int-to-string limit (sys.get_int_max_str_digits()) is only said to be
    too large to print, as session._mismatch says it."""
    items = []
    for name, value in state.items():
        try:
            items.append(f"{name!r}: {value!r}")
        except ValueError:
            items.append(f"{name!r}: too large to print")
    return "{" + ", ".join(items) + "}"


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

    def points(self):
        """All assignments, lexicographic by name then ascending by value,
        each a new dict binding the names in order; without variables the
        one point {}. Lazy: an odometer over the ranges, so memory does not
        depend on their width."""
        names = [name for name, _, _ in self.ranges]
        digits = [lo for _, lo, _ in self.ranges]
        while True:
            yield dict(zip(names, digits))
            # advance the values, the rightmost fastest
            digit = len(digits) - 1
            while digit >= 0 and digits[digit] == self.ranges[digit][2]:
                digits[digit] = self.ranges[digit][1]
                digit -= 1
            if digit < 0:
                return
            digits[digit] += 1

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


#: a product whose operands' magnitudes have more bits than this between
#: them is not computed: its interval is unknown, so the walk's cost does
#: not grow with the numbers it bounds
_SPAN_BITS = 4096

_ZERO = ast.IntLit(0)


def _fault_free(pred: Predicate, ranges: tuple[tuple[str, int, int], ...]) -> bool:
    """Whether pred cannot fault at any point of ranges (a Domain's), by
    interval arithmetic (Moore, Interval Analysis, 1966). A variable's
    interval is its range, or inside an exists body the bound variable's
    bounds; + - * and negation are exact, and every other value (a
    quotient, remainder or power, a product past _SPAN_BITS) is unknown.
    A / or % is safe when its divisor's interval excludes 0, a ^ when its
    exponent's floor is >= 0; unknown is unsafe. Nothing is evaluated, and
    the walk keeps its own stack."""
    todo: list = [(pred, {name: (lo, hi) for name, lo, hi in ranges})]
    spans: list = []  # the intervals of operands walked, None where unknown
    while todo:
        node, env = todo.pop()
        if isinstance(node, str):  # an operator whose operands are on spans
            right, left = spans.pop(), spans.pop()
            if node in ("/", "%"):
                if right is None or right[0] <= 0 <= right[1]:
                    return False
                spans.append(None)
            elif node == "^":
                if right is None or right[0] < 0:
                    return False
                spans.append(None)
            elif node in ast.CMP_OPS:
                continue
            elif left is None or right is None:
                spans.append(None)
            elif node == "+":
                spans.append((left[0] + right[0], left[1] + right[1]))
            elif node == "-":
                spans.append((left[0] - right[1], left[1] - right[0]))
            elif (max(-left[0], left[1]).bit_length()
                  + max(-right[0], right[1]).bit_length() > _SPAN_BITS):
                spans.append(None)
            else:
                corners = [x * y for x in left for y in right]
                spans.append((min(corners), max(corners)))
        elif isinstance(node, ast.IntLit):
            spans.append((node.value, node.value))
        elif isinstance(node, ast.Var):
            spans.append(env.get(node.name))
        elif isinstance(node, ast.Neg):  # as 0 - operand
            todo += [("-", env), (node.operand, env), (_ZERO, env)]
        elif isinstance(node, (ast.Arith, ast.Cmp)):
            todo += [(node.op, env), (node.right, env), (node.left, env)]
        elif isinstance(node, (ast.And, ast.Or)):
            todo += [(node.right, env), (node.left, env)]
        elif isinstance(node, ast.Not):
            todo.append((node.operand, env))
        elif isinstance(node, ast.Exists):
            todo.append((node.body, {**env, node.var: (node.lo, node.hi)}))
    return True


class Prepared:
    """A predicate with the facts its queries read, each derived on first
    use and then kept:

    - free: its free variables;
    - disjuncts: its OR-disjuncts, flattened in order;
    - fault_free(dom): whether it cannot fault at any point of dom
      (_fault_free), one fact per dom.ranges;
    - test: its closure, as compile_bool gives it.

    either(a, b) is the prepared Or(a.pred, b.pred). Its facts are
    composed from its parts' instead of walking the Or again: set union,
    concatenation, and, and a closure that judges the parts' closures in
    order, as a(s) or b(s) would (_AnyOf). So extending a running union
    walks and compiles none of it, and a union of any length needs no
    stack to derive a fact or to judge its closure. A fact is derived
    where a query first asks for it, so a predicate too deeply nested to
    walk or compile fails there, as deriving the fact afresh does.
    Whatever has been derived never changes; a Contract keeps its pre's
    and post's.
    """

    __slots__ = ("pred", "_parts", "_facts")

    def __init__(self, pred: Predicate, parts: tuple["Prepared", "Prepared"] | None = None):
        self.pred = pred
        self._parts = parts
        self._facts: dict[Hashable, object] = {}

    @classmethod
    def either(cls, first: "Prepared", second: "Prepared") -> "Prepared":
        return cls(ast.Or(first.pred, second.pred), (first, second))

    @property
    def free(self) -> frozenset[str]:
        return self._fact("free", ast.free_vars, operator.or_)

    @property
    def disjuncts(self) -> tuple[Predicate, ...]:
        return self._fact("disjuncts", ast.or_disjuncts, operator.add)

    def fault_free(self, dom: Domain) -> bool:
        ranges = dom.ranges
        return self._fact(("fault_free", ranges), lambda pred: _fault_free(pred, ranges), operator.and_)

    @property
    def test(self) -> Callable[[State], bool]:
        return self._fact("test", compile_bool, _AnyOf)

    def _fact(self, name: Hashable, derive: Callable, compose: Callable):
        """The fact keyed by name: derive(pred), or for an either its parts'
        facts composed. Parts that lack it get it first, deepest first, in
        a loop rather than by recursion, so a long union needs no stack."""
        if name in self._facts:
            return self._facts[name]
        pending = [self]
        while name not in self._facts:
            node = pending[-1]
            lacking = [part for part in node._parts or () if name not in part._facts]
            if lacking:
                pending += lacking
                continue
            pending.pop()
            if name in node._facts:  # a part shared by two eithers
                continue
            if node._parts is None:
                node._facts[name] = derive(node.pred)
            else:
                first, second = node._parts
                node._facts[name] = compose(first._facts[name], second._facts[name])
        return self._facts[name]


class _AnyOf:
    """The closure of an either: its parts' closures judged in order, the
    first that holds ending it, as first(state) or second(state) would, but
    in a loop over the closures of every predicate in the union, so a long
    union needs one frame, not one per part."""

    __slots__ = ("tests",)

    def __init__(self, first: Callable, second: Callable):
        self.tests = tuple(
            test for part in (first, second)
            for test in (part.tests if isinstance(part, _AnyOf) else (part,))
        )

    def __call__(self, state: State) -> bool:
        for test in self.tests:
            if test(state):
                return True
        return False


def implies(p1: Predicate, p2: Predicate, dom: Domain) -> ImplicationResult:
    """Bounded implication: p1 => p2 at every assignment within dom.

    On failure the witness is the first counterexample in enumeration
    order. When every OR-disjunct of p1 is syntactically one of p2's and
    neither side can fault at any point of dom (Prepared.fault_free), the
    implication holds by construction: nothing is enumerated and
    checked_points is 0. A predicate too deeply nested to walk, compare or
    evaluate raises ParseError(TOO_DEEP).

    Only the variables either side reads vary (the others stay at their
    range floor). The closures judge again each point where visits finds
    that p1 && !p2 holds or raises, so the witness, checked_points and
    the first fault are those of judging every point in order.
    """
    return implication(Prepared(p1), Prepared(p2), dom)


def implication(p1: Prepared, p2: Prepared, dom: Domain) -> ImplicationResult:
    """implies(p1.pred, p2.pred, dom), reading the facts p1 and p2 keep
    instead of deriving them again."""
    needed = p1.free | p2.free
    uncovered = needed - dom.vars
    if uncovered:
        raise ValueError(f"domain does not cover free variables: {sorted(uncovered)}")
    try:
        if len(p1.disjuncts) == 1:
            included = p1.pred in p2.disjuncts
        else:
            known = set(p2.disjuncts)
            included = all(disjunct in known for disjunct in p1.disjuncts)
        if included and p1.fault_free(dom) and p2.fault_free(dom):
            return ImplicationResult(True, None, 0, dom)
        floor = {name: lo for name, lo, _ in dom.ranges if name not in needed}
        varying = Domain(tuple(entry for entry in dom.ranges if entry[0] in needed))

        # p1 && !p2 on the closures, both compiled at the first point judged
        # on them: a union's closure judges its parts in a loop, and no And
        # is compiled
        premise = conclusion = None

        def refute(state: State) -> bool:
            nonlocal premise, conclusion
            if premise is None:
                premise, conclusion = p1.test, p2.test
            return premise(state) and not conclusion(state)

        for point, _ in visits(varying, ((ast.And(p1.pred, ast.Not(p2.pred)), refute),)):
            state = {**floor, **point}
            try:
                if not refute(state):
                    # the filter and the closures disagree only when
                    # Python's stack or memory runs out on one side
                    continue
            except EvaluationFault as fault:
                raise PredicateUndefinedError(state, fault.reason) from None
            index = 0  # the place of point in varying's enumeration order
            for name, lo, hi in varying.ranges:
                index = index * (hi - lo + 1) + point[name] - lo
            return ImplicationResult(False, state, index + 1, dom)
        size = math.prod(hi - lo + 1 for _, lo, hi in varying.ranges)
        return ImplicationResult(True, None, size, dom)
    except RecursionError:
        # the checks and evaluation above recurse once per nesting level,
        # as free_vars does, but from deeper frames
        raise ParseError(TOO_DEEP) from None


def visits(dom: Domain, pairs: Sequence[tuple[Predicate, Callable[[State], bool]]]) -> Iterator:
    """(point, held) in enumeration order at every point of dom where one
    of pairs' predicates holds or raises: point is a new dict binding the
    names in order, held has True, False or, where it raised, None for
    each predicate. pairs are (predicate, closure) of one predicate each.

    At NEST_FROM_POINTS points or more, where's compiled filter judges the
    predicates; below the gate, or where Python refuses its source, their
    closures do, point by point: the one loop over a domain's points."""
    compiled = where(dom.ranges, tuple(pred for pred, _ in pairs))
    if compiled is not None:
        return compiled()

    def closure_visits():
        for point in dom.points():
            held = []
            for _, test in pairs:
                try:
                    held.append(bool(test(point)))
                except Exception:
                    held.append(None)
            if True in held or None in held:
                yield point, held

    return closure_visits()


def is_tautology(pred: Predicate, dom: Domain) -> ImplicationResult:
    """True iff pred holds at every assignment within dom."""
    return implies(TRUE, pred, dom)


__all__ = [
    "Domain",
    "ImplicationResult",
    "Predicate",
    "PredicateUndefinedError",
    "Prepared",
    "State",
    "TRUE",
    "eval_predicate",
    "implication",
    "implies",
    "is_tautology",
    "visits",
]
