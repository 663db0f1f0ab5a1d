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
in order. Before it scans, implies settles what holds by construction:
by disjunct inclusion (static_implication), or by a truth table over the
two sides' comparisons and exists (_tabled), each only where neither
side can fault over the domain.

Every predicate node keeps the facts queries derive from it in its _facts
slot: its free variables (free), its OR-disjuncts (disjuncts), whether it
can fault over a domain (fault_free) and its compiled closure (closure),
each derived on first use and then kept. either(a, b), the Or that
contracts.union builds, composes its facts from its parts' instead of
walking the growing Or again.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterator, Sequence

from .errors import TOO_DEEP, EvaluationFault, ParseError
from .lang import ast
from .lang.ast import Record
from .lang.interp import compile_bool, join_pairwise, where
from .lang.parser import parse_domain_spec

Predicate = ast.BoolExpr

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


class Domain(Record):
    """Inclusive integer ranges, one per variable.

    For verification the domain must cover exactly the in-parameters of the
    program under analysis; subsumption checks extend it with out-parameter
    ranges.
    """

    __slots__ = ("ranges",)
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
    EvaluationFault on arithmetic faults inside the evaluation. pred keeps
    its closure, so only the first call compiles it.
    """
    return closure(pred)(dict(state))


class ImplicationResult(Record):
    """Outcome of a bounded implication: holds, or a counterexample.

    checked_points counts the evaluated assignments (variables irrelevant
    to both sides are fixed at their range floor, which cannot change the
    verdict and keeps the witness equal to full-grid enumeration's first).
    """

    __slots__ = ("holds", "witness", "checked_points", "domain")
    holds: bool
    witness: State | None
    checked_points: int
    domain: Domain

    def __bool__(self) -> bool:
        return self.holds


def free(pred: Predicate) -> frozenset[str]:
    """pred's free variables (ast.free_vars)."""
    return _fact(pred, "free", ast.free_vars, _union)


def disjuncts(pred: Predicate) -> frozenset[Predicate]:
    """The set of pred's OR-disjuncts (ast.flatten)."""
    return _fact(pred, "disjuncts", _disjunct_set, _union)


def fault_free(pred: Predicate, dom: Domain) -> bool:
    """Whether pred cannot fault at any point of dom (ast.fault_free), one
    fact per dom.ranges."""
    ranges = dom.ranges
    return _fact(pred, ("fault_free", ranges), lambda node: ast.fault_free(node, ranges), all)


def closure(pred: Predicate) -> Callable[[State], bool]:
    """pred's closure, as compile_bool gives it."""
    return _fact(pred, "closure", compile_bool, _join)


def either(first: Predicate, second: Predicate) -> ast.Or:
    """first || second: first's disjuncts, then second as one operand. It
    keeps the flat tuple of the parts it joins, which compose its facts
    in one pass (set union, set union, all, interp.join_pairwise). It
    copies first's tuples: folding n predicates copies O(n^2) entries."""
    head = first.operands if isinstance(first, ast.Or) else (first,)
    joined = ast.Or(head + (second,))
    parts = _kept(first).get(_PARTS, (first,)) + _kept(second).get(_PARTS, (second,))
    object.__setattr__(joined, "_facts", {_PARTS: parts})
    return joined


#: the key of the parts an either node composes its facts from
_PARTS = "parts"


def _kept(pred: Predicate) -> dict:
    """pred's _facts, an empty dict kept from now on if it had none.
    Predicate nodes are frozen records, hence object.__setattr__;
    equality, hashing and repr see only their fields."""
    try:
        return pred._facts
    except AttributeError:
        object.__setattr__(pred, "_facts", {})
        return pred._facts


def _disjunct_set(pred: Predicate) -> frozenset[Predicate]:
    """An Or's flattened operands, or for any other node an equal copy of
    it: pred keeps the set, which must not hold pred itself, or every
    predicate asked would be a reference cycle only the collector frees."""
    if isinstance(pred, ast.Or):
        return frozenset(ast.flatten(pred, ast.Or))
    return frozenset((type(pred)(*pred._values),))


def _union(sets: list) -> frozenset:
    return frozenset().union(*sets)


def _join(tests: list) -> Callable:
    return join_pairwise(tests, ast.Or)


def _fact(pred: Predicate, name: Hashable, derive: Callable, compose: Callable):
    """The fact keyed by name that pred keeps: derive(pred), or for an
    either node compose(the list of its parts' facts), made on first use. A fact is
    derived where a query first asks for it, so a predicate too deep to
    walk or compile fails there."""
    try:
        return pred._facts[name]
    except (AttributeError, KeyError):
        facts = _kept(pred)
    parts = facts.get(_PARTS)
    if parts is None:
        facts[name] = derive(pred)
    else:  # either gave each part a _facts dict
        facts[name] = compose([part._facts[name] if name in part._facts
                               else _fact(part, name, derive, compose) for part in parts])
    return facts[name]


def implies(p1: Predicate, p2: Predicate, dom: Domain) -> ImplicationResult:
    """Bounded implication: p1 => p2 at every assignment within dom.

    On failure the witness is the first counterexample in enumeration
    order. When every OR-disjunct of p1 is syntactically one of p2's and
    neither side can fault at any point of dom (ast.fault_free), the
    implication holds by construction: nothing is enumerated and
    checked_points is 0. Otherwise, when neither side can fault and
    p1 && !p2 is false in every row of the truth table over their
    comparisons and exists (_tabled; a case split such as
    s || (!s && t) || (!s && !t), or a > b || a <= b), it holds with
    nothing compiled or enumerated, and the result is the one judging
    every point gives: checked_points is the number of points that vary.
    A predicate too deeply nested to walk, compare or evaluate raises
    ParseError(TOO_DEEP).

    Only the variables either side reads vary (the others stay at their
    range floor). The closures judge again each point where visits finds
    that p1 && !p2 holds or raises, so the witness, checked_points and
    the first fault are those of judging every point in order.
    """
    needed = free(p1) | free(p2)
    uncovered = needed - dom.vars
    if uncovered:
        raise ValueError(f"domain does not cover free variables: {sorted(uncovered)}")
    try:
        if static_implication(p1, p2, dom):
            return ImplicationResult(True, None, 0, dom)
        floor = {name: lo for name, lo, _ in dom.ranges if name not in needed}
        varying = Domain(tuple(entry for entry in dom.ranges if entry[0] in needed))
        size = math.prod(hi - lo + 1 for _, lo, hi in varying.ranges)
        if fault_free(p1, dom) and fault_free(p2, dom) and _tabled(p1, p2, size):
            # p1 && !p2 holds at no point: what judging every one gives
            return ImplicationResult(True, None, size, dom)

        # p1 && !p2 on the closures, compiled at the first point judged on
        # them; no And is compiled
        premise = conclusion = None

        def refute(state: State) -> bool:
            nonlocal premise, conclusion
            if premise is None:
                premise, conclusion = closure(p1), closure(p2)
            return premise(state) and not conclusion(state)

        for point, _ in visits(varying, ((ast.And((p1, ast.Not(p2))), refute),)):
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
        return ImplicationResult(True, None, size, dom)
    except RecursionError:
        # the checks and evaluation above recurse once per nesting level,
        # as free_vars does, but from deeper frames
        raise ParseError(TOO_DEEP) from None


#: each comparison operator as (the operator of the atom it is stated by,
#: operands swapped, negated): over ints a <= b is !(a > b), b < a is a > b,
#: a >= b is !(b > a), and a != b is !(a == b), b == a being a == b
_ATOM_OF = {">": (">", False, False), "<": (">", True, False),
            "<=": (">", False, True), ">=": (">", True, True),
            "==": ("==", False, False), "!=": ("==", False, True)}

# the operations of a truth table's postfix program besides an atom's index
_NOT, _AND, _OR, _TRUE, _FALSE = "~", "&", "|", "T", "F"


def _tabled(p1: Predicate, p2: Predicate, size: int) -> bool:
    """Whether p1 && !p2 is false in every row of the truth table over the
    atoms of p1 and p2, so at every point where neither side can fault.
    An atom is a comparison or an exists; equal ones are one atom, and so
    are a comparison, its mirror image and, negated, its complement
    (_ATOM_OF). Row r gives atom i the value of bit i of r, and atom i's
    column is the int whose bit r is that value (O'Neil and Quass, SIGMOD
    1997, over the rows rather than the points), so each connective is one
    & | or ~ over every row at once. False, deciding nothing, once the
    table would have more rows than size, the points it stands for, or
    than ast.SPAN_BITS. The walk keeps its own stack and hashes each atom
    once, mapping it to its index; the program it leaves is then run with
    no lookup."""
    most = min(size, ast.SPAN_BITS).bit_length() - 1  # the most atoms: 2^k rows
    atoms: dict = {}
    program: list = []  # p1's then p2's postfix program, reversed
    todo = [p1, p2]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is ast.Cmp:
            op, left, right = node._values
            op, swapped, negated = _ATOM_OF[op]
            if swapped:
                left, right = right, left
            index = atoms.setdefault((left, right) if op == ">" else frozenset((left, right)), len(atoms))
            if negated:
                program.append(_NOT)
        elif kind is ast.Exists:
            index = atoms.setdefault(node, len(atoms))
        elif kind is ast.Not:
            program.append(_NOT)
            todo.append(node.operand)
            continue
        elif kind is ast.BoolLit:
            program.append(_TRUE if node.value else _FALSE)
            continue
        else:  # And, Or: one operation per operand after the first
            operands = node.operands
            program += [_AND if kind is ast.And else _OR] * (len(operands) - 1)
            todo += operands
            continue
        if index == most:  # one atom too many
            return False
        program.append(index)
    rows = 1 << len(atoms)
    every = (1 << rows) - 1
    columns = []
    for i in range(len(atoms)):
        run = 1 << i  # 0 in 2^i rows, then 1 in 2^i rows, and again
        columns.append(every // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    stack: list = []
    for step in reversed(program):
        if type(step) is int:
            stack.append(columns[step])
        elif step is _NOT:
            stack[-1] = ~stack[-1]
        elif step is _AND:
            last = stack.pop()
            stack[-1] &= last
        elif step is _OR:
            last = stack.pop()
            stack[-1] |= last
        else:  # a constant, all rows or none (~0 is every bit)
            stack.append(-1 if step is _TRUE else 0)
    held, concluded = stack
    # the bits past the last row repeat row 0, where every atom is false
    return held & ~concluded == 0


def static_implication(p1: Predicate, p2: Predicate, dom: Domain) -> bool:
    """Whether p1 => p2 holds at every point of dom by construction: every
    OR-disjunct of p1 is one of p2's and neither can fault at any point of
    dom (ast.fault_free). Nothing is evaluated."""
    return disjuncts(p1) <= disjuncts(p2) and fault_free(p1, dom) and fault_free(p2, dom)


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
    return implies(ast.BoolLit(True), pred, dom)
