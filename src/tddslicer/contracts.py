"""Contracts {P}{Q} and their algebra: instance checks, union, subsumption,
and test classification.

A contract is "simplified" design-by-contract: no invariants, no rescue
clauses. Union is the purely syntactic OR-composition {P or P'}{Q or Q'};
it weakens both sides, which is what makes earlier tests keep passing as
cycles accumulate.

Every query reads the facts a contract's predicates keep (predicates:
free, disjuncts, fault_free, closure, each made on first use): the scope
check their free variables, instance checks and test classification
their closures, subsumption all four. A union's predicates compose their
parts' facts (predicates.either), so a replay that extends its running
union once per cycle never walks or compiles the union again, and
classify_test judges the union of the history from the contracts' own
closures without building it.
"""

from __future__ import annotations


from .lang.ast import Record
from .lang.printer import format_predicate
from .predicates import Domain, ImplicationResult, Predicate, State, _state_text, closure, either, free, implies

NEW = "new"
REGRESSION = "regression"
TRIANGULATION = "triangulation"

#: declared kinds that classify_test treats as regression-compatible
_REGRESSION_LIKE = (REGRESSION, TRIANGULATION)


class Contract(Record):
    """Precondition/postcondition pair.

    The precondition may only read in-parameters; the postcondition may
    read in- and out-parameters.
    """

    __slots__ = ("pre", "post")
    pre: Predicate
    post: Predicate

    def __str__(self) -> str:
        return f"{{{format_predicate(self.pre)}}}{{{format_predicate(self.post)}}}"


class TestCase(Record, defaults={"declared_kind": None}):
    """Named input binding plus expected output binding.

    declared_kind is advisory ("new", "regression", "triangulation"); replay
    compares it against the computed classification and reports mismatches
    instead of failing.
    """

    __test__ = False  # not a pytest class

    __slots__ = ("name", "inputs", "expected", "declared_kind")
    name: str
    inputs: State
    expected: State
    declared_kind: str | None


class InstanceCheck(Record):
    __slots__ = ("holds", "pre_holds", "post_holds", "explanation")
    holds: bool
    pre_holds: bool
    post_holds: bool | None
    explanation: str

    def __bool__(self) -> bool:
        return self.holds


def is_instance(test: TestCase, contract: Contract) -> InstanceCheck:
    """A test instantiates a contract when its inputs satisfy the pre and
    its inputs plus expected outputs satisfy the post. The explanation
    words the values as predicates._state_text does."""
    if not closure(contract.pre)(test.inputs):
        return InstanceCheck(
            False, False, None, f"inputs {_state_text(test.inputs)} do not satisfy the precondition"
        )
    if not closure(contract.post)({**test.inputs, **test.expected}):
        return InstanceCheck(
            False, True, False, f"expected outputs {_state_text(test.expected)} violate the postcondition"
        )
    return InstanceCheck(True, True, True, "inputs satisfy pre and outputs satisfy post")


def union(c1: Contract, c2: Contract) -> Contract:
    """Syntactic OR of the preconditions and of the postconditions, whose
    facts compose c1's and c2's (predicates.either)."""
    return Contract(either(c1.pre, c2.pre), either(c1.post, c2.post))


class SubsumptionCheck(Record):
    __slots__ = ("holds", "pre_implication", "post_implication", "domain", "post_domain")
    holds: bool
    pre_implication: ImplicationResult
    post_implication: ImplicationResult | None
    domain: Domain
    post_domain: Domain | None

    def __bool__(self) -> bool:
        return self.holds

    @property
    def witness(self) -> State | None:
        if not self.pre_implication.holds:
            return self.pre_implication.witness
        if self.post_implication is not None and not self.post_implication.holds:
            return self.post_implication.witness
        return None


def subsumed_by(
    c1: Contract,
    c2: Contract,
    dom: Domain,
    out_ranges: dict[str, tuple[int, int]] | None = None,
) -> SubsumptionCheck:
    """c1 is subsumed by c2 when c1.pre => c2.pre over dom and
    c1.post => c2.post over dom extended with out-parameter ranges.

    Variables free in the posts but absent from dom are taken to be
    out-parameters; they default to the widest range appearing in dom,
    overridable per variable via out_ranges.
    """
    pre_result = implies(c1.pre, c2.pre, dom)
    extra = (free(c1.post) | free(c2.post)) - dom.vars
    extension: dict[str, tuple[int, int]] = {}
    for name in sorted(extra):
        if out_ranges and name in out_ranges:
            extension[name] = out_ranges[name]
        else:
            extension[name] = dom.widest_range()
    post_dom = dom.extend(extension) if extension else dom
    if not pre_result.holds:
        return SubsumptionCheck(False, pre_result, None, dom, post_dom)
    post_result = implies(c1.post, c2.post, post_dom)
    return SubsumptionCheck(post_result.holds, pre_result, post_result, dom, post_dom)


class Classification(Record):
    __slots__ = ("kind", "matched_contract")
    kind: str  # NEW | REGRESSION
    matched_contract: int | None  # index into history of the first matching contract

    def matches_declared(self, declared: str | None) -> bool:
        """Triangulation tests probe an already-contracted region, so they
        count as regression-compatible."""
        if declared is None:
            return True
        if declared == NEW:
            return self.kind == NEW
        if declared in _REGRESSION_LIKE:
            return self.kind == REGRESSION
        return False


def classify_test(test: TestCase, history: list[Contract]) -> Classification:
    """regression iff the test instantiates the union of the history,
    otherwise new. An empty history always classifies new. A pointwise
    check: nothing is enumerated. Each contract is judged as is_instance
    judges it, pre then post, in history order.
    """
    if not history:
        return Classification(NEW, None)
    combined = {**test.inputs, **test.expected}
    held = []  # per contract: whether its pre holds
    for index, contract in enumerate(history):
        pre_holds = closure(contract.pre)(test.inputs)
        if pre_holds and closure(contract.post)(combined):
            return Classification(REGRESSION, index)
        held.append(pre_holds)
    # The union can hold without any single contract holding (pre of one
    # disjunct, post of another); it still counts as covered territory.
    # Every pre was judged above without raising, so the union's pre holds
    # iff one of them did. Its post is judged in order, as the Or would be:
    # each post judged above was false and did not raise, so only the
    # others are judged now.
    if any(held) and any(closure(c.post)(combined) for c, pre_holds in zip(history, held) if not pre_holds):
        return Classification(REGRESSION, None)
    return Classification(NEW, None)


def validate_scope(contract: Contract, in_params: frozenset[str], out_params: frozenset[str]) -> None:
    """Enforce the contract scope rules against a program signature.

    Raises ValueError naming the out-of-scope variables.
    """
    bad_pre = free(contract.pre) - in_params
    if bad_pre:
        raise ValueError(
            f"precondition may only read in-parameters; out of scope: {sorted(bad_pre)}"
        )
    bad_post = free(contract.post) - (in_params | out_params)
    if bad_post:
        raise ValueError(
            f"postcondition reads out-of-scope variables: {sorted(bad_post)}"
        )
