"""Contracts {P}{Q} and their algebra: instance checks, union, subsumption,
and test classification.

A contract is "simplified" design-by-contract: no invariants, no rescue
clauses. Union is the purely syntactic OR-composition {P or P'}{Q or Q'};
it weakens both sides, which is what makes earlier tests keep passing as
cycles accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .lang import ast
from .lang.printer import format_predicate
from .predicates import Domain, ImplicationResult, Predicate, State, eval_predicate, implies

NEW = "new"
REGRESSION = "regression"
TRIANGULATION = "triangulation"

#: declared kinds that classify_test treats as regression-compatible
_REGRESSION_LIKE = (REGRESSION, TRIANGULATION)


@dataclass(frozen=True)
class Contract:
    """Precondition/postcondition pair.

    The precondition may only read in-parameters; the postcondition may
    read in- and out-parameters.
    """

    pre: Predicate
    post: Predicate

    def __str__(self) -> str:
        return f"{{{format_predicate(self.pre)}}}{{{format_predicate(self.post)}}}"


@dataclass(frozen=True)
class TestCase:
    """Named input binding plus expected output binding.

    declared_kind is advisory ("new", "regression", "triangulation"); replay
    compares it against the computed classification and reports mismatches
    instead of failing.
    """

    __test__ = False  # not a pytest class

    name: str
    inputs: State
    expected: State
    declared_kind: str | None = None


@dataclass(frozen=True)
class InstanceCheck:
    holds: bool
    pre_holds: bool
    post_holds: bool | None
    explanation: str

    def __bool__(self) -> bool:
        return self.holds


def is_instance(test: TestCase, contract: Contract) -> InstanceCheck:
    """A test instantiates a contract when its inputs satisfy the pre and
    its inputs plus expected outputs satisfy the post."""
    pre_holds = eval_predicate(contract.pre, test.inputs)
    if not pre_holds:
        return InstanceCheck(
            False, False, None, f"inputs {test.inputs} do not satisfy the precondition"
        )
    combined = {**test.inputs, **test.expected}
    post_holds = eval_predicate(contract.post, combined)
    if not post_holds:
        return InstanceCheck(
            False, True, False, f"expected outputs {test.expected} violate the postcondition"
        )
    return InstanceCheck(True, True, True, "inputs satisfy pre and outputs satisfy post")


def union(c1: Contract, c2: Contract) -> Contract:
    """Syntactic OR of the preconditions and of the postconditions."""
    return Contract(pre=ast.Or(c1.pre, c2.pre), post=ast.Or(c1.post, c2.post))


def union_all(contracts: list[Contract]) -> Contract:
    """Left fold of union over a nonempty contract list."""
    if not contracts:
        raise ValueError("union_all needs at least one contract")
    return reduce(union, contracts)


@dataclass(frozen=True)
class SubsumptionCheck:
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
    extra = (ast.free_vars(c1.post) | ast.free_vars(c2.post)) - dom.vars
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


@dataclass(frozen=True)
class Classification:
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
    check: nothing is enumerated.
    """
    if not history:
        return Classification(NEW, None)
    matched = None
    for index, contract in enumerate(history):
        if is_instance(test, contract).holds:
            matched = index
            break
    if matched is not None:
        return Classification(REGRESSION, matched)
    # The union can hold without any single contract holding (pre of one
    # disjunct, post of another); it still counts as covered territory.
    if is_instance(test, union_all(history)).holds:
        return Classification(REGRESSION, None)
    return Classification(NEW, None)


def validate_scope(contract: Contract, in_params: frozenset[str], out_params: frozenset[str]) -> None:
    """Enforce the contract scope rules against a program signature.

    Raises ValueError naming the out-of-scope variables.
    """
    bad_pre = ast.free_vars(contract.pre) - in_params
    if bad_pre:
        raise ValueError(
            f"precondition may only read in-parameters; out of scope: {sorted(bad_pre)}"
        )
    bad_post = ast.free_vars(contract.post) - (in_params | out_params)
    if bad_post:
        raise ValueError(
            f"postcondition reads out-of-scope variables: {sorted(bad_post)}"
        )


__all__ = [
    "Classification",
    "Contract",
    "InstanceCheck",
    "NEW",
    "REGRESSION",
    "TRIANGULATION",
    "SubsumptionCheck",
    "TestCase",
    "classify_test",
    "is_instance",
    "subsumed_by",
    "union",
    "union_all",
    "validate_scope",
]
