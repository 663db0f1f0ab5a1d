"""Contracts {P}{Q} and their algebra: instance checks, union, subsumption,
and test classification.

A contract is "simplified" design-by-contract: no invariants, no rescue
clauses. Union is the purely syntactic OR-composition {P or P'}{Q or Q'};
it weakens both sides, which is what makes earlier tests keep passing as
cycles accumulate.

Every query reads a contract through its prepared values
(predicates.Prepared, made on first use and kept by the Contract): the
scope check its predicates' free variables, instance checks and test
classification their closures, subsumption all four facts. A union's
values compose its parts', so a replay that extends its running union
once per cycle never walks or compiles the union again, and
classify_test judges the union of the history from the contracts' own
closures without building it.
"""

from __future__ import annotations


from .lang.ast import Record
from .lang.printer import format_predicate
from .predicates import Domain, ImplicationResult, Predicate, Prepared, State, implication

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

    __slots__ = ("pre", "post", "_prepared")
    pre: Predicate
    post: Predicate

    @classmethod
    def of(cls, pre: Prepared, post: Prepared) -> "Contract":
        """The contract {pre.pred}{post.pred}, keeping pre and post as its
        prepared values."""
        contract = cls(pre.pred, post.pred)
        object.__setattr__(contract, "_prepared", (pre, post))
        return contract

    @property
    def prepared(self) -> tuple[Prepared, Prepared]:
        """The pre and post as Prepared values, made on first use and kept
        in the _prepared slot (Contract is frozen, hence object.__setattr__;
        equality, hashing and repr see only pre and post)."""
        try:
            return self._prepared
        except AttributeError:
            pass
        prepared = (Prepared(self.pre), Prepared(self.post))
        object.__setattr__(self, "_prepared", prepared)
        return prepared

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
    its inputs plus expected outputs satisfy the post."""
    pre, post = contract.prepared
    pre_holds = pre.test(test.inputs)
    if not pre_holds:
        return InstanceCheck(
            False, False, None, f"inputs {test.inputs} do not satisfy the precondition"
        )
    combined = {**test.inputs, **test.expected}
    post_holds = post.test(combined)
    if not post_holds:
        return InstanceCheck(
            False, True, False, f"expected outputs {test.expected} violate the postcondition"
        )
    return InstanceCheck(True, True, True, "inputs satisfy pre and outputs satisfy post")


def union(c1: Contract, c2: Contract) -> Contract:
    """Syntactic OR of the preconditions and of the postconditions, whose
    prepared values compose c1's and c2's."""
    (pre1, post1), (pre2, post2) = c1.prepared, c2.prepared
    return Contract.of(Prepared.either(pre1, pre2), Prepared.either(post1, post2))


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
    (pre1, post1), (pre2, post2) = c1.prepared, c2.prepared
    pre_result = implication(pre1, pre2, dom)
    extra = (post1.free | post2.free) - dom.vars
    extension: dict[str, tuple[int, int]] = {}
    for name in sorted(extra):
        if out_ranges and name in out_ranges:
            extension[name] = out_ranges[name]
        else:
            extension[name] = dom.widest_range()
    post_dom = dom.extend(extension) if extension else dom
    if not pre_result.holds:
        return SubsumptionCheck(False, pre_result, None, dom, post_dom)
    post_result = implication(post1, post2, post_dom)
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
    check: nothing is enumerated.
    """
    if not history:
        return Classification(NEW, None)
    checks = []
    for index, contract in enumerate(history):
        check = is_instance(test, contract)
        if check.holds:
            return Classification(REGRESSION, index)
        checks.append(check)
    # The union can hold without any single contract holding (pre of one
    # disjunct, post of another); it still counts as covered territory.
    # Every pre was judged above without raising, so the union's pre holds
    # iff one of them did. Its post is judged in order, as the Or would be:
    # each post judged above was false and did not raise, so only the
    # others are judged now.
    if any(check.pre_holds for check in checks):
        combined = {**test.inputs, **test.expected}
        if any(c.prepared[1].test(combined) for c, check in zip(history, checks) if not check.pre_holds):
            return Classification(REGRESSION, None)
    return Classification(NEW, None)


def validate_scope(contract: Contract, in_params: frozenset[str], out_params: frozenset[str]) -> None:
    """Enforce the contract scope rules against a program signature.

    Raises ValueError naming the out-of-scope variables.
    """
    pre, post = contract.prepared
    bad_pre = pre.free - in_params
    if bad_pre:
        raise ValueError(
            f"precondition may only read in-parameters; out of scope: {sorted(bad_pre)}"
        )
    bad_post = post.free - (in_params | out_params)
    if bad_post:
        raise ValueError(
            f"postcondition reads out-of-scope variables: {sorted(bad_post)}"
        )
