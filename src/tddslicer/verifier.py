"""Bounded checking of Hoare triples {P}S{Q} by exhaustive execution.

check() enumerates every in-parameter assignment in the Domain, skips the
ones failing the precondition, runs the program on the rest, and evaluates
the postcondition on each final state. Non-termination within the step
budget is a failure (total-correctness reading), and a precondition that
no domain point satisfies yields the distinct Vacuous verdict: a vacuous
"Verified" would let the slicer delete everything.

check_all() decides many (program, contract) pairs in one scan of the
domain, evaluating what they share once per point; check() is its
one-pair case, which a Judge decides: the contract validated and compiled
once, then any number of programs judged with it (the slicer's
candidates). check_point() judges a single input with the same per-point
routine (_judge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice

from .contracts import Contract, validate_scope
from .errors import EvaluationFault
from .lang import ast
from .lang.interp import (
    BUDGET_EXCEEDED,
    DEFAULT_STEP_BUDGET,
    FAULT,
    OK,
    RunResult,
    compile_bool,
    run,
)
from .predicates import Domain, State, eval_predicate

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
VACUOUS = "vacuous"
# the run statuses FAULT and BUDGET_EXCEEDED are verdicts too

PASS = "pass"
FAIL = "fail"
PRE_VIOLATION = "pre_violation"


@dataclass(frozen=True)
class Witness:
    """The first failing domain point in enumeration order."""

    inputs: State
    final: State | None = None
    detail: str | None = None


@dataclass(frozen=True)
class VerificationResult:
    verdict: str
    witness: Witness | None
    checked_points: int  # domain assignments that satisfied the precondition
    domain: Domain

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": None
            if self.witness is None
            else {
                "inputs": self.witness.inputs,
                "final": self.witness.final,
                "detail": self.witness.detail,
            },
            "checked_points": self.checked_points,
            "domain": str(self.domain),
        }


def _validate(program: ast.Program, contract: Contract, dom: Domain) -> None:
    in_params = frozenset(program.in_params)
    if dom.vars != in_params:
        raise ValueError(
            f"domain must bind exactly the in-parameters {sorted(in_params)}, "
            f"got {sorted(dom.vars)}"
        )
    validate_scope(contract, in_params, frozenset(program.out_params))


def check(
    program: ast.Program,
    contract: Contract,
    dom: Domain,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> VerificationResult:
    """Decide {pre} program {post} over dom by exhaustive execution."""
    (result,) = check_all([(program, contract)], dom, step_budget)
    if isinstance(result, Exception):
        raise result
    return result


def _judge(pre, execute, post, inputs: State) -> tuple | None:
    """Judge one point: pre holds -> run -> post holds.

    None when the precondition is false, else (status, final, detail,
    run_result) with a PointCheck status; run_result is None exactly when
    the program did not run (execute(inputs) runs it). A fault in a
    predicate is a FAULT status; any other exception propagates.
    """
    try:
        if not pre(inputs):
            return None
    except EvaluationFault as fault:
        return FAULT, None, f"precondition fault: {fault.reason}", None
    result = execute(inputs)
    final = result.final
    if result.status != OK:
        detail = f"{result.fault_reason} at statement {result.fault_stmt_id}"
        return result.status, final, detail, result
    try:
        if post(final):
            return PASS, final, None, result
    except EvaluationFault as fault:
        return FAULT, final, f"postcondition fault: {fault.reason}", result
    return FAIL, final, "postcondition is false", result


def _first_failure(pre, execute, post, points, checked: int, dom: Domain) -> tuple:
    """Judge points in order up to the first one that fails: the one
    judging loop behind check_all.

    Returns (checked, failure): checked adds the points where the
    precondition held to the count passed in, and failure is the
    VerificationResult of the first failing point, or None.
    """
    for inputs in points:
        outcome = _judge(pre, execute, post, inputs)
        if outcome is None:
            continue
        if outcome[0] == PASS:
            checked += 1
            continue
        status, final, detail, ran = outcome
        if ran is not None:
            checked += 1
        verdict = COUNTEREXAMPLE if status == FAIL else status
        return checked, VerificationResult(verdict, Witness(inputs, final, detail), checked, dom)
    return checked, None


def _passed(checked: int, dom: Domain) -> VerificationResult:
    """The verdict of a pair that no point failed."""
    return VerificationResult(VERIFIED if checked else VACUOUS, None, checked, dom)


def _executor(program: ast.Program, step_budget: int):
    """The program as a function of its inputs, for _judge. A closure,
    not functools.partial: a partial with keyword arguments merges them
    into a new dict on every call, which a full scan pays per point."""

    def execute(inputs: State) -> RunResult:
        return run(program, inputs, step_budget, record=False)

    return execute


class Judge:
    """A contract made ready to judge programs over dom: validated against
    the signature of program and compiled once, so judging many programs
    with that signature (the slicer's candidates) pays for it once.
    """

    def __init__(
        self,
        program: ast.Program,
        contract: Contract,
        dom: Domain,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        _validate(program, contract, dom)
        self.pre = compile_bool(contract.pre)
        self.post = compile_bool(contract.post)
        self.dom = dom
        self.step_budget = step_budget

    def first_failure(self, program: ast.Program, points) -> VerificationResult | None:
        """The failure at the first of points that program fails, or None."""
        execute = _executor(program, self.step_budget)
        return _first_failure(self.pre, execute, self.post, points, 0, self.dom)[1]

    def check(self, program: ast.Program) -> VerificationResult:
        """What check(program, contract, dom, step_budget) returns."""
        execute = _executor(program, self.step_budget)
        checked, failure = _first_failure(
            self.pre, execute, self.post, self.dom.points(), 0, self.dom
        )
        return failure or _passed(checked, self.dom)


def check_all(
    pairs: list[tuple[ast.Program, Contract]],
    dom: Domain,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> list[VerificationResult | Exception]:
    """Decide every (program, contract) pair over dom in one scan of dom.

    Result i is what check(*pairs[i], dom, step_budget) returns, or the
    exception it raises. Equal pairs are decided once; equal programs,
    preconditions and (program, postcondition) pairs are evaluated once
    per point and shared by the pairs that read them; a pair stops
    costing anything at its first failure. Memory is bounded by one chunk
    of points, whatever the size of dom.
    """
    if len(pairs) == 1:
        # nothing to share: judge the whole domain in one pass
        ((program, contract),) = pairs
        try:
            return [Judge(program, contract, dom, step_budget).check(program)]
        except Exception as err:
            return [err]
    results: list = [None] * len(pairs)
    programs: list[ast.Program] = []
    pres: list[ast.BoolExpr] = []
    posts: list[ast.BoolExpr] = []
    triples: dict[tuple[int, int, int], int] = {}  # (pre, program, post) slots -> triple
    asked: list[tuple[int, int]] = []  # (pair, triple) for every valid pair
    for index, (program, contract) in enumerate(pairs):
        try:
            _validate(program, contract, dom)
        except Exception as err:
            results[index] = err
            continue
        slots = (_slot(pres, contract.pre), _slot(programs, program), _slot(posts, contract.post))
        asked.append((index, triples.setdefault(slots, len(triples))))
    verdicts = _scan(
        list(triples), programs, _compile_each(pres), _compile_each(posts), dom, step_budget
    )
    for index, triple in asked:
        results[index] = verdicts[triple]
    return results


def _slot(known: list, item) -> int:
    """Index of the first entry of known equal to item, appending it if new.

    Sharing only saves work, so items too deeply nested to compare are
    kept apart.
    """
    for slot, other in enumerate(known):
        try:
            if other == item:
                return slot
        except RecursionError:
            pass
    known.append(item)
    return len(known) - 1


def _compile_each(preds: list[ast.BoolExpr]) -> list:
    """compile_bool of each predicate, or the exception it raised."""
    compiled = []
    for pred in preds:
        try:
            compiled.append(compile_bool(pred))
        except Exception as err:
            compiled.append(err)
    return compiled


#: points judged per pass over the live triples: each triple runs through
#: a chunk in one inner loop, and shared work is remembered for one chunk
_CHUNK = 64


def _memoized(fn, caches: list):
    """fn, evaluated at most once per argument object until the caches
    are cleared (before every chunk of points): later calls get the first
    call's value, or the exception it raised.

    Entries are keyed by id(arg) and hold arg itself, so no other object
    can take over that id while the entry lives."""
    cache: dict[int, tuple] = {}
    caches.append(cache)

    def shared(arg):
        hit = cache.get(id(arg))
        if hit is None:
            try:
                hit = (arg, fn(arg), None)
            except Exception as err:
                hit = (arg, None, err)
            cache[id(arg)] = hit
        if hit[2] is not None:
            raise hit[2]
        return hit[1]

    return shared


def _scan(triples, programs, pre_tests, post_tests, dom: Domain, step_budget: int) -> list:
    """The verdict (or exception) of each (pre, program, post) slot triple.

    Every precondition, program and (program, postcondition) is memoized
    for one chunk of points, so the triples reading it evaluate it once
    per point."""
    verdicts: list = [None] * len(triples)
    caches: list[dict] = []
    pre_getters = [
        test if isinstance(test, Exception) else _memoized(test, caches) for test in pre_tests
    ]
    executors = [_memoized(_executor(program, step_budget), caches) for program in programs]
    post_getters: dict[tuple[int, int], object] = {}
    live: list[tuple] = []  # (triple, pre, execute, post)
    for triple, (pre, code, post) in enumerate(triples):
        pre_test, post_test = pre_getters[pre], post_tests[post]
        if isinstance(pre_test, Exception) or isinstance(post_test, Exception):
            verdicts[triple] = pre_test if isinstance(pre_test, Exception) else post_test
            continue
        if (code, post) not in post_getters:
            post_getters[code, post] = _memoized(post_test, caches)
        live.append((triple, pre_test, executors[code], post_getters[code, post]))

    checked = [0] * len(triples)  # points where the precondition held
    points = dom.points()
    while live:
        chunk = list(islice(points, _CHUNK))
        if not chunk:
            break
        for cache in caches:
            cache.clear()
        for triple, pre, execute, post in live:
            try:
                checked[triple], verdicts[triple] = _first_failure(
                    pre, execute, post, chunk, checked[triple], dom
                )
            except Exception as err:
                verdicts[triple] = err
        live = [entry for entry in live if verdicts[entry[0]] is None]
    for entry in live:
        verdicts[entry[0]] = _passed(checked[entry[0]], dom)
    return verdicts


@dataclass(frozen=True)
class PointCheck:
    """Single-point verdict: pass, fail, pre_violation (reported distinctly
    from failure), fault, or budget_exceeded."""

    status: str
    inputs: State
    final: State | None
    detail: str | None = None
    run_result: RunResult | None = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "inputs": self.inputs,
            "final": self.final,
            "detail": self.detail,
        }


def check_point(
    program: ast.Program,
    contract: Contract,
    inputs: State,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> PointCheck:
    """Check one concrete input against a contract (the single-test view)."""
    validate_scope(contract, frozenset(program.in_params), frozenset(program.out_params))
    outcome = _judge(
        partial(eval_predicate, contract.pre),
        _executor(program, step_budget),
        partial(eval_predicate, contract.post),
        inputs,
    )
    if outcome is None:
        return PointCheck(
            PRE_VIOLATION, inputs, None, "inputs do not satisfy the precondition"
        )
    status, final, detail, result = outcome
    return PointCheck(status, inputs, final, detail, result)
