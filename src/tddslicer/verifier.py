"""Bounded checking of Hoare triples {P}S{Q} by exhaustive execution.

check() enumerates every in-parameter assignment in the Domain, skips the
ones failing the precondition, runs the program on the rest, and evaluates
the postcondition on each final state. Non-termination within the step
budget is a failure (total-correctness reading), and a precondition that
no domain point satisfies yields the distinct Vacuous verdict: a vacuous
"Verified" would let the slicer delete everything.

One loop, _scan, judges every domain scan: point by point, each live
(pre, run, post) triple is judged with _judge, and a triple leaves at its
first failure. Its runs are lang.interp.runner's, made once per scan: a
point costs no input check and no RunResult. A Judge feeds it one triple:
a program and its contract, validated and compiled once, then judged with
any number of kept-sets of its statements (the slicer's candidates);
check() is Judge(...).check(). check_all() decides many (program,
contract) pairs in one scan, remembering each shared precondition,
program and (program, postcondition) for the latest point only, which
suffices because the triples judged at a point read the same inputs and
final states.
check_point() judges a single input with _judge through the checked run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

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
    runner,
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
    return Judge(program, contract, dom, step_budget).check()


def _judge(pre, execute, post, inputs: State) -> tuple | None:
    """Judge one point: pre holds -> run -> post holds.

    None when the precondition is false, else (status, final, detail, ran)
    with a PointCheck status; ran is false exactly when the program did not
    run. execute(inputs) runs it and returns the plain tuple of runner. A
    fault in a predicate is a FAULT status; any other exception propagates.
    """
    try:
        if not pre(inputs):
            return None
    except EvaluationFault as fault:
        return FAULT, None, f"precondition fault: {fault.reason}", False
    status, final, _, _, stmt_id, reason = execute(inputs)
    if status != OK:
        return status, final, f"{reason} at statement {stmt_id}", True
    try:
        if post(final):
            return PASS, final, None, True
    except EvaluationFault as fault:
        return FAULT, final, f"postcondition fault: {fault.reason}", True
    return FAIL, final, "postcondition is false", True


def _scan(triples: list[tuple], points, dom: Domain) -> list:
    """The one judging loop: the verdict of each (pre, execute, post)
    triple over points, or the exception it raised. Point by point, every
    live triple is judged with _judge; a triple leaves at its first
    failure or exception."""
    verdicts: list = [None] * len(triples)
    checked = [0] * len(triples)  # points where the precondition held
    live = list(enumerate(triples))
    for inputs in points:
        if not live:
            break
        failed = False
        for index, (pre, execute, post) in live:
            try:
                outcome = _judge(pre, execute, post, inputs)
            except Exception as err:
                verdicts[index] = err
                failed = True
                continue
            if outcome is None:
                continue
            if outcome[0] == PASS:
                checked[index] += 1
                continue
            status, final, detail, ran = outcome
            if ran:
                checked[index] += 1
            verdict = COUNTEREXAMPLE if status == FAIL else status
            witness = Witness(inputs, final, detail)
            verdicts[index] = VerificationResult(verdict, witness, checked[index], dom)
            failed = True
        if failed:
            live = [entry for entry in live if verdicts[entry[0]] is None]
    for index, _ in live:
        count = checked[index]
        verdicts[index] = VerificationResult(VERIFIED if count else VACUOUS, None, count, dom)
    return verdicts


class Judge:
    """program and contract made ready to judge over dom: validated and
    compiled once, so judging the program with many kept-sets of its
    statement ids (runner's kept), as the slicer judges its candidates,
    pays for both once.
    """

    def __init__(
        self,
        program: ast.Program,
        contract: Contract,
        dom: Domain,
        step_budget: int = DEFAULT_STEP_BUDGET,
    ):
        _validate(program, contract, dom)
        self.program = program
        self.pre = compile_bool(contract.pre)
        self.post = compile_bool(contract.post)
        self.dom = dom
        self.step_budget = step_budget

    def first_failure(self, points, kept: frozenset[int] | None = None) -> VerificationResult | None:
        """The failure at the first of points that the program, keeping the
        statements in kept (all if None), fails, or None."""
        verdict = self._verdict(points, kept)
        return None if verdict.witness is None else verdict

    def check(self, kept: frozenset[int] | None = None) -> VerificationResult:
        """What check(program, contract, dom, step_budget) returns, for the
        program keeping the statements in kept (all if None): the same as
        for the program with the other statements deleted."""
        return self._verdict(self.dom.points(), kept)

    def _verdict(self, points, kept) -> VerificationResult:
        triple = (self.pre, runner(self.program, self.step_budget, kept=kept), self.post)
        (verdict,) = _scan([triple], points, self.dom)
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


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
    costing anything at its first failure. Memory is bounded by one point
    per shared item, whatever the size of dom.
    """
    programs: list[ast.Program] = []
    pres: list[ast.BoolExpr] = []
    posts: list[ast.BoolExpr] = []
    triples: dict[tuple[int, int, int], int] = {}  # (pre, program, post) slots -> triple
    asked: list = []  # per pair: its triple, or the exception validating it raised
    for program, contract in pairs:
        try:
            _validate(program, contract, dom)
        except Exception as err:
            asked.append(err)
            continue
        slots = (_slot(pres, contract.pre), _slot(programs, program), _slot(posts, contract.post))
        asked.append(triples.setdefault(slots, len(triples)))

    # every point's inputs and final states are shared by the triples
    # judged at that point, so remembering the latest argument suffices
    pre_tests = [
        test if isinstance(test, Exception) else _latest(test) for test in _compile_each(pres)
    ]
    post_tests = _compile_each(posts)
    executors = [_latest(runner(program, step_budget)) for program in programs]
    post_getters: dict[tuple[int, int], object] = {}
    verdicts: dict[int, object] = {}  # triple -> its exception or verdict
    judged: dict[int, tuple] = {}  # triple -> (pre, execute, post) for the scan
    for triple, (pre, code, post) in enumerate(triples):
        pre_test, post_test = pre_tests[pre], post_tests[post]
        if isinstance(pre_test, Exception) or isinstance(post_test, Exception):
            verdicts[triple] = pre_test if isinstance(pre_test, Exception) else post_test
            continue
        if (code, post) not in post_getters:
            post_getters[code, post] = _latest(post_test)
        judged[triple] = (pre_test, executors[code], post_getters[code, post])
    verdicts.update(zip(judged, _scan(list(judged.values()), dom.points(), dom)))
    return [verdicts[triple] if isinstance(triple, int) else triple for triple in asked]


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


def _latest(fn):
    """fn, remembering its latest argument and the value it gave: a call
    with that very object gets the same value. The argument is held, so no
    other object can take over its identity. A call that raises leaves
    nothing behind; the exception ends the scan of every triple that meets
    it, so each meets it once."""
    seen = value = None

    def shared(arg):
        nonlocal seen, value
        if arg is not seen:
            value = fn(arg)
            seen = arg
        return value

    return shared


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
    ran: list[RunResult] = []

    def execute(inputs: State) -> tuple:
        result = run(program, inputs, step_budget, record=False)
        ran.append(result)
        return (result.status, result.final, (), result.steps,
                result.fault_stmt_id, result.fault_reason)

    outcome = _judge(
        partial(eval_predicate, contract.pre),
        execute,
        partial(eval_predicate, contract.post),
        inputs,
    )
    if outcome is None:
        return PointCheck(
            PRE_VIOLATION, inputs, None, "inputs do not satisfy the precondition"
        )
    status, final, detail, _ = outcome
    return PointCheck(status, inputs, final, detail, ran[0] if ran else None)
