"""Bounded checking of Hoare triples {P}S{Q} by exhaustive execution.

check() enumerates every in-parameter assignment in the Domain, skips the
ones failing the precondition, runs the program on the rest, and evaluates
the postcondition on each final state. Non-termination within the step
budget is a failure (total-correctness reading), and a precondition that
no domain point satisfies yields the distinct Vacuous verdict: a vacuous
"Verified" would let the slicer delete everything.

One loop, _scan, judges every domain scan, a row of Domain.rows() at a
time: each distinct precondition of the live (pre, run, post) triples is
judged once per row with its row form (compile_bool's row), and only at
the values where it held is the point built, the program run and the
postcondition judged (_settle); a row whose precondition raises is judged
point by point with _judge, so every witness, count and run is that of
judging the points one by one. A triple leaves at its first failure. Its
runs are lang.interp.runner's, made once per scan: a point costs no input
check and no RunResult. A Judge feeds it one triple: a program and its
contract, validated and compiled once, then judged with any number of
kept-sets of its statements (the slicer's candidates). Its runner gets
the contract's postcondition, which a scan long enough to run compiled
source judges inside that source, so a point that passes there builds no
final state and _settle only words the outcome; check() is
Judge(...).check(), and Judge.first_failure() settles given points whose
precondition is known to hold one by one, in order. check_all() decides
many (program, contract) pairs in one scan, remembering each shared
program and (program, postcondition) for the latest point only, which
suffices because the triples judged at a point read the same inputs and
final states; a program's runs serve every postcondition paired with it,
so none is fused.
check_point() judges a single input with _judge through the checked run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .contracts import Contract, validate_scope
from .errors import EvaluationFault, ParseError
from .lang import ast
from .lang.interp import (
    BUDGET_EXCEEDED,
    DEFAULT_STEP_BUDGET,
    FAULT,
    OK,
    PASSED,
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
    with a PointCheck status, as _settle gives it; ran is false exactly
    when the program did not run, after a fault in the precondition (a
    FAULT status). Any other exception propagates.
    """
    try:
        if not pre(inputs):
            return None
    except EvaluationFault as fault:
        return FAULT, None, f"precondition fault: {fault.reason}", False
    return _settle(execute, post, inputs)


#: the outcome of every point that passes where the run judged post itself
_PASSED = (PASS, None, None, True)


def _settle(execute, post, inputs: State) -> tuple:
    """Judge one point whose precondition holds: run -> post holds.

    (status, final, detail, True) with a PointCheck status. execute(inputs)
    runs the program and returns the plain tuple of runner, or PASSED when
    it was made with this post, fused, and post held: then the outcome is
    one shared PASS with no final state. A fault in the postcondition is a
    FAULT status; any other exception propagates.
    """
    ran = execute(inputs)
    if ran is PASSED:
        return _PASSED
    status, final, _, _, stmt_id, reason = ran
    if status != OK:
        return status, final, f"{reason} at statement {stmt_id}", True
    try:
        if post(final):
            return PASS, final, None, True
    except EvaluationFault as fault:
        return FAULT, final, f"postcondition fault: {fault.reason}", True
    return FAIL, final, "postcondition is false", True


def _pre_tests(pred: ast.BoolExpr, row: str | None) -> tuple:
    """pred compiled to judge rows of row's values and single points:
    (row_test, test). row_test is None, so that rows are judged point by
    point, when there is no row variable or pred is nested too deeply for
    the row form, which takes a frame more than test at some nodes."""
    test = compile_bool(pred)
    if row is None:
        return None, test
    try:
        return compile_bool(pred, row), test
    except ParseError:
        return None, test


def _held(row_test, prefix: State, values: range):
    """The values of a row at which a precondition holds, in no set
    order, or None when the row is to be judged point by point: there is
    no row test, or it raised."""
    if row_test is None:
        return None
    try:
        return row_test(prefix, values)
    except Exception:
        return None


def _visit(held: dict, values: range):
    """The values of a row to visit, ascending, when more than one
    precondition was judged on it (held, as _held gives them): all of them
    if one is to be judged point by point, else those where one holds.
    Turns each list in held into values, when it holds at all of them, or
    a set."""
    for pre, hits in held.items():
        if hits is not None:
            held[pre] = values if len(hits) == len(values) else set(hits)
    tested = held.values()
    if None in tested or values in tested:
        return values
    return sorted(set().union(*tested))


def _scan(pres, triples: list[tuple], dom: Domain) -> list:
    """The one judging loop: the verdict of each (pre, execute, post)
    triple over dom, or the exception it raised.

    pre indexes pres, one (row_test, test) pair per distinct precondition
    (see _pre_tests). Each precondition a live triple reads is judged once
    per row of dom.rows() with its row_test; at each value where one held,
    in ascending order, the point is built and the live triples that read
    it run and judge their postcondition there (_settle). A precondition
    whose row_test raised is judged on that row point by point with its
    test (_judge), so the first failure, every witness, count and run is
    that of judging the points one by one. A triple leaves at its first
    failure or exception.
    """
    row = dom.row
    verdicts: list = [None] * len(triples)
    checked = [0] * len(triples)  # points where the precondition held
    live = list(enumerate(triples))
    for prefix, values in dom.rows():
        if not live:
            break
        held = {}
        for _, (pre, _, _) in live:
            if pre not in held:
                held[pre] = _held(pres[pre][0], prefix, values)
        # from here on, a precondition is None (judged point by point),
        # values (it holds at every value visited) or the set where it holds
        if len(held) == 1:
            hits = held[pre]
            if hits is None or hits is values:
                visit = values
            else:
                visit = values if len(hits) == len(values) else sorted(hits)
                held[pre] = values
        else:
            visit = _visit(held, values)
        for value in visit:
            if row is None:
                point = prefix
            else:
                point = prefix.copy()
                point[row] = value
            failed = False
            for index, (pre, execute, post) in live:
                hits = held[pre]
                try:
                    if hits is None:
                        outcome = _judge(pres[pre][1], execute, post, point)
                        if outcome is None:
                            continue
                    elif hits is values or value in hits:
                        outcome = _settle(execute, post, point)
                    else:
                        continue
                except Exception as err:
                    verdicts[index] = err
                    failed = True
                    continue
                if outcome[0] == PASS:
                    checked[index] += 1
                    continue
                status, final, detail, ran = outcome
                if ran:
                    checked[index] += 1
                verdict = COUNTEREXAMPLE if status == FAIL else status
                witness = Witness(point, final, detail)
                verdicts[index] = VerificationResult(verdict, witness, checked[index], dom)
                failed = True
            if failed:
                live = [entry for entry in live if verdicts[entry[0]] is None]
                if not live:
                    break
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
        self.pres = (_pre_tests(contract.pre, dom.row),)
        self.contract = contract
        self.post = compile_bool(contract.post)
        self.dom = dom
        self.step_budget = step_budget

    def first_failure(self, points, kept: frozenset[int] | None = None) -> Witness | None:
        """The witness at the first of points that the program, keeping the
        statements in kept (all if None), fails, or None.

        Each of points must satisfy the precondition, which is not judged
        again: the slicer gives the witnesses of earlier runs, each a point
        where check() found that it holds.
        """
        execute = runner(self.program, self.step_budget, kept=kept, post=self.contract.post)
        for point in points:
            status, final, detail, _ = _settle(execute, self.post, point)
            if status != PASS:
                return Witness(point, final, detail)
        return None

    def check(self, kept: frozenset[int] | None = None) -> VerificationResult:
        """What check(program, contract, dom, step_budget) returns, for the
        program keeping the statements in kept (all if None): the same as
        for the program with the other statements deleted."""
        execute = runner(self.program, self.step_budget, kept=kept, post=self.contract.post)
        (verdict,) = _scan(self.pres, [(0, execute, self.post)], self.dom)
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
    exception it raises. Equal pairs are decided once; equal preconditions
    are judged once per row, and equal programs and (program,
    postcondition) pairs once per point, shared by the pairs that read
    them; a pair stops costing anything at its first failure. Memory is
    bounded by one row per shared precondition and one point per other
    shared item, whatever the size of dom.
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

    pre_tests = _compile_each(partial(_pre_tests, row=dom.row), pres)
    post_tests = _compile_each(compile_bool, posts)
    # every point's inputs and final states are shared by the triples
    # judged at that point, so remembering the latest argument suffices
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
        judged[triple] = (pre, executors[code], post_getters[code, post])
    scanned = _scan(pre_tests, list(judged.values()), dom)
    verdicts.update(zip(judged, scanned))
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


def _compile_each(compile, preds: list[ast.BoolExpr]) -> list:
    """compile of each predicate, or the exception it raised."""
    compiled = []
    for pred in preds:
        try:
            compiled.append(compile(pred))
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
