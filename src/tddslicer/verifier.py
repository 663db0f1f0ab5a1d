"""Bounded checking of Hoare triples {P}S{Q} by exhaustive execution.

check() enumerates every in-parameter assignment in the Domain, skips the
ones failing the precondition, runs the program on the rest, and evaluates
the postcondition on each final state. Non-termination within the step
budget is a failure (total-correctness reading), and a precondition that
no domain point satisfies yields the distinct Vacuous verdict: a vacuous
"Verified" would let the slicer delete everything.

Judge.check scans a domain of NEST_FROM_POINTS points or more with one
compiled loop nest (lang.interp.loop_nest) and judges the first point
that does not pass again with _judge on the closures, so every witness,
detail and exception comes from one place. _scan judges every other
scan from its visits, the points where some precondition holds or
raises, as predicates.visits gives them: one compiled filter at or above
the gate, the closures below it. Its runs are lang.interp.runner's, made
once per scan. Contracts are validated and judged through the facts their
predicates keep (predicates): the scope check reads their free variables
and every scan their closures, so a contract checked many times is
walked and compiled once.
A Judge validates a program and its contract once, and compiles each at
most once, for any number of kept-sets of its statements (the slicer's
candidates); Judge.first_failure() settles given points whose
precondition is known to hold. Below the gate a Judge also keeps the
points where its precondition holds, as its first closure scan that
verifies draws them, and scans every later kept-set over those points
only, in first_failure's loop, so the slicer judges the precondition
once per point. check_all() decides many (program, contract) pairs in one scan,
remembering each shared program and (program, postcondition) for the
latest point only, which suffices because the triples judged at a point
read the same inputs and final states. It makes a program's runner for
every point of the domain when one of its triples is judged under a
precondition that holds at every point by construction
(predicates.static_implication from TRUE), so from NEST_FROM_POINTS
points on that program runs its emitted source; every other runner is
made for one call and runs on the closures. check_point() judges a
single input with _judge through the checked run.
"""

from __future__ import annotations

import math

from .contracts import Contract, validate_scope
from .errors import EvaluationFault
from .lang import ast, interp
from .lang.ast import Record
from .lang.interp import (
    DEFAULT_STEP_BUDGET,
    FAULT,
    OK,
    RunResult,
    loop_nest,
    run,
    runner,
)
from .predicates import Domain, State, closure, static_implication, visits

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
VACUOUS = "vacuous"
# lang.interp's run statuses FAULT and BUDGET_EXCEEDED are verdicts too

PASS = "pass"
FAIL = "fail"
PRE_VIOLATION = "pre_violation"

class Witness(Record, defaults={"final": None, "detail": None}):
    """The first failing domain point in enumeration order."""

    __slots__ = ("inputs", "final", "detail")
    inputs: State
    final: State | None
    detail: str | None


class VerificationResult(Record):
    __slots__ = ("verdict", "witness", "checked_points", "domain")
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


def _settle(execute, post, inputs: State) -> tuple:
    """Judge one point whose precondition holds: run -> post holds.

    (status, final, detail, True) with a PointCheck status. execute(inputs)
    runs the program and returns the plain tuple of runner. A fault in the
    postcondition is a FAULT status; any other exception propagates.
    """
    status, final, _, _, stmt_id, reason = execute(inputs)
    if status != OK:
        return status, final, f"{reason} at statement {stmt_id}", True
    try:
        if post(final):
            return PASS, final, None, True
    except EvaluationFault as fault:
        return FAULT, final, f"postcondition fault: {fault.reason}", True
    return FAIL, final, "postcondition is false", True


def _scan(triples: list[tuple], visited, dom: Domain) -> list:
    """The one judging loop: the verdict of each (pre, test, execute, post)
    triple over dom, or the exception it raised.

    visited is what visits gives for the triples' preconditions: (point,
    held) in enumeration order at every point where some precondition
    holds or raises; pre indexes held. A triple whose precondition holds
    there runs and judges its postcondition (_settle); one whose
    precondition raised is judged again with its closure test (_judge), so
    every witness, count and exception is that of judging the points one
    by one. A triple leaves at its first failure or exception.
    """
    verdicts: list = [None] * len(triples)
    checked = [0] * len(triples)  # points where the precondition held
    live = list(enumerate(triples))
    for point, held in visited:
        failed = False
        for index, (pre, test, execute, post) in live:
            try:
                if held[pre] is None:
                    outcome = _judge(test, execute, post, point)
                    if outcome is None:
                        continue
                elif held[pre]:
                    outcome = _settle(execute, post, point)
                else:
                    continue
            except Exception as err:
                verdicts[index] = err
                failed = True
                continue
            checked[index] += outcome[3]
            if outcome[0] != PASS:
                verdicts[index] = _failed(outcome, point, checked[index], dom)
                failed = True
        if failed:
            live = [entry for entry in live if verdicts[entry[0]] is None]
            if not live:
                break
    for index, _ in live:
        count = checked[index]
        verdicts[index] = VerificationResult(VERIFIED if count else VACUOUS, None, count, dom)
    return verdicts


def _failed(outcome: tuple, point: State, checked: int, dom: Domain) -> VerificationResult:
    """The verdict of a scan whose first failure is outcome, _judge's, at point."""
    status, final, detail, _ = outcome
    verdict = COUNTEREXAMPLE if status == FAIL else status
    return VerificationResult(verdict, Witness(point, final, detail), checked, dom)


class Judge:
    """program and contract made ready to judge over dom: validated once,
    and each compiled at most once, so judging the program with many
    kept-sets of its statement ids (runner's kept), as the slicer judges
    its candidates, pays for both once. The contract's closures (its
    predicates keep them) are made when a point is first judged on them:
    a loop nest that finds no failure needs none. Below the gate the
    precondition is judged once per point for all kept-sets: check keeps
    the points where it holds (pre_points).
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
        self.contract = contract
        self.dom = dom
        self.step_budget = step_budget
        # the points of dom where the precondition holds, in enumeration
        # order, once a scan on the closures below the gate has drawn them
        # all without the precondition raising; None until then
        self.pre_points: tuple[State, ...] | None = None

    def first_failure(self, points, kept: frozenset[int] | None = None) -> Witness | None:
        """The witness at the first of points that the program, keeping the
        statements in kept (all if None), fails, or None.

        Each of points must satisfy the precondition, which is not judged
        again: the slicer gives the witnesses of earlier runs, each a point
        where check() found that it holds. check() runs its kept points
        through the same loop (_first).
        """
        found = self._first(points, kept)
        if found is None:
            return None
        _, point, (_, final, detail, _) = found
        return Witness(point, final, detail)

    def _first(self, points, kept: frozenset[int] | None) -> tuple | None:
        """(position, point, outcome) at the first of points, each one where
        the precondition holds, that the program keeping kept does not pass,
        outcome being _settle's, or None: the one loop that judges points
        without their precondition."""
        execute = runner(self.program, self.step_budget, kept=kept)
        post = closure(self.contract.post)
        for position, point in enumerate(points):
            outcome = _settle(execute, post, point)
            if outcome[0] != PASS:
                return position, point, outcome
        return None

    def check(self, kept: frozenset[int] | None = None) -> VerificationResult:
        """What check(program, contract, dom, step_budget) returns, for the
        program keeping the statements in kept (all if None): the same as
        for the program with the other statements deleted. A domain of
        NEST_FROM_POINTS points or more is scanned by a loop nest, unless
        Python refuses it, and its first failure judged again by _judge;
        other scans judge the visits of the precondition (visits). The
        closures and the run are made only after the nest, if it stopped
        at a point or Python refused its source.

        Below the gate, read at each call, the first scan that ends
        verified or vacuous without the precondition raising keeps the
        points where it holds (pre_points), recorded as the scan draws
        them, so no point is judged that the scan would not judge. Later
        scans below the gate run only those points, in first_failure's
        loop, and give a witness a copy of its point."""
        contract, dom = self.contract, self.dom
        below = math.prod(hi - lo + 1 for _, lo, hi in dom.ranges) < interp.NEST_FROM_POINTS
        if below and self.pre_points is not None:
            found = self._first(self.pre_points, kept)
            if found is None:
                count = len(self.pre_points)
                return VerificationResult(VERIFIED if count else VACUOUS, None, count, dom)
            position, point, outcome = found
            return _failed(outcome, dict(point), position + 1, dom)
        scan = None if below else loop_nest(self.program, self.step_budget, kept, dom.ranges,
                                            contract.pre, contract.post)
        if scan is not None:
            point, count = scan()
            if point is None:
                return VerificationResult(VERIFIED if count else VACUOUS, None, count, dom)
        pre, post = closure(contract.pre), closure(contract.post)
        execute = runner(self.program, self.step_budget, kept=kept)
        if scan is not None:
            outcome = _judge(pre, execute, post, point)
            # the closures agree unless Python's stack or memory runs out on
            # one side only: then the scan of the visits decides
            if outcome is not None and outcome[0] != PASS:
                return _failed(outcome, point, count + outcome[3], dom)
        drawn: list = []
        visited = visits(dom, ((contract.pre, pre),))
        (verdict,) = _scan([(0, pre, execute, post)], _recorded(visited, drawn) if below else visited, dom)
        if isinstance(verdict, Exception):
            raise verdict
        if below and verdict.verdict in (VERIFIED, VACUOUS) and all(held[0] for _, held in drawn):
            self.pre_points = tuple(point for point, _ in drawn)
        return verdict


def _recorded(visited, drawn: list):
    """visited, each visit appended to drawn as it is drawn."""
    for visit in visited:
        drawn.append(visit)
        yield visit


def check_all(
    pairs: list[tuple[ast.Program, Contract]],
    dom: Domain,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> list[VerificationResult | Exception]:
    """Decide every (program, contract) pair over dom in one scan of dom.

    Result i is what check(*pairs[i], dom, step_budget) returns, or the
    exception it raises. Equal pairs are decided once; equal
    preconditions, programs and (program, postcondition) pairs are judged
    once per point, shared by the pairs that read them; a pair stops
    costing its run and postcondition at its first failure. Memory is
    bounded by one point per shared item, whatever the size of dom.
    """
    programs, pres, posts = _Shared(), _Shared(), _Shared()
    triples: dict[tuple[int, int, int], int] = {}  # (pre, program, post) slots -> triple
    asked: list = []  # per pair: its triple, or the exception validating it raised
    for program, contract in pairs:
        try:
            _validate(program, contract, dom)
        except Exception as err:
            asked.append(err)
            continue
        slots = (pres.slot(contract.pre), programs.slot(program), posts.slot(contract.post))
        asked.append(triples.setdefault(slots, len(triples)))

    # a program judged under a precondition that holds at every point, by
    # construction, runs at every point of dom until that triple fails; a
    # fresh TRUE keeps its facts for this call only
    always, size = ast.BoolLit(True), math.prod(hi - lo + 1 for _, lo, hi in dom.ranges)
    everywhere = {code for pre, code, _ in triples if static_implication(always, pres.items[pre], dom)}
    # every point's inputs and final states are shared by the triples
    # judged at that point, so remembering the latest argument suffices
    executors = [_latest(runner(program, step_budget, calls=size if code in everywhere else 1))
                 for code, program in enumerate(programs.items)]
    post_getters: dict[tuple[int, int], object] = {}
    verdicts: dict[int, object] = {}  # triple -> its exception or verdict
    judged: dict[int, tuple] = {}  # triple -> (pre, test, execute, post) for the scan
    scanned: dict[int, int] = {}  # pre slot of a judged triple -> its place in held
    for triple, (pre, code, post) in enumerate(triples):
        try:
            pre_test, post_test = closure(pres.items[pre]), closure(posts.items[post])
        except Exception as err:
            verdicts[triple] = err
            continue
        if (code, post) not in post_getters:
            post_getters[code, post] = _latest(post_test)
        place = scanned.setdefault(pre, len(scanned))
        judged[triple] = (place, pre_test, executors[code], post_getters[code, post])
    if judged:
        visited = visits(dom, [(pres.items[pre], closure(pres.items[pre])) for pre in scanned])
        verdicts.update(zip(judged, _scan(list(judged.values()), visited, dom)))
    return [verdicts[triple] if isinstance(triple, int) else triple for triple in asked]


class _Shared:
    """The distinct items seen, in slots: an item takes the slot of the
    first one seen that is the same object or equal to it, found by hashing
    (a Record hashes at any depth, ast._deep_hash). Sharing only saves
    work, so an item too deeply nested to compare takes a slot of its own."""

    def __init__(self):
        self.items: list = []  # the first item of each slot
        self._ids: dict[int, tuple] = {}  # id -> (item, slot); holding the item keeps its id
        self._keys: dict = {}  # item -> slot

    def slot(self, item) -> int:
        """item's slot, a new one if no item before it shares it."""
        seen = self._ids.get(id(item))
        if seen is None:
            slot = len(self.items)
            try:
                slot = self._keys.setdefault(item, slot)
            except RecursionError:
                pass
            if slot == len(self.items):
                self.items.append(item)
            seen = self._ids[id(item)] = (item, slot)
        return seen[1]


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


class PointCheck(Record, defaults={"detail": None, "run_result": None}):
    """Single-point verdict: pass, fail, pre_violation (reported distinctly
    from failure), fault, or budget_exceeded."""

    __slots__ = ("status", "inputs", "final", "detail", "run_result")
    status: str
    inputs: State
    final: State | None
    detail: str | None
    run_result: RunResult | None

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

    # the post's closure is read only if the point gets that far, so a
    # postcondition too deep to compile fails only a point it judges
    outcome = _judge(closure(contract.pre), execute, lambda final: closure(contract.post)(final), inputs)
    if outcome is None:
        return PointCheck(
            PRE_VIOLATION, inputs, None, "inputs do not satisfy the precondition"
        )
    status, final, detail, _ = outcome
    return PointCheck(status, inputs, final, detail, ran[0] if ran else None)
