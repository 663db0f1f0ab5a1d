"""Bounded checking of Hoare triples {P}S{Q} by exhaustive execution.

check() enumerates every in-parameter assignment in the Domain, skips the
ones failing the precondition, runs the program on the rest, and evaluates
the postcondition on each final state. Non-termination within the step
budget is a failure (total-correctness reading), and a precondition that
no domain point satisfies yields the distinct Vacuous verdict: a vacuous
"Verified" would let the slicer delete everything.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    validate_scope(
        contract, in_params, frozenset(program.out_params), program.locals
    )


def check(
    program: ast.Program,
    contract: Contract,
    dom: Domain,
    step_budget: int = DEFAULT_STEP_BUDGET,
) -> VerificationResult:
    """Decide {pre} program {post} over dom by exhaustive execution."""
    _validate(program, contract, dom)
    pre, post = compile_bool(contract.pre), compile_bool(contract.post)
    checked = 0
    for inputs in dom.points():
        try:
            if not pre(inputs):
                continue
        except EvaluationFault as fault:
            return VerificationResult(
                FAULT,
                Witness(inputs, None, f"precondition fault: {fault.reason}"),
                checked,
                dom,
            )
        checked += 1
        result = run(program, inputs, step_budget, record=False)
        if result.status != OK:
            detail = f"{result.fault_reason} at statement {result.fault_stmt_id}"
            return VerificationResult(
                result.status, Witness(inputs, result.final, detail), checked, dom
            )
        try:
            if not post(result.final):
                return VerificationResult(
                    COUNTEREXAMPLE,
                    Witness(inputs, result.final, "postcondition is false"),
                    checked,
                    dom,
                )
        except EvaluationFault as fault:
            return VerificationResult(
                FAULT,
                Witness(inputs, result.final, f"postcondition fault: {fault.reason}"),
                checked,
                dom,
            )
    if checked == 0:
        return VerificationResult(VACUOUS, None, 0, dom)
    return VerificationResult(VERIFIED, None, checked, dom)


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
    validate_scope(
        contract,
        frozenset(program.in_params),
        frozenset(program.out_params),
        program.locals,
    )
    try:
        pre_holds = eval_predicate(contract.pre, inputs)
    except EvaluationFault as fault:
        return PointCheck(FAULT, inputs, None, f"precondition fault: {fault.reason}")
    if not pre_holds:
        return PointCheck(
            PRE_VIOLATION, inputs, None, "inputs do not satisfy the precondition"
        )
    result = run(program, inputs, step_budget, record=False)
    if result.status != OK:
        detail = f"{result.fault_reason} at statement {result.fault_stmt_id}"
        return PointCheck(result.status, inputs, result.final, detail, result)
    try:
        post_holds = eval_predicate(contract.post, result.final)
    except EvaluationFault as fault:
        return PointCheck(
            FAULT, inputs, result.final, f"postcondition fault: {fault.reason}", result
        )
    if not post_holds:
        return PointCheck(FAIL, inputs, result.final, "postcondition is false", result)
    return PointCheck(PASS, inputs, result.final, None, result)
