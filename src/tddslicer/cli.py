"""Command-line front end: check, slice, union, replay, trace.

Exit status: 0 when every check passed, 1 when a check failed
(counterexample, failing green/regression check), 2 on usage, parse, or
file errors, 3 on an internal error (one line on stderr, no traceback).
Each cmd_* prints nothing and returns its Outcome. main alone reads
--format and hands _show the payload or the lines; _show stamps the
machine header (format_version 1, command) and prints the whole output at
once, so an output that fails to render prints nothing. Human output
uses a little color unless TDDSLICER_COLOR=0 or stdout is not a terminal.

cmd_slice and cmd_replay import the slicer and the session modules when
they run, so that check, union and trace never load either.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable, Iterable, Iterator

from .contracts import Contract
from .errors import (
    EXHAUSTIVE,
    GREEDY,
    TOO_DEEP,
    ExhaustiveCapError,
    OriginalNotVerifiedError,
    ParseError,
    SessionFormatError,
    VacuousContractError,
)
from .lang.interp import DEFAULT_STEP_BUDGET, OK, project, run
from .lang.parser import load_program, parse_bindings, parse_predicate
from .lang.printer import FORMAT_VERSION, format_predicate, pretty_print, render_json
from .predicates import Domain, PredicateUndefinedError, is_tautology
from .verifier import VACUOUS, VERIFIED, check
from . import contracts as ct

OK_STATUS = 0
CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3

#: what a cmd_* returns: a function that builds its machine payload, its
#: human lines, undrawn, and its exit status
Outcome = tuple[Callable[[], dict], Iterator[str], int]

def _color_enabled() -> bool:
    return sys.stdout.isatty() and os.environ.get("TDDSLICER_COLOR") != "0"


def _paint(text: str, code: str) -> str:
    if not _color_enabled():
        return text
    return f"\033[{code}m{text}\033[0m"


def _good(text: str) -> str:
    return _paint(text, "32")


def _bad(text: str) -> str:
    return _paint(text, "31")


def _warn(text: str) -> str:
    return _paint(text, "33")


def _fmt_state(state: dict[str, int] | None) -> str:
    if state is None:
        return "-"
    return ", ".join(f"{name}={value}" for name, value in sorted(state.items()))


def _show(command: str, output: dict | Iterable[str]) -> None:
    """Print a command's whole output at once: a payload as one JSON
    document (render_json) under the header every machine document
    shares, its format_version and command, or lines made as they are
    drawn. A value longer than CPython's int-to-string limit
    (sys.get_int_max_str_digits()) fails the rendering, so nothing is
    printed and the error is ValueError("value too large to print")."""
    try:
        if isinstance(output, dict):
            text = render_json({**output, "format_version": FORMAT_VERSION, "command": command})
        else:
            text = "\n".join(output)
    except ValueError:
        raise ValueError("value too large to print") from None
    print(text)


def _contract_from_args(pre: str, post: str) -> Contract:
    return Contract(parse_predicate(pre), parse_predicate(post))


def _verdict_text(verdict: str) -> str:
    if verdict == VERIFIED:
        return _good(verdict)
    if verdict == VACUOUS:
        return _warn(verdict)
    return _bad(verdict)


# --- subcommands ---------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> Outcome:
    program = load_program(args.program)
    contract = _contract_from_args(args.pre, args.post)
    dom = Domain.parse(args.domain)
    result = check(program, contract, dom, args.budget)
    status = OK_STATUS if result.verdict in (VERIFIED, VACUOUS) else CHECK_FAILED
    return result.to_dict, _check_lines(result), status


def _check_lines(result) -> Iterator[str]:
    yield f"verdict: {_verdict_text(result.verdict)}"
    yield f"checked points: {result.checked_points}"
    yield f"domain: {result.domain}"
    if result.witness is not None:
        yield f"witness inputs: {_fmt_state(result.witness.inputs)}"
        yield f"witness final:  {_fmt_state(result.witness.final)}"
        if result.witness.detail:
            yield f"detail: {result.witness.detail}"
    if result.verdict == VACUOUS:
        yield _warn("warning: no domain point satisfies the precondition")


def cmd_slice(args: argparse.Namespace) -> Outcome:
    from .slicer import slice as compute_slice

    program = load_program(args.program)
    contract = _contract_from_args(args.pre, args.post)
    dom = Domain.parse(args.domain)
    result = compute_slice(program, contract, dom, strategy=args.strategy, step_budget=args.budget)
    return functools.partial(_slice_document, result), _slice_lines(result), OK_STATUS


def _slice_document(result) -> dict:
    return {
        "strategy": result.strategy,
        "minimal": result.minimal,
        "retained": [{"kind": u.kind, "anchor": u.anchor} for u in sorted(result.retained)],
        "deleted": [{"kind": u.kind, "anchor": u.anchor} for u in sorted(result.deleted)],
        "program": pretty_print(result.program),
        "verification": result.verification.to_dict(),
    }


def _slice_lines(result) -> Iterator[str]:
    yield pretty_print(result.program).removesuffix("\n")
    yield f"strategy: {result.strategy} (minimal: {'yes' if result.minimal else 'not guaranteed'})"
    yield f"retained: {', '.join(map(str, sorted(result.retained))) or '(nothing)'}"
    yield f"deleted:  {', '.join(map(str, sorted(result.deleted))) or '(nothing)'}"
    yield f"verification: {_verdict_text(result.verification.verdict)} over {result.verification.domain}"


def cmd_union(args: argparse.Namespace) -> Outcome:
    if len(args.pre) != 2 or len(args.post) != 2:
        raise ValueError("union needs exactly two --pre and two --post predicates")
    first = _contract_from_args(args.pre[0], args.post[0])
    second = _contract_from_args(args.pre[1], args.post[1])
    combined = ct.union(first, second)
    tautology = None
    if args.domain is not None:
        dom = Domain.parse(args.domain)
        tautology = is_tautology(combined.pre, dom)
    document = functools.partial(_union_document, combined, tautology)
    return document, _union_lines(combined, tautology), OK_STATUS


def _union_document(combined, tautology) -> dict:
    return {
        "pre": format_predicate(combined.pre),
        "post": format_predicate(combined.post),
        "pre_tautology": None if tautology is None else tautology.holds,
        "tautology_witness": None if tautology is None else tautology.witness,
    }


def _union_lines(combined, tautology) -> Iterator[str]:
    yield f"pre:  {format_predicate(combined.pre)}"
    yield f"post: {format_predicate(combined.post)}"
    if tautology is not None:
        yield f"precondition is a tautology over domain: {str(tautology.holds).lower()}"
        if tautology.witness is not None:
            yield f"counterexample: {_fmt_state(tautology.witness)}"


def cmd_replay(args: argparse.Namespace) -> Outcome:
    from .session import load_session, replay

    session = load_session(args.session)
    report = replay(session, args.budget)
    failures = report.failures()
    return report.to_dict, _report_lines(report, failures), CHECK_FAILED if failures else OK_STATUS


def _report_lines(report, failures: list[str]) -> Iterator[str]:
    yield f"session: {report.session_name}"
    yield f"domain:  {report.domain}"
    for record in report.cycles:
        kind = record.classification
        if record.kind_mismatch:
            kind += f" (declared {record.declared_kind})"
        yield f"cycle {record.index}: {record.test_name} [{kind}]"
        detail = f" - {record.red.detail}" if record.red.detail else ""
        yield f"  red:    {record.red.status.replace('_', ' ')}{detail}"
        green = _good("pass") if record.green.passed else _bad(f"FAIL ({record.green.detail})")
        yield f"  green:  {green}"
        passed = sum(1 for r in record.regressions if r.passed)
        total = len(record.regressions)
        mark = _good(f"{passed}/{total} pass") if passed == total else _bad(f"{passed}/{total} pass")
        yield f"  regressions: {mark}"
        point = record.contract_point.status if record.contract_point else "error"
        snap = record.snapshot_contract.verdict if record.snapshot_contract else "error"
        oracle = record.oracle_contract.verdict if record.oracle_contract else "error"
        chain = "error" if record.chain_holds is None else "ok" if record.chain_holds else "BROKEN"
        yield (f"  contract: point {point} | snapshot {_verdict_text(snap)} "
               f"| oracle {_verdict_text(oracle)} | chain {chain}")
        for error in record.errors:
            yield f"  {_bad('error')}: {error}"
    yield f"union pre:  {format_predicate(report.union_contract.pre)}"
    yield f"union post: {format_predicate(report.union_contract.post)}"
    yield f"union pre tautology over domain: {report.union_pre_tautology}"
    yield f"QLTY: {'None' if report.qlty is None else f'{report.qlty:.1f}'}"
    warnings = report.warnings()
    for warning in warnings:
        yield _warn(f"warning: {warning}")
    for failure in failures:
        yield _bad(f"failure: {failure}")
    verdict = _good("OK") if not failures else _bad("FAILED")
    yield f"result: {verdict} ({len(failures)} failures, {len(warnings)} warnings)"


def cmd_trace(args: argparse.Namespace) -> Outcome:
    program = load_program(args.program)
    inputs = parse_bindings(args.inputs)
    wanted = None
    if args.vars is not None:  # "" names no variable
        wanted = {name.strip() for name in args.vars.split(",") if name.strip()}
    result = run(program, inputs, args.budget)
    trajectory = project(result.trajectory, wanted)
    status = OK_STATUS if result.status == OK else CHECK_FAILED
    return functools.partial(_trace_document, result, trajectory), _trace_lines(result, trajectory), status


def _trace_document(result, trajectory) -> dict:
    return {
        "status": result.status,
        "steps": result.steps,
        "final": result.final,
        "trajectory": [{"stmt_id": e.stmt_id, "var": e.var, "value": e.value} for e in trajectory],
        "fault_stmt_id": result.fault_stmt_id,
        "fault_reason": result.fault_reason,
    }


def _trace_lines(result, trajectory) -> Iterator[str]:
    for entry in trajectory:
        yield f"stmt {entry.stmt_id}: {entry.var} := {entry.value}"
    yield f"final: {_fmt_state(result.final)}"
    yield f"steps: {result.steps}"
    if result.status != OK:
        yield _bad(f"{result.status}: {result.fault_reason} "
                   f"at statement {result.fault_stmt_id} (trajectory is partial)")


# --- argument parsing ------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="tddslicer",
        description="Verify contracts, slice programs, and replay TDD sessions "
        "for the mini while-language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, runs: bool = True) -> None:
        if runs:  # union runs no program
            p.add_argument("--budget", type=int, default=DEFAULT_STEP_BUDGET,
                           help="step budget per run (default %(default)s)")
        p.add_argument("--format", choices=("human", "machine"), default="human",
                       help="output format (default %(default)s)")

    p_check = sub.add_parser("check", help="verify {pre} program {post} over a domain")
    p_check.add_argument("program")
    p_check.add_argument("--pre", required=True)
    p_check.add_argument("--post", required=True)
    p_check.add_argument("--domain", required=True)
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_slice = sub.add_parser("slice", help="minimal deletion-derived program still verifying the contract")
    p_slice.add_argument("program")
    p_slice.add_argument("--pre", required=True)
    p_slice.add_argument("--post", required=True)
    p_slice.add_argument("--domain", required=True)
    p_slice.add_argument("--strategy", choices=(EXHAUSTIVE, GREEDY), default=EXHAUSTIVE)
    common(p_slice)
    p_slice.set_defaults(func=cmd_slice)

    p_union = sub.add_parser("union", help="OR-compose two contracts")
    p_union.add_argument("--pre", action="append", required=True,
                         help="precondition (give twice)")
    p_union.add_argument("--post", action="append", required=True,
                         help="postcondition (give twice)")
    p_union.add_argument("--domain", help="also check whether the union pre is a tautology")
    common(p_union, runs=False)
    p_union.set_defaults(func=cmd_union)

    p_replay = sub.add_parser("replay", help="replay a TDD session file")
    p_replay.add_argument("session")
    common(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_trace = sub.add_parser("trace", help="run a program and print its trajectory")
    p_trace.add_argument("program")
    p_trace.add_argument("--inputs", required=True, help='e.g. "x=4, y=2"')
    p_trace.add_argument("--vars", help="comma-separated variables to project onto")
    common(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_:
        return USAGE_ERROR if exit_.code not in (0, None) else 0
    try:
        if "budget" in args and args.budget < 1:
            raise ValueError("step_budget must be positive")
        payload, lines, status = args.func(args)
        _show(args.command, payload() if args.format == "machine" else lines)
        return status
    except (OriginalNotVerifiedError, PredicateUndefinedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return CHECK_FAILED
    except (ExhaustiveCapError, VacuousContractError, ParseError, SessionFormatError, ValueError,
            OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError:
        # evaluating recurses once per nesting level, from deeper in the
        # stack than compiling, which raises ParseError itself
        print(f"error: {TOO_DEEP}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as err:
        message = " ".join(str(err).splitlines())
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
