"""Command-line front end: check, slice, union, replay, trace.

Exit status: 0 when every check passed, 1 when a check failed
(counterexample, failing green/regression check), 2 on usage, parse, or
file errors, 3 on an internal error (one line on stderr, no traceback).
`--format machine` emits stable JSON with format_version 1; human output
uses a little color unless TDDSLICER_COLOR=0 or stdout is not a terminal.
Every command renders its whole output, in either format, before _show
prints it at once, so an output that fails to render prints nothing.

The slice and replay commands' functions are imported when a command
first asks for them, through this module's attributes (PEP 562), so that
check, union and trace never load the slicer or the session modules.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import os
import sys
from collections.abc import Iterable, Iterator

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
from .lang import load_program, parse_bindings, pretty_print, project, run
from .lang.interp import DEFAULT_STEP_BUDGET, OK
from .lang.parser import parse_predicate
from .lang.printer import format_predicate, render_json
from .predicates import Domain, PredicateUndefinedError, is_tautology
from .verifier import VACUOUS, VERIFIED, check
from . import contracts as ct

FORMAT_VERSION = 1

OK_STATUS = 0
CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3

#: the attributes imported on first use: (module, name there)
_LAZY = {
    "compute_slice": (".slicer", "slice"),
    "load_session": (".session", "load_session"),
    "replay": (".session", "replay"),
}


def __getattr__(name: str):
    try:
        source, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(source, __package__), attr)
    globals()[name] = value
    return value


def _lazy(name: str):
    """This module's attribute name, imported on first use: what a command
    calls, so that whatever replaces the attribute is what runs."""
    return getattr(sys.modules[__name__], name)


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


def _show(output: dict | Iterable[str]) -> None:
    """Print a command's whole output at once: a payload as one JSON
    document (render_json), or lines made as they are drawn. A value
    longer than CPython's int-to-string limit
    (sys.get_int_max_str_digits()) fails the rendering, so nothing is
    printed and the error is ValueError("value too large to print")."""
    try:
        if isinstance(output, dict):
            text = render_json(output)
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


def cmd_check(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    contract = _contract_from_args(args.pre, args.post)
    dom = Domain.parse(args.domain)
    result = check(program, contract, dom, args.budget)
    if args.format == "machine":
        payload = {"format_version": FORMAT_VERSION, "command": "check"}
        payload.update(result.to_dict())
        _show(payload)
    else:
        _show(_check_lines(result))
    return OK_STATUS if result.verdict in (VERIFIED, VACUOUS) else CHECK_FAILED


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


def cmd_slice(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    contract = _contract_from_args(args.pre, args.post)
    dom = Domain.parse(args.domain)
    result = _lazy("compute_slice")(program, contract, dom, strategy=args.strategy,
                                    step_budget=args.budget)
    retained = sorted(result.retained)
    deleted = sorted(result.deleted)
    if args.format == "machine":
        _show(
            {
                "format_version": FORMAT_VERSION,
                "command": "slice",
                "strategy": result.strategy,
                "minimal": result.minimal,
                "retained": [{"kind": u.kind, "anchor": u.anchor} for u in retained],
                "deleted": [{"kind": u.kind, "anchor": u.anchor} for u in deleted],
                "program": pretty_print(result.program),
                "verification": result.verification.to_dict(),
            }
        )
    else:
        _show(_slice_lines(result, retained, deleted))
    return OK_STATUS


def _slice_lines(result, retained, deleted) -> Iterator[str]:
    yield pretty_print(result.program).removesuffix("\n")
    yield f"strategy: {result.strategy} (minimal: {'yes' if result.minimal else 'not guaranteed'})"
    yield f"retained: {', '.join(map(str, retained)) or '(nothing)'}"
    yield f"deleted:  {', '.join(map(str, deleted)) or '(nothing)'}"
    yield f"verification: {_verdict_text(result.verification.verdict)} over {result.verification.domain}"


def cmd_union(args: argparse.Namespace) -> int:
    if len(args.pre) != 2 or len(args.post) != 2:
        raise ValueError("union needs exactly two --pre and two --post predicates")
    first = _contract_from_args(args.pre[0], args.post[0])
    second = _contract_from_args(args.pre[1], args.post[1])
    combined = ct.union(first, second)
    tautology = None
    if args.domain is not None:
        dom = Domain.parse(args.domain)
        tautology = is_tautology(combined.pre, dom)
    if args.format == "machine":
        _show(
            {
                "format_version": FORMAT_VERSION,
                "command": "union",
                "pre": format_predicate(combined.pre),
                "post": format_predicate(combined.post),
                "pre_tautology": None if tautology is None else tautology.holds,
                "tautology_witness": None if tautology is None else tautology.witness,
            }
        )
    else:
        _show(_union_lines(combined, tautology))
    return OK_STATUS


def _union_lines(combined, tautology) -> Iterator[str]:
    yield f"pre:  {format_predicate(combined.pre)}"
    yield f"post: {format_predicate(combined.post)}"
    if tautology is not None:
        yield f"precondition is a tautology over domain: {str(tautology.holds).lower()}"
        if tautology.witness is not None:
            yield f"counterexample: {_fmt_state(tautology.witness)}"


def cmd_replay(args: argparse.Namespace) -> int:
    session = _lazy("load_session")(args.session)
    report = _lazy("replay")(session, args.budget)
    if args.format == "machine":
        payload = report.to_dict()
        _show(payload)
        failures = payload["failures"]
    else:
        failures = report.failures()
        _show(_report_lines(report, failures))
    return CHECK_FAILED if failures else OK_STATUS


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


def cmd_trace(args: argparse.Namespace) -> int:
    program = load_program(args.program)
    inputs = parse_bindings(args.inputs)
    wanted = None
    if args.vars:
        wanted = {name.strip() for name in args.vars.split(",") if name.strip()}
    result = run(program, inputs, args.budget)
    trajectory = project(result.trajectory, wanted)
    if args.format == "machine":
        _show(
            {
                "format_version": FORMAT_VERSION,
                "command": "trace",
                "status": result.status,
                "steps": result.steps,
                "final": result.final,
                "trajectory": [
                    {"stmt_id": e.stmt_id, "var": e.var, "value": e.value}
                    for e in trajectory
                ],
                "fault_stmt_id": result.fault_stmt_id,
                "fault_reason": result.fault_reason,
            }
        )
    else:
        _show(_trace_lines(result, trajectory))
    return OK_STATUS if result.status == OK else CHECK_FAILED


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
        return args.func(args)
    except OriginalNotVerifiedError as err:
        print(f"error: {err}", file=sys.stderr)
        return CHECK_FAILED
    except (ExhaustiveCapError, VacuousContractError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except PredicateUndefinedError as err:
        print(f"error: {err}", file=sys.stderr)
        return CHECK_FAILED
    except (ParseError, SessionFormatError, ValueError, OSError) as err:
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
