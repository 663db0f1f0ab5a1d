"""TDD session modeling and replay.

A session is an ordered list of cycles (test, contract, code snapshot)
plus the final oracle program and the verification Domain. Replay checks,
per cycle: the red expectation against the previous snapshot, the green
check against the cycle's own snapshot, all accumulated tests as
regressions, the test's classification against the contract history, the
contract against both the snapshot and the final oracle, and the
subsumption chain into the running contract union. Session level, it
reports the union contract, whether its precondition is a tautology over
the Domain, and the QLTY score of the final program against the
acceptance suite.

Sub-operation errors are recorded on the cycle record; replay never
aborts halfway.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import contracts as ct
from .errors import ParseError
from .lang import ast
from .lang.interp import DEFAULT_STEP_BUDGET, OK, run
from .lang.parser import parse_bindings, parse_domain_spec, parse_predicate, parse_program
from .lang.printer import format_predicate
from .predicates import Domain, is_tautology
from .verifier import VACUOUS, VERIFIED, PointCheck, VerificationResult, check_all, check_point

REFACTOR_NOTE = "refactor"

#: used when a session file declares no domain
DEFAULT_RANGE = (-8, 8)


class SessionFormatError(Exception):
    def __init__(self, message: str, line: int = 0):
        where = f" (line {line})" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line


@dataclass(frozen=True)
class Cycle:
    index: int
    test: ct.TestCase
    contract: ct.Contract
    snapshot: ast.Program
    note: str | None = None

    @property
    def is_refactor(self) -> bool:
        return self.note is not None and REFACTOR_NOTE in self.note


@dataclass(frozen=True)
class Session:
    name: str
    cycles: tuple[Cycle, ...]
    final: ast.Program
    dom: Domain
    out_ranges: dict[str, tuple[int, int]] | None = None

    def __post_init__(self):
        if not self.cycles:
            raise ValueError("a session needs at least one cycle")
        stray = sorted(set(self.out_ranges or ()) - set(self.final.out_params))
        if stray:
            raise ValueError(f"outrange names variables that are not out-parameters: {stray}")

    @property
    def acceptance_suite(self) -> tuple[ct.TestCase, ...]:
        """The suite QLTY scores the final program against: every cycle's test."""
        return tuple(c.test for c in self.cycles)


# --- session file parsing ---------------------------------------------------


def _split_sections(text: str) -> list[tuple[str, int, dict[str, tuple[str, int]]]]:
    """[(header, line_no, {key: (value, line_no)})] in file order."""
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SessionFormatError(f"malformed section header {raw.strip()!r}", line_no)
            header = line[1:-1].strip()
            current = {}
            sections.append((header, line_no, current))
            continue
        if "=" not in line:
            raise SessionFormatError(f"expected key = value, got {raw.strip()!r}", line_no)
        if current is None:
            raise SessionFormatError("key outside any [section]", line_no)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current:
            raise SessionFormatError(f"duplicate key {key!r}", line_no)
        current[key] = (value.strip(), line_no)
    return sections


def _take(
    section: dict[str, tuple[str, int]], key: str, where: str, required: bool = True
) -> str | None:
    if key not in section:
        if required:
            raise SessionFormatError(f"missing key {key!r} in {where}")
        return None
    return section.pop(key)[0]


def load_program(path: str | Path) -> ast.Program:
    """Parse the program file at path. Raises FileNotFoundError when there
    is no such file and ParseError when its text is not a program."""
    file = Path(path)
    if not file.is_file():
        raise FileNotFoundError(f"program file not found: {path}")
    return parse_program(file.read_text(encoding="utf-8"))


def parse_session(text: str, base_dir: str | Path = ".", name_hint: str = "session") -> Session:
    """Parse a .session file body; referenced .prog files load relative to
    base_dir. Raises SessionFormatError on malformed input, missing files,
    non-contiguous cycle indices, or contract scope violations."""
    base = Path(base_dir)

    def load(path_text: str, where: str) -> ast.Program:
        path = base / path_text  # an absolute path_text replaces base
        try:
            return load_program(path)
        except FileNotFoundError as err:
            raise SessionFormatError(f"{where}: {err}") from err
        except ParseError as err:
            raise SessionFormatError(f"{where}: {path}: {err}") from err

    sections = _split_sections(text)
    if not sections or sections[0][0] != "session":
        raise SessionFormatError("file must start with a [session] section")

    _, header_line, session_keys = sections[0]
    name = _take(session_keys, "name", "[session]", required=False) or name_hint
    final_path = _take(session_keys, "final", "[session]")
    domain_text = _take(session_keys, "domain", "[session]", required=False)
    outrange_text = _take(session_keys, "outrange", "[session]", required=False)
    if session_keys:
        stray = sorted(session_keys)
        raise SessionFormatError(f"unknown [session] keys: {stray}", header_line)

    final = load(final_path, "[session] final")
    if domain_text is not None:
        try:
            dom = Domain.from_dict(parse_domain_spec(domain_text))
        except (ParseError, ValueError) as err:
            raise SessionFormatError(f"bad domain: {err}") from err
    else:
        dom = Domain.from_dict({p: DEFAULT_RANGE for p in final.in_params})
    if dom.vars != frozenset(final.in_params):
        raise SessionFormatError(
            f"domain must cover exactly the in-parameters {sorted(final.in_params)}"
        )
    out_ranges = None
    if outrange_text is not None:
        try:
            out_ranges = parse_domain_spec(outrange_text)
        except ParseError as err:
            raise SessionFormatError(f"bad outrange: {err}") from err

    cycles: list[Cycle] = []
    for header, line_no, keys in sections[1:]:
        parts = header.split()
        if len(parts) != 2 or parts[0] != "cycle" or not (parts[1].isascii() and parts[1].isdigit()):
            raise SessionFormatError(f"unexpected section [{header}]", line_no)
        index = int(parts[1])
        if index != len(cycles) + 1:
            raise SessionFormatError(
                f"cycle indices must be contiguous from 1; found {index} after {len(cycles)}",
                line_no,
            )
        where = f"[cycle {index}]"
        test_name = _take(keys, "test.name", where)
        inputs_text = _take(keys, "test.inputs", where)
        expect_text = _take(keys, "test.expect", where)
        kind = _take(keys, "test.kind", where, required=False)
        pre_text = _take(keys, "contract.pre", where)
        post_text = _take(keys, "contract.post", where)
        snapshot_text = _take(keys, "snapshot", where)
        note = _take(keys, "note", where, required=False)
        if keys:
            raise SessionFormatError(f"unknown {where} keys: {sorted(keys)}", line_no)
        if kind is not None and kind not in (ct.NEW, ct.REGRESSION, ct.TRIANGULATION):
            raise SessionFormatError(f"{where}: unknown test.kind {kind!r}", line_no)
        try:
            inputs = parse_bindings(inputs_text)
            expected = parse_bindings(expect_text)
            pre = parse_predicate(pre_text)
            post = parse_predicate(post_text)
        except ParseError as err:
            raise SessionFormatError(f"{where}: {err}") from err
        snapshot = load(snapshot_text, where)

        if set(inputs) != set(final.in_params):
            raise SessionFormatError(
                f"{where}: test.inputs must bind exactly {sorted(final.in_params)}"
            )
        if set(expected) != set(final.out_params):
            raise SessionFormatError(
                f"{where}: test.expect must bind exactly {sorted(final.out_params)}"
            )
        if snapshot.name != final.name or snapshot.params != final.params:
            raise SessionFormatError(
                f"{where}: snapshot signature differs from the final program"
            )
        contract = ct.Contract(pre, post)
        try:
            ct.validate_scope(
                contract,
                frozenset(final.in_params),
                frozenset(final.out_params),
            )
        except ValueError as err:
            raise SessionFormatError(f"{where}: {err}") from err
        cycles.append(
            Cycle(index, ct.TestCase(test_name, inputs, expected, kind), contract, snapshot, note)
        )
    if not cycles:
        raise SessionFormatError("session has no cycles")
    try:
        return Session(name=name, cycles=tuple(cycles), final=final, dom=dom, out_ranges=out_ranges)
    except ValueError as err:
        raise SessionFormatError(str(err)) from err


def load_session(path: str | Path) -> Session:
    path = Path(path)
    if not path.is_file():
        raise SessionFormatError(f"session file not found: {path}")
    return parse_session(
        path.read_text(encoding="utf-8"), path.parent, name_hint=path.stem
    )


# --- replay -------------------------------------------------------------------


@dataclass(frozen=True)
class TestOutcome:
    test: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"test": self.test, "passed": self.passed, "detail": self.detail}


NOT_APPLICABLE = "not_applicable"
FAILED_AS_EXPECTED = "failed_as_expected"
PASSED_AS_EXPECTED = "passed_as_expected"
PASSED_UNEXPECTEDLY = "passed_unexpectedly"
FAILED_UNEXPECTEDLY = "failed_unexpectedly"


@dataclass(frozen=True)
class RedCheck:
    status: str
    detail: str = ""

    def to_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


@dataclass
class CycleRecord:
    index: int
    test_name: str
    classification: str
    matched_contract: int | None
    declared_kind: str | None
    kind_mismatch: bool
    red: RedCheck
    green: TestOutcome
    regressions: list[TestOutcome]
    contract_point: PointCheck | None
    snapshot_contract: VerificationResult | None
    oracle_contract: VerificationResult | None
    implication_witnessed: bool
    chain_holds: bool | None
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "test": self.test_name,
            "classification": self.classification,
            "matched_contract": self.matched_contract,
            "declared_kind": self.declared_kind,
            "kind_mismatch": self.kind_mismatch,
            "red": self.red.to_dict(),
            "green": self.green.to_dict(),
            "regressions": [r.to_dict() for r in self.regressions],
            "contract_point": None if self.contract_point is None else self.contract_point.to_dict(),
            "snapshot_contract": None if self.snapshot_contract is None else self.snapshot_contract.to_dict(),
            "oracle_contract": None if self.oracle_contract is None else self.oracle_contract.to_dict(),
            "implication_witnessed": self.implication_witnessed,
            "chain_holds": self.chain_holds,
            "errors": list(self.errors),
        }


@dataclass
class Report:
    session_name: str
    domain: Domain
    cycles: list[CycleRecord]
    union_contract: ct.Contract
    union_pre_tautology: bool | None
    qlty: float | None
    final_matches_last_snapshot: bool | None
    session_errors: list[str] = field(default_factory=list)

    def failures(self) -> list[str]:
        """Everything that makes the replay a failed check (exit code 1)."""
        found: list[str] = []
        for record in self.cycles:
            where = f"cycle {record.index}"
            if not record.green.passed:
                found.append(f"{where}: green check failed: {record.green.detail}")
            for regression in record.regressions:
                if not regression.passed:
                    found.append(
                        f"{where}: regression {regression.test} failed: {regression.detail}"
                    )
            if record.red.status == FAILED_UNEXPECTEDLY:
                found.append(f"{where}: red check: {record.red.detail}")
            for label, result in (
                ("snapshot", record.snapshot_contract),
                ("oracle", record.oracle_contract),
            ):
                if result is not None and result.verdict not in (VERIFIED, VACUOUS):
                    found.append(f"{where}: {label} contract {result.verdict}")
            if record.chain_holds is False:
                found.append(f"{where}: contract not subsumed by the running union")
            found.extend(f"{where}: {err}" for err in record.errors)
        found.extend(self.session_errors)
        return found

    def warnings(self) -> list[str]:
        found: list[str] = []
        if self.final_matches_last_snapshot is False:
            found.append("final program differs from the last snapshot")
        for record in self.cycles:
            where = f"cycle {record.index}"
            if record.red.status == PASSED_UNEXPECTEDLY:
                found.append(f"{where}: new test already passes on the previous snapshot")
            if record.kind_mismatch:
                found.append(
                    f"{where}: declared kind {record.declared_kind!r} but classified "
                    f"{record.classification!r}"
                )
            if record.contract_point is not None and not record.contract_point.passed:
                found.append(
                    f"{where}: cycle test vs its own contract: {record.contract_point.status}"
                )
            for label, result in (
                ("snapshot", record.snapshot_contract),
                ("oracle", record.oracle_contract),
            ):
                if result is not None and result.verdict == VACUOUS:
                    found.append(f"{where}: {label} contract check is vacuous")
        return found

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "command": "replay",
            "session": self.session_name,
            "domain": str(self.domain),
            "final_matches_last_snapshot": self.final_matches_last_snapshot,
            "qlty": self.qlty,
            "union_contract": {
                "pre": format_predicate(self.union_contract.pre),
                "post": format_predicate(self.union_contract.post),
            },
            "union_pre_tautology": self.union_pre_tautology,
            "ok": self.ok,
            "failures": self.failures(),
            "warnings": self.warnings(),
            "cycles": [record.to_dict() for record in self.cycles],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_test(
    program: ast.Program, test: ct.TestCase, step_budget: int = DEFAULT_STEP_BUDGET
) -> TestOutcome:
    """Execute one test: every expected out-parameter must match exactly."""
    result = run(program, test.inputs, step_budget, record=False)
    if result.status != OK:
        return TestOutcome(
            test.name, False,
            f"run {result.status}: {result.fault_reason} at statement {result.fault_stmt_id}",
        )
    mismatches = [
        f"{var}={result.final[var]} (expected {want})"
        for var, want in sorted(test.expected.items())
        if result.final[var] != want
    ]
    if mismatches:
        return TestOutcome(test.name, False, ", ".join(mismatches))
    return TestOutcome(test.name, True, "")


def qlty(program: ast.Program, suite: list[ct.TestCase] | tuple[ct.TestCase, ...],
         step_budget: int = DEFAULT_STEP_BUDGET) -> float:
    """Percentage of passing assertions: one assertion per expected
    out-parameter per test; faults and budget exhaustion fail all of the
    test's assertions."""
    if not suite:
        raise ValueError("qlty needs a nonempty suite")
    total = 0
    passed = 0
    for test in suite:
        result = run(program, test.inputs, step_budget, record=False)
        for var, want in sorted(test.expected.items()):
            total += 1
            if result.status == OK and result.final.get(var) == want:
                passed += 1
    return 100.0 * passed / total


def _guard(errors: list[str], label: str, thunk):
    """Run one replay sub-operation, turning exceptions into recorded errors."""
    try:
        return thunk()
    except Exception as err:  # noqa: BLE001 - replay must never abort
        errors.append(f"{label}: {err}")
        return None


def _unwrap(outcome):
    """A check_all result, re-raising the exception it stands for."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def replay(session: Session, step_budget: int = DEFAULT_STEP_BUDGET) -> Report:
    """Re-check every relationship the session postulates. Deterministic:
    identical session bytes produce identical reports."""
    records: list[CycleRecord] = []
    union_so_far: ct.Contract | None = None
    # every cycle contract against its snapshot, then against the final
    # program, decided in one scan of the domain
    count = len(session.cycles)
    contract_checks = check_all(
        [(c.snapshot, c.contract) for c in session.cycles]
        + [(session.final, c.contract) for c in session.cycles],
        session.dom,
        step_budget,
    )

    for position, cycle in enumerate(session.cycles):
        errors: list[str] = []
        history = [c.contract for c in session.cycles[:position]]

        classification = _guard(
            errors, "classification",
            lambda: ct.classify_test(cycle.test, history),
        )
        kind = classification.kind if classification else ct.NEW
        matched = classification.matched_contract if classification else None
        mismatch = (
            not classification.matches_declared(cycle.test.declared_kind)
            if classification
            else False
        )

        if position == 0 or cycle.is_refactor:
            red = RedCheck(NOT_APPLICABLE, "first cycle" if position == 0 else "refactor cycle")
        else:
            previous = session.cycles[position - 1].snapshot
            outcome = _guard(errors, "red check", lambda: run_test(previous, cycle.test, step_budget))
            if outcome is None:
                red = RedCheck(NOT_APPLICABLE, "red check errored")
            elif kind == ct.NEW:
                red = (
                    RedCheck(FAILED_AS_EXPECTED, outcome.detail)
                    if not outcome.passed
                    else RedCheck(PASSED_UNEXPECTEDLY, "new test passes on previous snapshot")
                )
            else:
                red = (
                    RedCheck(PASSED_AS_EXPECTED)
                    if outcome.passed
                    else RedCheck(
                        FAILED_UNEXPECTEDLY,
                        f"regression-classified test fails on previous snapshot: {outcome.detail}",
                    )
                )

        green = _guard(errors, "green check", lambda: run_test(cycle.snapshot, cycle.test, step_budget))
        if green is None:
            green = TestOutcome(cycle.test.name, False, "green check errored")

        regressions: list[TestOutcome] = []
        for earlier in session.cycles[:position]:
            outcome = _guard(
                errors, f"regression {earlier.test.name}",
                lambda t=earlier.test: run_test(cycle.snapshot, t, step_budget),
            )
            if outcome is not None:
                regressions.append(outcome)

        contract_point = _guard(
            errors, "contract point check",
            lambda: check_point(cycle.snapshot, cycle.contract, cycle.test.inputs, step_budget),
        )
        snapshot_contract = _guard(
            errors, "snapshot contract", lambda: _unwrap(contract_checks[position])
        )
        oracle_contract = _guard(
            errors, "oracle contract", lambda: _unwrap(contract_checks[count + position])
        )
        witnessed = bool(
            snapshot_contract and snapshot_contract.verified
            and oracle_contract and oracle_contract.verified
        )

        union_so_far = cycle.contract if union_so_far is None else ct.union(union_so_far, cycle.contract)
        union_now = union_so_far
        chain = _guard(
            errors, "chain subsumption",
            lambda: ct.subsumed_by(cycle.contract, union_now, session.dom, session.out_ranges).holds,
        )

        records.append(
            CycleRecord(
                index=cycle.index,
                test_name=cycle.test.name,
                classification=kind,
                matched_contract=matched,
                declared_kind=cycle.test.declared_kind,
                kind_mismatch=mismatch,
                red=red,
                green=green,
                regressions=regressions,
                contract_point=contract_point,
                snapshot_contract=snapshot_contract,
                oracle_contract=oracle_contract,
                implication_witnessed=witnessed,
                chain_holds=chain,
                errors=errors,
            )
        )

    session_errors: list[str] = []
    tautology = _guard(
        session_errors, "union precondition tautology",
        lambda: is_tautology(union_so_far.pre, session.dom).holds,
    )
    score = _guard(
        session_errors, "qlty",
        lambda: qlty(session.final, session.acceptance_suite, step_budget),
    )
    matches = _guard(
        session_errors, "final program comparison",
        lambda: ast.same_shape(session.final, session.cycles[-1].snapshot),
    )
    return Report(
        session_name=session.name,
        domain=session.dom,
        cycles=records,
        union_contract=union_so_far,
        union_pre_tautology=tautology,
        qlty=score,
        final_matches_last_snapshot=matches,
        session_errors=session_errors,
    )
