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

from pathlib import Path

from . import contracts as ct
from .errors import ParseError, SessionFormatError
from .lang import ast
from .lang.ast import Record
from .lang.interp import DEFAULT_STEP_BUDGET, OK, run, runner
from .lang.parser import parse_bindings, parse_domain_spec, parse_predicate, parse_program
from .lang.printer import format_predicate
from .predicates import Domain, Predicate, is_tautology
from .verifier import VACUOUS, VERIFIED, PointCheck, VerificationResult, check_all, check_point

REFACTOR_NOTE = "refactor"

#: used when a session file declares no domain
DEFAULT_RANGE = (-8, 8)


class Cycle(Record, defaults={"note": None}):
    __slots__ = ("index", "test", "contract", "snapshot", "note")
    index: int
    test: ct.TestCase
    contract: ct.Contract
    snapshot: ast.Program
    note: str | None

    @property
    def is_refactor(self) -> bool:
        return self.note is not None and REFACTOR_NOTE in self.note


class Session(Record, defaults={"out_ranges": None}):
    """Cycles judged against the final program over dom. Valid when built,
    from a file or in Python, else a ValueError: at least one cycle; dom
    ranges exactly the final's in-parameters; the cycles are indexed 1, 2,
    ... in order; each cycle's test declares no kind or one of new,
    regression and triangulation, binds exactly its in- and its
    out-parameters, its snapshot has its name and parameters, and its
    contract keeps to their scope; out_ranges names only out-parameters,
    each range nonempty."""

    __slots__ = ("name", "cycles", "final", "dom", "out_ranges")
    name: str
    cycles: tuple[Cycle, ...]
    final: ast.Program
    dom: Domain
    out_ranges: dict[str, tuple[int, int]] | None

    def __post_init__(self):
        final = self.final
        in_params, out_params = frozenset(final.in_params), frozenset(final.out_params)
        if not self.cycles:
            raise ValueError("a session needs at least one cycle")
        if self.dom.vars != in_params:
            raise ValueError(f"domain must cover exactly the in-parameters {sorted(in_params)}")
        for position, cycle in enumerate(self.cycles, 1):
            if cycle.index != position:
                raise ValueError(
                    f"cycle indices must be contiguous from 1; found {cycle.index} after {position - 1}"
                )
            where = f"[cycle {cycle.index}]"
            if cycle.test.declared_kind not in (None, ct.NEW, ct.REGRESSION, ct.TRIANGULATION):
                raise ValueError(f"{where}: unknown test.kind {cycle.test.declared_kind!r}")
            if cycle.test.inputs.keys() != in_params:
                raise ValueError(f"{where}: test.inputs must bind exactly {sorted(in_params)}")
            if cycle.test.expected.keys() != out_params:
                raise ValueError(f"{where}: test.expect must bind exactly {sorted(out_params)}")
            if cycle.snapshot.name != final.name or cycle.snapshot.params != final.params:
                raise ValueError(f"{where}: snapshot signature differs from the final program")
            try:
                ct.validate_scope(cycle.contract, in_params, out_params)
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from err
        stray = sorted(set(self.out_ranges or ()) - out_params)
        if stray:
            raise ValueError(f"outrange names variables that are not out-parameters: {stray}")
        if self.out_ranges:
            Domain.from_dict(self.out_ranges)  # refuses an empty range

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


def parse_session(text: str, base_dir: str | Path = ".", name_hint: str = "session") -> Session:
    """Parse a .session file body; referenced .prog files load relative to
    base_dir. Raises SessionFormatError on malformed input or missing
    files, and then for a Session that is not valid (see Session), with
    its ValueError's message.

    Each distinct program path, the final's included, is parsed once and
    its Program shared by the cycles that name it. Each distinct predicate
    text is parsed once and its node shared by the contracts that name
    it, so replay derives the facts it keeps once (predicates).
    """
    base = Path(base_dir)
    programs: dict[Path, ast.Program] = {}
    predicates: dict[str, Predicate] = {}

    def load(path_text: str, where: str) -> ast.Program:
        path = base / path_text  # an absolute path_text replaces base
        if path not in programs:
            if not path.is_file():
                raise SessionFormatError(f"{where}: program file not found: {path}")
            try:
                programs[path] = parse_program(path.read_text(encoding="utf-8"))
            except ParseError as err:
                raise SessionFormatError(f"{where}: {path}: {err}") from err
        return programs[path]

    def parsed(text: str) -> Predicate:
        if text not in predicates:
            predicates[text] = parse_predicate(text)
        return predicates[text]

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
        try:
            inputs = parse_bindings(inputs_text)
            expected = parse_bindings(expect_text)
            pre = parsed(pre_text)
            post = parsed(post_text)
        except ParseError as err:
            raise SessionFormatError(f"{where}: {err}") from err
        snapshot = load(snapshot_text, where)
        cycles.append(Cycle(index, ct.TestCase(test_name, inputs, expected, kind),
                            ct.Contract(pre, post), snapshot, note))
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


class TestOutcome(Record):
    __slots__ = ("test", "passed", "detail")
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


class RedCheck(Record, defaults={"detail": ""}):
    __slots__ = ("status", "detail")
    status: str
    detail: str

    def to_dict(self) -> dict:
        return {"status": self.status, "detail": self.detail}


class CycleRecord(Record):
    __slots__ = ("index", "test_name", "classification", "matched_contract", "declared_kind",
                 "kind_mismatch", "red", "green", "regressions", "contract_point",
                 "snapshot_contract", "oracle_contract", "implication_witnessed", "chain_holds",
                 "errors")
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
    errors: list[str]

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


class Report(Record):
    __slots__ = ("session_name", "domain", "cycles", "union_contract", "union_pre_tautology",
                 "qlty", "final_matches_last_snapshot", "session_errors")
    session_name: str
    domain: Domain
    cycles: list[CycleRecord]
    union_contract: ct.Contract
    union_pre_tautology: bool | None
    qlty: float | None
    final_matches_last_snapshot: bool | None
    session_errors: list[str]

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

    def to_dict(self) -> dict:
        failures = self.failures()
        return {
            "session": self.session_name,
            "domain": str(self.domain),
            "final_matches_last_snapshot": self.final_matches_last_snapshot,
            "qlty": self.qlty,
            "union_contract": {
                "pre": format_predicate(self.union_contract.pre),
                "post": format_predicate(self.union_contract.post),
            },
            "union_pre_tautology": self.union_pre_tautology,
            "ok": not failures,
            "failures": failures,
            "warnings": self.warnings(),
            "cycles": [record.to_dict() for record in self.cycles],
        }


def _tester(program: ast.Program, step_budget: int, calls: int):
    """A function of a test that runs it on program, with one runner for
    the calls tests the caller will run, and gives its TestOutcome: every
    expected out-parameter must match exactly. The runner is made for
    that many calls, so from NEST_FROM_POINTS tests on it runs the
    program's emitted source (lang.interp.runner). The inputs are not
    checked: a Session's tests bind exactly its programs' in-parameters."""
    execute = runner(program, step_budget, calls=calls)

    def outcome(test: ct.TestCase) -> TestOutcome:
        status, final, _, _, stmt_id, reason = execute(test.inputs)
        if status != OK:
            return TestOutcome(test.name, False, f"run {status}: {reason} at statement {stmt_id}")
        if test.expected.items() <= final.items():
            return TestOutcome(test.name, True, "")
        mismatches = [
            _mismatch(var, final[var], want)
            for var, want in sorted(test.expected.items())
            if final[var] != want
        ]
        return TestOutcome(test.name, False, ", ".join(mismatches))

    return outcome


def _mismatch(var: str, got: int, want: int) -> str:
    """A failed assertion's detail: the value got and the value expected,
    where each longer than CPython's int-to-string limit
    (sys.get_int_max_str_digits()) is only said to be too large to print."""
    try:
        expected = f"expected {want}"
    except ValueError:
        expected = "expected a value too large to print"
    try:
        return f"{var}={got} ({expected})"
    except ValueError:
        return f"{var} is too large to print ({expected})"


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
    tester = None  # the previous snapshot's, for the red check
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
            outcome = _guard(errors, "red check", lambda: tester(cycle.test))
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

        # the green and regression tests, and the next cycle's red check, run
        # the snapshot through one runner
        red_next = position + 1 < count and not session.cycles[position + 1].is_refactor
        tester = _tester(cycle.snapshot, step_budget, 1 + position + red_next)
        green = _guard(errors, "green check", lambda: tester(cycle.test))
        if green is None:
            green = TestOutcome(cycle.test.name, False, "green check errored")

        regressions: list[TestOutcome] = []
        for earlier in session.cycles[:position]:
            outcome = _guard(errors, f"regression {earlier.test.name}", lambda t=earlier.test: tester(t))
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
