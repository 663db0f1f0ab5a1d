"""tddslicer: contracts, bounded verification, specification-based slicing,
and TDD session replay for a mini while-language.

The pieces compose bottom-up: `lang` parses and runs programs with state
trajectories; `predicates` evaluates contract predicates over bounded
Domains; `contracts` does the {P}{Q} algebra (instances, union,
subsumption, classification); `verifier` decides Hoare triples by
exhaustive execution; `slicer` finds minimal deletion-derived programs
that keep a triple true; `session` replays whole TDD sessions; `cli`
exposes everything as the `tddslicer` command.
"""

from .contracts import (
    Classification,
    Contract,
    InstanceCheck,
    SubsumptionCheck,
    TestCase,
    classify_test,
    is_instance,
    subsumed_by,
    union,
    union_all,
)
from .errors import EvaluationFault, ParseError, UnboundVariableError
from .lang import (
    ALL,
    DEFAULT_STEP_BUDGET,
    RunResult,
    format_predicate,
    parse_program,
    pretty_print,
    project,
    run,
)
from .lang.ast import free_vars
from .lang.parser import parse_predicate
from .predicates import (
    Domain,
    ImplicationResult,
    Predicate,
    PredicateUndefinedError,
    eval_predicate,
    implies,
    is_tautology,
)
from .session import Report, Session, load_session, parse_session, qlty, replay
from .slicer import (
    DeletionUnit,
    ExhaustiveCapError,
    OriginalNotVerifiedError,
    SliceResult,
    VacuousContractError,
    apply_deletion,
    deletable_units,
    slice,
)
from .verifier import PointCheck, VerificationResult, Witness, check, check_all, check_point

__version__ = "0.1.0"

__all__ = [
    "ALL",
    "Classification",
    "Contract",
    "DEFAULT_STEP_BUDGET",
    "DeletionUnit",
    "Domain",
    "EvaluationFault",
    "ExhaustiveCapError",
    "ImplicationResult",
    "InstanceCheck",
    "OriginalNotVerifiedError",
    "ParseError",
    "PointCheck",
    "Predicate",
    "PredicateUndefinedError",
    "Report",
    "RunResult",
    "Session",
    "SliceResult",
    "SubsumptionCheck",
    "TestCase",
    "UnboundVariableError",
    "VacuousContractError",
    "VerificationResult",
    "Witness",
    "apply_deletion",
    "check",
    "check_all",
    "check_point",
    "classify_test",
    "deletable_units",
    "eval_predicate",
    "format_predicate",
    "free_vars",
    "implies",
    "is_instance",
    "is_tautology",
    "load_session",
    "parse_predicate",
    "parse_program",
    "parse_session",
    "pretty_print",
    "project",
    "qlty",
    "replay",
    "run",
    "slice",
    "subsumed_by",
    "union",
    "union_all",
]
