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

import importlib

#: the public names, by the module (relative to this package) that
#: defines them. Each is imported on first use (PEP 562), so that importing
#: one module of the package, such as the command line's, imports no other
_EXPORTS = {
    ".contracts": ("Classification", "Contract", "InstanceCheck", "SubsumptionCheck",
                   "TestCase", "classify_test", "is_instance", "subsumed_by", "union"),
    ".errors": ("EvaluationFault", "ExhaustiveCapError", "OriginalNotVerifiedError",
                "ParseError", "UnboundVariableError", "VacuousContractError"),
    ".lang.ast": ("free_vars",),
    ".lang.interp": ("DEFAULT_STEP_BUDGET", "RunResult", "project", "run"),
    ".lang.parser": ("parse_predicate", "parse_program"),
    ".lang.printer": ("format_predicate", "pretty_print"),
    ".predicates": ("Domain", "ImplicationResult", "Predicate", "PredicateUndefinedError",
                    "eval_predicate", "implies", "is_tautology"),
    ".session": ("Report", "Session", "load_session", "parse_session", "qlty", "replay"),
    ".slicer": ("DeletionUnit", "SliceResult", "apply_deletion", "deletable_units", "slice"),
    ".verifier": ("PointCheck", "VerificationResult", "Witness", "check", "check_all",
                  "check_point"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        source = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(source, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
