"""Errors shared across the toolkit.

Parse-time problems carry a source position; evaluation faults carry the
reason (division by zero, negative exponent) so callers can turn them into
fault verdicts instead of crashes. The slicer's and the session loader's
errors live here too, so that the command line can catch them without
importing either module.
"""

from __future__ import annotations


#: the message of the ParseError for text nested deeper than the parser can
#: recurse (once per level of parentheses or blocks), and for a tree too deep
#: to walk or compile
TOO_DEEP = "expression nested too deeply"

#: the slicer's search strategies (slicer.slice, `tddslicer slice --strategy`)
EXHAUSTIVE = "exhaustive"
GREEDY = "greedy"


class ParseError(Exception):
    """Syntax or scope error with a 1-indexed source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


class EvaluationFault(Exception):
    """Arithmetic fault raised during expression evaluation.

    reason is one of: "division by zero", "modulo by zero",
    "negative exponent".
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class UnboundVariableError(Exception):
    """A free variable had no binding in the evaluation state."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class SessionFormatError(Exception):
    """A session file that cannot be loaded, with its line when known."""

    def __init__(self, message: str, line: int = 0):
        where = f" (line {line})" if line else ""
        super().__init__(f"{message}{where}")
        self.line = line


class OriginalNotVerifiedError(Exception):
    """The full program does not satisfy the contract, so no deletion can.
    verification is the full program's VerificationResult."""

    def __init__(self, verification):
        self.verification = verification
        super().__init__(
            f"program does not verify against the contract ({verification.verdict}); "
            "nothing to slice"
        )


class VacuousContractError(Exception):
    """No domain point satisfies the precondition; every deletion would
    'verify', so slicing is refused. verification is the full program's
    VerificationResult."""

    def __init__(self, verification):
        self.verification = verification
        super().__init__(
            "precondition is unsatisfiable within the domain; slicing refused"
        )


class ExhaustiveCapError(Exception):
    def __init__(self, units: int, cap: int):
        self.units = units
        self.cap = cap
        super().__init__(
            f"{units} deletable units the postcondition can depend on exceed "
            f"the exhaustive cap of {cap}; "
            "use the greedy strategy"
        )
