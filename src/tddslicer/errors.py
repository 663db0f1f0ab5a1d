"""Errors shared across the toolkit.

Parse-time problems carry a source position; evaluation faults carry the
reason (division by zero, negative exponent) so callers can turn them into
fault verdicts instead of crashes.
"""

from __future__ import annotations


#: the message of the ParseError for text nested deeper than the parser can
#: recurse (once per level of parentheses or blocks), and for a tree too deep
#: to walk or compile
TOO_DEEP = "expression nested too deeply"


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
