"""The mini while-language: parsing, printing, and traced interpretation."""

from . import ast
from .interp import (
    ALL,
    DEFAULT_STEP_BUDGET,
    RunResult,
    Trajectory,
    TrajectoryEntry,
    project,
    run,
)
from .parser import parse_bindings, parse_domain_spec, parse_program
from .printer import format_expr, format_predicate, pretty_print

__all__ = [
    "ALL",
    "DEFAULT_STEP_BUDGET",
    "RunResult",
    "Trajectory",
    "TrajectoryEntry",
    "ast",
    "format_expr",
    "format_predicate",
    "parse_bindings",
    "parse_domain_spec",
    "parse_program",
    "pretty_print",
    "project",
    "run",
]
