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
from .parser import load_program, parse_bindings, parse_domain_spec, parse_program
from .printer import format_predicate, pretty_print
