"""Seeded random generators for programs, predicates, contracts, and tests.

Everything takes an explicit random.Random so the suites are reproducible;
the acceptance criteria fix their seeds. Generated arithmetic sticks to
+ - * (and the occasional literal power), so predicates can never fault,
except in programs and predicates asked for with faults=True: those also
use / % ^ with zero or negative operands, and those programs have loops
that need not terminate. union_all folds a list of contracts into their union.
"""

from __future__ import annotations

import random
from functools import reduce

from tddslicer.contracts import Contract, TestCase, union
from tddslicer.lang import ast
from tddslicer.lang.ast import Program
from tddslicer.lang.parser import parse_predicate, parse_program

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")


def linear_expr(rng: random.Random, vars: tuple[str, ...]) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3 or not vars:
            terms.append(str(rng.randint(-3, 3)))
        elif roll < 0.7:
            terms.append(rng.choice(vars))
        else:
            terms.append(f"{rng.randint(2, 3)} * {rng.choice(vars)}")
    text = terms[0]
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    return text


def faulting_expr(rng: random.Random, vars: tuple[str, ...], small: tuple[str, ...]) -> str:
    """A linear expression with one / % or ^ term that may fault.

    Divisors and exponents may be zero or negative. Powers only combine
    the never-assigned `small` variables and small literals, so values
    stay small however long a loop runs.
    """
    op = rng.choice("/%^")
    if op == "^":
        base = rng.choice((*small, "2", "(-1)"))
        term = f"{base} ^ {rng.choice((*small, str(rng.randint(-1, 3))))}"
    else:
        term = f"{rng.choice(vars)} {op} {rng.choice((*vars, str(rng.randint(-2, 2))))}"
    return f"{linear_expr(rng, vars)} {rng.choice('+-')} ({term})"


def comparison(rng: random.Random, vars: tuple[str, ...], small: tuple[str, ...] = ()) -> str:
    """A comparison of linear expressions; with `small` (the faults=True
    programs), sometimes a faulting_expr on the left."""
    if small and rng.random() < 0.3:
        return f"{faulting_expr(rng, vars, small)} {rng.choice(CMP_OPS)} {linear_expr(rng, vars)}"
    return f"{linear_expr(rng, vars)} {rng.choice(CMP_OPS)} {linear_expr(rng, vars)}"


def predicate_text(rng: random.Random, vars: tuple[str, ...], depth: int = 2,
                   small: tuple[str, ...] = ()) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return comparison(rng, vars, small)
    if roll < 0.5:
        return rng.choice(("TRUE", "FALSE"))
    if roll < 0.6:
        return f"!({predicate_text(rng, vars, depth - 1, small)})"
    if roll < 0.7 and vars:
        bound = "n"
        lo = rng.randint(0, 1)
        hi = lo + rng.randint(0, 2)
        inner_vars = tuple(sorted(set(vars) | {bound}))
        return f"(exists {bound} in {lo}..{hi} : {comparison(rng, inner_vars, small)})"
    op = rng.choice(("&&", "||"))
    return (
        f"({predicate_text(rng, vars, depth - 1, small)}) {op} "
        f"({predicate_text(rng, vars, depth - 1, small)})"
    )


def random_predicate(rng: random.Random, vars: tuple[str, ...], depth: int = 2,
                     faults: bool = False):
    """A random predicate over vars. With faults=True its comparisons may
    fault (see faulting_expr), every one of vars counting as small: keep
    their ranges small."""
    return parse_predicate(predicate_text(rng, vars, depth, vars if faults else ()))


def random_contract(
    rng: random.Random,
    in_vars: tuple[str, ...] = ("a", "b"),
    out_vars: tuple[str, ...] = ("o",),
) -> Contract:
    return Contract(
        pre=random_predicate(rng, in_vars),
        post=random_predicate(rng, in_vars + out_vars),
    )


def union_all(contracts: list[Contract]) -> Contract:
    """Left fold of union over a nonempty contract list."""
    if not contracts:
        raise ValueError("union_all needs at least one contract")
    return reduce(union, contracts)


def random_test(
    rng: random.Random,
    in_vars: tuple[str, ...] = ("a", "b"),
    out_vars: tuple[str, ...] = ("o",),
    span: int = 3,
) -> TestCase:
    return TestCase(
        name=f"t{rng.randint(0, 10**6)}",
        inputs={v: rng.randint(-span, span) for v in in_vars},
        expected={v: rng.randint(-span, span) for v in out_vars},
    )


def _block_lines(
    rng: random.Random,
    budget: int,
    depth: int,
    targets: tuple[str, ...],
    reads: tuple[str, ...],
    indent: str,
    allow_while: bool,
    small: tuple[str, ...],
) -> list[str]:
    lines: list[str] = []
    while budget > 0:
        roll = rng.random()
        if depth < 2 and budget >= 2 and roll < 0.3:
            inner = rng.randint(1, budget - 1)
            then_n = rng.randint(0, inner)
            else_n = inner - then_n
            lines.append(f"{indent}if ({comparison(rng, reads, small)}) {{")
            lines.extend(
                _block_lines(rng, then_n, depth + 1, targets, reads, indent + "    ", allow_while, small)
            )
            if else_n:
                lines.append(f"{indent}}} else {{")
                lines.extend(
                    _block_lines(rng, else_n, depth + 1, targets, reads, indent + "    ", allow_while, small)
                )
            lines.append(f"{indent}}}")
            budget -= 1 + inner
        elif small and allow_while and depth < 2 and budget >= 2 and roll < 0.38:
            # any condition, any body: may run out of budget or fault
            inner = rng.randint(1, budget - 1)
            lines.append(f"{indent}while ({comparison(rng, reads, small)}) {{")
            lines.extend(
                _block_lines(rng, inner, depth + 1, targets, reads, indent + "    ", allow_while, small)
            )
            lines.append(f"{indent}}}")
            budget -= 1 + inner
        elif allow_while and depth < 1 and budget >= 2 and roll < 0.38:
            # counting loop, always terminates: bump a target toward a bound
            counter = targets[-1]
            bound = rng.randint(1, 3)
            lines.append(f"{indent}while ({counter} < {bound}) {{")
            lines.append(f"{indent}    {counter} := {counter} + 1;")
            lines.append(f"{indent}}}")
            budget -= 2
        elif roll < 0.46:
            lines.append(f"{indent}skip;")
            budget -= 1
        else:
            target = rng.choice(targets)
            if small and rng.random() < 0.3:
                lines.append(f"{indent}{target} := {faulting_expr(rng, reads, small)};")
            else:
                lines.append(f"{indent}{target} := {linear_expr(rng, reads)};")
            budget -= 1
    return lines


def random_program(
    rng: random.Random,
    max_stmts: int,
    allow_while: bool = False,
    name: str = "f",
    faults: bool = False,
) -> Program:
    """A well-formed program over (in a, in b, out o) plus sometimes a local.

    With faults=True, expressions and conditions may fault (see
    faulting_expr) and, with allow_while, loops may never terminate.
    """
    use_local = rng.random() < 0.4
    targets = ("o", "w") if use_local else ("o",)
    reads = ("a", "b") + targets
    budget = rng.randint(1, max_stmts)
    lines = [f"proc {name}(in a, in b, out o) {{"]
    if use_local:
        lines.append("    var w;")
    small = ("a", "b") if faults else ()
    lines.extend(_block_lines(rng, budget, 0, targets, reads, "    ", allow_while, small))
    lines.append("}")
    return parse_program("\n".join(lines))


def random_kept(rng: random.Random, block: ast.Block, keep: float) -> set[int]:
    """Ids of a random set of block's statements that holds the enclosing
    statement of each of its members, each kept with probability keep."""
    kept = set()
    for stmt in block.stmts:
        if rng.random() >= keep:
            continue
        kept.add(stmt.stmt_id)
        if isinstance(stmt, ast.If):
            kept |= random_kept(rng, stmt.then, keep) | random_kept(rng, stmt.orelse, keep)
        elif isinstance(stmt, ast.While):
            kept |= random_kept(rng, stmt.body, keep)
    return kept
