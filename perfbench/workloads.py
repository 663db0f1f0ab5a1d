"""Seeded workload generators.

Each workload is a pool of queries laid out in fixed slots (a query class
and a size tier per slot); the seed only draws the details inside a slot:
jittered domain bounds, random predicates, padding positions, the order
of the pool. So every seed gives the same mix of work, which keeps the
medians comparable across seeds, and the same seed gives the same inputs.

Generated files are written into a work directory; the program under test
sees only those files and the command-line arguments. Nothing here imports
the package.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("check", "slice", "replay", "algebra")

CORPUS_PROGRAMS = ("div_oracle", *(f"div_cycle{i}" for i in range(1, 10)), "max2")

DIV_SPEC = "0 <= r && r < y && x == y * q + r"
EXACT = "0 <= r && r < y && x == y * q + r && r == 0"

#: the nine contracts of the bundled div kata, in cycle order
CYCLE_CONTRACTS = (
    ("x == 2 && y == 2", DIV_SPEC),
    ("(x == 2 || x == 4) && y == 2", DIV_SPEC),
    ("(x == 2 || x == 4 || x == 6) && y == 2", EXACT),
    ("(exists n in 1..4 : x == 2 ^ n) && y == 2", EXACT),
    ("(x == 0 || (exists n in 1..4 : x == 2 ^ n)) && y == 2", EXACT),
    ("exists k in 0..16 : x == y * k", EXACT),
    ("exists k in 0..16 : x == y * k", EXACT),
    ("TRUE", DIV_SPEC),
    ("TRUE", DIV_SPEC),
)

MAX_CONTRACTS = (
    ("TRUE", "max >= a && max >= b && (max == a || max == b)"),
    ("a > b", "a > b && max == a"),
    ("a <= b", "a <= b && max == b"),
)


def domain_text(ranges: dict) -> str:
    return ", ".join(f"{n} in {lo}..{hi}" for n, (lo, hi) in sorted(ranges.items()))


def _cli(argv, cls, ref, files):
    return {"kind": "cli", "argv": argv, "class": cls, "ref": ref, "files": files}


class _Pool:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.queries: list[dict] = []
        self.programs: list[str] = []  # files parsed once at set-up
        self.predicates: list[str] = []
        self.domains: list[str] = []
        self.sessions: list[str] = []

    def write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add_check_like(self, command, path, pre, post, ranges, cls, extra_argv=(), ref=None):
        dom = domain_text(ranges)
        argv = [command, path, "--pre", pre, "--post", post, "--domain", dom,
                "--format", "machine", *extra_argv]
        self.predicates += [pre, post]
        self.domains.append(dom)
        self.queries.append(_cli(argv, cls, ref or {}, [path]))

    def finish(self, rng: random.Random) -> dict:
        rng.shuffle(self.queries)
        for index, query in enumerate(self.queries):
            query["id"] = index
        return {
            "queries": self.queries,
            "setup": {
                "programs": sorted(set(self.programs)),
                "predicates": sorted(set(self.predicates)),
                "domains": sorted(set(self.domains)),
                "sessions": sorted(set(self.sessions)),
            },
        }


def _copy_corpus(pool: _Pool, root: Path) -> dict[str, str]:
    corpus = root / "src" / "tddslicer" / "corpus"
    paths = {}
    for name in CORPUS_PROGRAMS:
        paths[name] = pool.write(f"{name}.prog", (corpus / f"{name}.prog").read_text(encoding="utf-8"))
        pool.programs.append(paths[name])
    return paths


# --- check ------------------------------------------------------------------


def _gen_check(pool: _Pool, rng: random.Random, root: Path) -> None:
    progs = _copy_corpus(pool, root)

    def jitter(value, spread):
        return value + rng.randint(-spread, spread)

    def check(prog, pre, post, ranges, cls, budget=None):
        extra = () if budget is None else ("--budget", str(budget))
        ref = {"program": prog, "pre": pre, "post": post, "ranges": ranges,
               "budget": budget or 10000}
        pool.add_check_like("check", progs[prog], pre, post, ranges, cls, extra, ref)

    # full scans, interpreter-heavy: the division loop against the div spec
    for index, (x_hi, y_hi) in enumerate(((36, 14), (40, 14), (40, 16), (44, 16)) * 5):
        prog = rng.choice(("div_oracle", "div_cycle8", "div_cycle9"))
        pre = ("TRUE", "x >= 0 && y >= 1")[index % 2]
        check(prog, pre, DIV_SPEC, {"x": (0, jitter(x_hi, 2)), "y": (1, jitter(y_hi, 1))},
              "div-spec")
    # full scans, predicate-heavy: each snapshot against its own cycle contract
    for cycle in range(1, 10):
        for x_hi, y_hi in ((40, 20), (56, 28)):
            pre, post = CYCLE_CONTRACTS[cycle - 1]
            check(f"div_cycle{cycle}", pre, post,
                  {"x": (0, jitter(x_hi, 2)), "y": (1, jitter(y_hi, 2))}, "cycle-own")
    # the final program against the cycle contracts, as replay does
    for cycle in (6, 7, 8, 9):
        for x_hi, y_hi in ((40, 16), (48, 20)):
            pre, post = CYCLE_CONTRACTS[cycle - 1]
            check("div_oracle", pre, post,
                  {"x": (0, jitter(x_hi, 2)), "y": (1, jitter(y_hi, 2))}, "oracle-cycle")
    for index, span in enumerate((20, 24) * 4):
        pre, post = MAX_CONTRACTS[index % 3]
        half = jitter(span, 1)
        check("max2", pre, post, {"a": (-half, half), "b": (-half, half)}, "max2")
    # the seeded minority that ends early
    for prog in ("div_cycle2", "div_cycle3", "div_cycle6"):
        check(prog, "TRUE", DIV_SPEC, {"x": (0, jitter(30, 4)), "y": (1, jitter(12, 2))},
              "counterexample")
    for span in (8, 16, 24):
        check("max2", "TRUE", "max == a", {"a": (-span, span), "b": (-span, span)},
              "counterexample")
    for _ in range(2):
        y_hi = jitter(14, 2)
        cut = rng.randint(3, y_hi)
        check("div_cycle3", "TRUE", f"q == x / (y - {cut})",
              {"x": (0, jitter(30, 4)), "y": (1, y_hi)}, "fault")
        check("div_oracle", f"x / (y - {cut}) >= 0", DIV_SPEC,
              {"x": (0, jitter(30, 4)), "y": (1, y_hi)}, "fault")
    for budget in (70, 100, 130):
        check("div_oracle", "TRUE", DIV_SPEC, {"x": (0, 60), "y": (1, jitter(12, 2))},
              "budget", budget=jitter(budget, 5))
    check("div_oracle", "TRUE", DIV_SPEC, {"x": (0, jitter(30, 4)), "y": (0, jitter(12, 2))},
          "budget")


# --- slice ------------------------------------------------------------------


PADDING = ("d := d + {c};", "d := x * {c};", "skip;", "d := d - y;", "d := {c} - d;")
MAX_PADDING = ("d := d + {c};", "d := a * {c};", "skip;", "d := d - b;")


def _padded(rng, lines, pads, templates):
    """Insert dead statements (they only touch local d) at random top-level
    or branch-body positions; each is a deletable unit."""
    lines = list(lines)
    for _ in range(pads):
        spots = [i for i, line in enumerate(lines) if not line.lstrip().startswith("}")]
        spot = rng.choice(spots[1:] + [len(lines)])
        indent = lines[spot - 1][: len(lines[spot - 1]) - len(lines[spot - 1].lstrip())]
        if lines[spot - 1].rstrip().endswith("{"):
            indent += "    "
        lines.insert(spot, indent + rng.choice(templates).format(c=rng.randint(1, 9)))
    return lines


def div_program(rng, steps, pads):
    body = ["t := x;", "q := 0;"]
    for _ in range(steps):
        body += ["if (t >= y) {", "    t := t - y;", "    q := q + 1;", "}"]
    body.append("r := t;")
    body = _padded(rng, body, pads, PADDING)
    lines = ["proc div(in x, in y, out q, out r) {", "    var t;", "    var d;"]
    lines += ["    " + line for line in body] + ["}"]
    return "\n".join(lines) + "\n"


def max_program(rng, pads):
    body = ["if (a > b) {", "    max := a;", "} else {", "    max := b;", "}"]
    body = _padded(rng, body, pads, MAX_PADDING)
    lines = ["proc max2(in a, in b, out max) {", "    var d;"]
    lines += ["    " + line for line in body] + ["}"]
    return "\n".join(lines) + "\n"


def _gen_slice(pool: _Pool, rng: random.Random, root: Path) -> None:
    del root
    # (family, unrolled steps, padding, contract, strategy): exhaustive slices
    # of 9 and 11 units of about equal cost, a few cheap ones whose contract
    # lets most of the code go, and greedy slices above the 16-unit cap.
    # Loop-free on purpose: a candidate that deletes a loop's decrement
    # spends the whole step budget on every point and would hide the search.
    slots = (
        [("div", 1, 3, 0, "exhaustive"), ("max", 0, 7, 0, "exhaustive")] * 15
        + [("max", 0, 9, 1, "exhaustive")] * 3
        + [("div", 3, 6, 0, "greedy"), ("div", 4, 4, 0, "greedy"),
           ("max", 0, 14, 0, "greedy")] * 3
    )
    for index, (family, steps, pads, contract, strategy) in enumerate(slots):
        if family == "div":
            text = div_program(rng, steps, pads)
            x_hi = rng.randint(6, 9)
            ranges = {"x": (0, x_hi), "y": (1, rng.randint(3, 4))}
            pre, post = f"x < {steps + 1} * y", DIV_SPEC
        else:
            text = max_program(rng, pads)
            half = rng.randint(3, 4)
            ranges = {"a": (-half, half), "b": (-half, half)}
            pre, post = MAX_CONTRACTS[contract]
        path = pool.write(f"slice{index:03d}.prog", text)
        pool.programs.append(path)
        ref = {"program_text": text, "pre": pre, "post": post, "ranges": ranges,
               "strategy": strategy}
        pool.add_check_like("slice", path, pre, post, ranges, f"{family}-{strategy}",
                            ("--strategy", strategy), ref)


# --- replay -----------------------------------------------------------------


def _gen_replay(pool: _Pool, rng: random.Random, root: Path) -> None:
    _copy_corpus(pool, root)
    bundled = root / "src" / "tddslicer" / "corpus" / "div.session"
    text = bundled.read_text(encoding="utf-8")
    declared = "domain = x in 0..16, y in 1..9"
    if declared not in text:
        raise ValueError("the bundled div.session no longer declares its known domain")
    # the bundled session, then copies in two size tiers; the tiers are
    # dense so that the median and the 90th percentile each fall inside one
    tiers = [None] * 4 + [(24, 11)] * 14 + [(38, 16)] * 6
    for index, tier in enumerate(tiers):
        if tier is None:
            path, ranges = str(bundled), {"x": (0, 16), "y": (1, 9)}
        else:
            x_hi, y_hi = tier[0] + rng.randint(-2, 2), tier[1] + rng.randint(-1, 0)
            ranges = {"x": (0, x_hi), "y": (1, y_hi)}
            path = pool.write(f"div{index:03d}.session",
                              text.replace(declared, f"domain = {domain_text(ranges)}"))
        pool.sessions.append(path)
        pool.queries.append(_cli(["replay", path, "--format", "machine"],
                                 "bundled" if tier is None else "scaled",
                                 {"ranges": ranges}, [path]))


# --- algebra ----------------------------------------------------------------

CMP = ("<", "<=", ">", ">=")


def _linear(rng, names):
    term = rng.choice((str(rng.randint(1, 4)), rng.choice(names),
                       f"{rng.randint(2, 3)} * {rng.choice(names)}"))
    return f"{rng.choice(names)} {rng.choice('+-')} {term}"


def _comparison(rng, names):
    return f"{_linear(rng, names)} {rng.choice(CMP)} {_linear(rng, names)}"


def random_predicate(rng, names):
    """Two inequalities joined by && or ||, one of them sometimes under a
    small existential; + - * only, so evaluation never faults. Inequalities
    (no == or !=) keep the cost of evaluating one predicate about even."""
    first = _comparison(rng, names)
    if rng.random() < 0.3:
        lo = rng.randint(0, 1)
        first = f"(exists n in {lo}..{lo + 2} : {_comparison(rng, names + ('n',))})"
    return f"({first}) {rng.choice(('&&', '||'))} ({_comparison(rng, names)})"


def _union(*parts):
    """Left-nested OR text; parentheses keep each operand one node."""
    text = f"({parts[0]})"
    for part in parts[1:]:
        text = f"({text} || ({part}))"
    return text


def _gen_algebra(pool: _Pool, rng: random.Random, root: Path) -> None:
    del root
    ins, outs = ("a", "b"), ("a", "b", "o")

    def contract():
        return random_predicate(rng, ins), random_predicate(rng, outs)

    def add(op, c1, c2, half, cls):
        ranges = {"a": (-half, half), "b": (-half, half)}
        out = {"o": (-half, half)}  # out-parameter range for the posts
        pool.predicates += [p for c in (c1, c2) if c for p in c]
        pool.domains.append(domain_text(ranges))
        pool.queries.append({"kind": "algebra", "op": op, "c1": c1, "c2": c2,
                             "domain": domain_text(ranges), "ranges": ranges, "out": out,
                             "class": cls, "files": []})

    for _ in range(32):
        a, b = contract(), contract()
        add("equiv", (_union(a[0], b[0]), _union(a[1], b[1])),
            (_union(b[0], a[0]), _union(b[1], a[1])), 5, "commuted")
    for _ in range(24):
        a, b, c = contract(), contract(), contract()
        left = (_union(_union(a[0], b[0]), c[0]), _union(_union(a[1], b[1]), c[1]))
        right = (_union(a[0], _union(b[0], c[0])), _union(a[1], _union(b[1], c[1])))
        add("equiv", left, right, 4, "reassociated")
    for _ in range(12):
        split, other = _comparison(rng, ins), random_predicate(rng, ins)
        pre = _union(random_predicate(rng, ins), split, f"!({split}) && ({other})",
                     f"!({split}) && !({other})")
        add("tautology", (pre, "TRUE"), None, 14, "tautology")
    for _ in range(12):
        add("equiv", contract(), contract(), 5, "random-pair")


_GENERATORS = {"check": _gen_check, "slice": _gen_slice, "replay": _gen_replay,
               "algebra": _gen_algebra}


def generate(workload: str, seed: int, workdir: Path, root: Path) -> dict:
    """Write the workload's files into workdir and return its pool."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    pool = _Pool(workdir)
    _GENERATORS[workload](pool, rng, root)
    result = pool.finish(rng)
    result["workload"] = workload
    result["seed"] = seed
    (workdir / "pool.json").write_text(json.dumps(result), encoding="utf-8")
    return result
