"""Judge each query's output against a reference that does not come from
the code under test (see oracle.py); replay is judged against facts about
the div kata written out by hand below."""

from __future__ import annotations

import json
from pathlib import Path

import oracle
from tddslicer.lang import ast
from tddslicer.lang.parser import parse_predicate, parse_program
from workloads import domain_text

# per cycle of the div kata: (classification, matched contract, red check,
# own-contract point check); every cycle is green, regression-free,
# verified on snapshot and final program, and chained into the union
KATA = (
    ("new", None, "not_applicable", "pass"),
    ("new", None, "failed_as_expected", "pass"),
    ("new", None, "failed_as_expected", "pass"),
    ("regression", 2, "not_applicable", "pre_violation"),
    ("new", None, "failed_as_expected", "pass"),
    ("new", None, "passed_unexpectedly", "pass"),
    ("regression", 5, "passed_as_expected", "pass"),
    ("new", None, "failed_as_expected", "pass"),
    ("regression", 7, "passed_as_expected", "pass"),
)
DECLARED = ("new", "new", "new", "regression", "new", "new", "triangulation", "new",
            "triangulation")
KATA_WARNINGS = [
    "cycle 4: cycle test vs its own contract: pre_violation",
    "cycle 6: new test already passes on the previous snapshot",
]
# the cycle preconditions, transcribed by hand
KATA_PRES = (
    lambda x, y: x == 2 and y == 2,
    lambda x, y: x in (2, 4) and y == 2,
    lambda x, y: x in (2, 4, 6) and y == 2,
    lambda x, y: x in (2, 4, 8, 16) and y == 2,
    lambda x, y: x in (0, 2, 4, 8, 16) and y == 2,
    lambda x, y: any(x == y * k for k in range(17)),
    lambda x, y: any(x == y * k for k in range(17)),
    lambda x, y: True,
    lambda x, y: True,
)


def _check(query, output):
    ref = query["ref"]
    ranges = {name: tuple(bounds) for name, bounds in ref["ranges"].items()}
    program = parse_program(Path(query["files"][0]).read_text(encoding="utf-8"))
    want = oracle.ref_check(program, parse_predicate(ref["pre"]), parse_predicate(ref["post"]),
                            ranges, ref["budget"])
    code = 0 if want["verdict"] in ("verified", "vacuous") else 1
    want = {"format_version": 1, "command": "check", **want}
    return output == [code, json.dumps(want, indent=2, sort_keys=True) + "\n", ""]


def _slice(query, output):
    ref = query["ref"]
    if output[0] != 0 or output[2] != "":
        return False
    got = json.loads(output[1])
    ranges = {name: tuple(bounds) for name, bounds in ref["ranges"].items()}
    original = parse_program(ref["program_text"])
    pre, post = parse_predicate(ref["pre"]), parse_predicate(ref["post"])
    units = oracle.all_units(original)
    deleted = [(u["kind"], u["anchor"]) for u in got["deleted"]]
    retained = [(u["kind"], u["anchor"]) for u in got["retained"]]
    derived = oracle.delete(original, deleted)
    greedy = ref["strategy"] == "greedy"
    if greedy:
        optimum_ok = retained == oracle.greedy_retained(original, pre, post, ranges)
    else:
        optimum_ok = len(retained) == oracle.min_retained(original, pre, post, ranges)
    return (
        optimum_ok
        and got["strategy"] == ref["strategy"]
        and got["minimal"] is (not greedy)
        and sorted(deleted + retained) == sorted(units)
        and retained == sorted(oracle.all_units(derived))
        and oracle.shape(parse_program(got["program"])) == oracle.shape(derived)
        and oracle.verifies(derived, pre, post, ranges)
        and got["verification"]["verdict"] == "verified"
        and got["verification"]["checked_points"] == oracle.pre_count(pre, ranges)
        and got["verification"]["domain"] == domain_text(ranges)
    )


def _replay(query, output):
    if output[0] != 0 or output[2] != "":
        return False
    got = json.loads(output[1])
    ranges = {name: tuple(bounds) for name, bounds in query["ref"]["ranges"].items()}
    points = list(oracle.domain_points(ranges))
    if not (got["ok"] and got["qlty"] == 100.0 and got["failures"] == []
            and got["warnings"] == KATA_WARNINGS and got["union_pre_tautology"] is True
            and got["final_matches_last_snapshot"] is True and got["session"] == "div-kata"
            and got["domain"] == domain_text(ranges) and len(got["cycles"]) == len(KATA)):
        return False
    for index, (record, fact) in enumerate(zip(got["cycles"], KATA)):
        classification, matched, red, point = fact
        expected_points = sum(1 for p in points if KATA_PRES[index](p["x"], p["y"]))
        if not (
            record["index"] == index + 1
            and (record["classification"], record["matched_contract"]) == (classification, matched)
            and record["declared_kind"] == DECLARED[index] and record["kind_mismatch"] is False
            and record["red"]["status"] == red and record["green"]["passed"] is True
            and [r["passed"] for r in record["regressions"]] == [True] * index
            and record["contract_point"]["status"] == point
            and all(record[key]["verdict"] == "verified"
                    and record[key]["checked_points"] == expected_points
                    for key in ("snapshot_contract", "oracle_contract"))
            and record["implication_witnessed"] is True and record["chain_holds"] is True
            and record["errors"] == []
        ):
            return False
    return True


def _algebra(query, output):
    ranges = {name: tuple(bounds) for name, bounds in query["ranges"].items()}
    parse = lambda c: (parse_predicate(c[0]), parse_predicate(c[1]))  # noqa: E731
    if query["op"] == "tautology":
        holds, witness = oracle.ref_implies(ast.BoolLit(True), parse_predicate(query["c1"][0]),
                                            ranges)
        return output == [holds, witness]
    c1, c2 = parse(query["c1"]), parse(query["c2"])
    out = {name: tuple(bounds) for name, bounds in query["out"].items()}
    want = [oracle.ref_subsumed_by(c1, c2, ranges, out), oracle.ref_subsumed_by(c2, c1, ranges, out)]
    return output == json.loads(json.dumps(want))


_JUDGES = {"check": _check, "slice": _slice, "replay": _replay, "algebra": _algebra}


def judge(workload: str, query: dict, output) -> bool:
    """True when the output is what the reference expects."""
    if isinstance(output, list) and output[:1] == ["raised"]:
        return False
    return _JUDGES[workload](query, output)
