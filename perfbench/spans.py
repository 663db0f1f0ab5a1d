"""Outside-in tracing: spans around each layer's public functions.

Each entry of WRAPS names a function at the module binding its caller
uses (`from ... import` copies names, so wrapping the defining module
alone would miss most calls). A span records name, start, end, parent
span and query id in flat arrays; counts are read from the returned
values (`RunResult.steps`, `checked_points`). Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from time import perf_counter

LAYERS = ("cli", "lang.parser", "lang.interp", "predicates", "contracts",
          "verifier", "slicer", "session")

# (module, attribute, layer, span name)
WRAPS = (
    ("tddslicer.cli", "main", "cli", "main"),
    ("tddslicer.cli", "parse_program", "lang.parser", "parse_program"),
    ("tddslicer.session", "parse_program", "lang.parser", "parse_program"),
    ("tddslicer.cli", "parse_predicate", "lang.parser", "parse_predicate"),
    ("tddslicer.session", "parse_predicate", "lang.parser", "parse_predicate"),
    ("tddslicer.predicates", "_parse_predicate", "lang.parser", "parse_predicate"),
    ("tddslicer.predicates", "parse_domain_spec", "lang.parser", "parse_domain_spec"),
    ("tddslicer.session", "parse_domain_spec", "lang.parser", "parse_domain_spec"),
    ("tddslicer.session", "parse_bindings", "lang.parser", "parse_bindings"),
    ("tddslicer.verifier", "run", "lang.interp", "run"),
    ("tddslicer.session", "run", "lang.interp", "run"),
    ("tddslicer.slicer", "run", "lang.interp", "run"),
    ("tddslicer.cli", "run", "lang.interp", "run"),
    ("tddslicer.predicates", "eval_bool", "predicates", "eval_bool"),
    ("tddslicer.verifier", "eval_predicate", "predicates", "eval_predicate"),
    ("tddslicer.contracts", "eval_predicate", "predicates", "eval_predicate"),
    ("tddslicer.contracts", "implies", "predicates", "implies"),
    ("tddslicer.predicates", "implies", "predicates", "implies"),
    ("tddslicer", "is_tautology", "predicates", "is_tautology"),
    ("tddslicer.cli", "is_tautology", "predicates", "is_tautology"),
    ("tddslicer.session", "is_tautology", "predicates", "is_tautology"),
    ("tddslicer", "subsumed_by", "contracts", "subsumed_by"),
    ("tddslicer.contracts", "subsumed_by", "contracts", "subsumed_by"),
    ("tddslicer.contracts", "classify_test", "contracts", "classify_test"),
    ("tddslicer.contracts", "is_instance", "contracts", "is_instance"),
    ("tddslicer.contracts", "union", "contracts", "union"),
    ("tddslicer.verifier", "validate_scope", "contracts", "validate_scope"),
    ("tddslicer.cli", "check", "verifier", "check"),
    ("tddslicer.slicer", "check", "verifier", "check"),
    ("tddslicer.session", "check", "verifier", "check"),
    ("tddslicer.session", "check_point", "verifier", "check_point"),
    ("tddslicer.cli", "compute_slice", "slicer", "slice"),
    ("tddslicer.slicer", "apply_deletion", "slicer", "apply_deletion"),
    ("tddslicer.cli", "load_session", "session", "load_session"),
    ("tddslicer.cli", "replay", "session", "replay"),
)

EARLY_VERDICTS = ("counterexample", "fault", "budget_exceeded")


def _count(name, result):
    """(count, flag) read from a wrapped function's return value."""
    if name == "run":
        return result.steps, result.status == "budget_exceeded"
    if name == "check":
        return result.checked_points, result.verdict in EARLY_VERDICTS
    if name == "check_point":
        return int(result.run_result is not None), False
    if name == "implies":
        return result.checked_points, result.checked_points == 0
    return 0, False


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, span name) per name id
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.query = array("i")
        self.count = array("q")
        self.flag = array("b")
        self.stack: list[int] = []
        self.query_id = -1
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id, span_name):
        start, end, names, parent = self.start, self.end, self.name, self.parent
        query, count, flag, stack = self.query, self.count, self.flag, self.stack
        counted = span_name in ("run", "check", "check_point", "implies")

        def traced(*args, **kwargs):
            index = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            query.append(self.query_id)
            end.append(0.0)
            count.append(0)
            flag.append(0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if counted:
                count[index], flag[index] = _count(span_name, result)
            return result

        return traced

    def install(self) -> None:
        ids: dict[tuple[str, str], int] = {}
        for module_name, attr, layer, span_name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            key = (layer, span_name)
            if key not in ids:
                ids[key] = len(self.names)
                self.names.append(key)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, ids[key], span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self) -> array:
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and rates over every recorded span."""
        layer_of = [layer for layer, _ in self.names]
        span_of = [name for _, name in self.names]
        own = self.self_times()
        n = len(self.start)
        # bit mask of the layers above each span (parents precede children)
        above = array("H", bytes(2 * n))
        bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        totals = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        m = {key: 0 for key in (
            "runs", "steps", "run_s", "budget", "evals", "eval_s", "implies_points",
            "shortcuts", "implies_self", "points", "verifier_s", "early", "candidates",
            "slicer_checks", "slicer_points", "apply_s", "slice_s", "replays",
            "replay_runs", "replay_checks", "load_s")}
        for i in range(n):
            name_id = self.name[i]
            layer, span = layer_of[name_id], span_of[name_id]
            parent = self.parent[i]
            parent_layer = layer_of[self.name[parent]] if parent >= 0 else None
            parent_span = span_of[self.name[parent]] if parent >= 0 else None
            if parent >= 0:
                above[i] = above[parent] | bit[parent_layer]
            duration = self.end[i] - self.start[i]
            totals[layer] += own[i]
            outermost = parent_layer != layer
            calls[layer] += outermost
            if span == "run":
                m["runs"] += 1
                m["steps"] += self.count[i]
                m["run_s"] += duration
                m["budget"] += self.flag[i]
                if above[i] & bit["session"]:
                    m["replay_runs"] += 1
            elif span in ("eval_bool", "eval_predicate"):
                if parent_span not in ("eval_bool", "eval_predicate"):
                    m["evals"] += 1
                    m["eval_s"] += duration
            elif span == "implies":
                m["implies_points"] += self.count[i]
                m["shortcuts"] += self.flag[i]
                m["implies_self"] += own[i]
            elif span in ("check", "check_point"):
                m["points"] += self.count[i]
                if outermost:
                    m["verifier_s"] += duration
                if span == "check":
                    m["early"] += self.flag[i]
                    if parent_layer == "slicer":
                        m["slicer_checks"] += 1
                        m["slicer_points"] += self.count[i]
                    if above[i] & bit["session"]:
                        m["replay_checks"] += 1
            elif span == "apply_deletion":
                m["candidates"] += 1
                m["apply_s"] += duration
            elif span == "slice":
                m["slice_s"] += duration
            elif span == "replay":
                m["replays"] += 1
            elif span == "load_session":
                m["load_s"] += duration

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def share(part, whole):
            return part / whole if whole else 0.0

        ms = 1000.0
        return {
            "cli.calls": calls["cli"],
            "cli.self_ms": totals["cli"] * ms,
            "lang.parser.calls": calls["lang.parser"],
            "lang.parser.self_ms": totals["lang.parser"] * ms,
            "lang.interp.runs": m["runs"],
            "lang.interp.steps": m["steps"],
            "lang.interp.self_ms": totals["lang.interp"] * ms,
            "lang.interp.steps_per_s": rate(m["steps"], m["run_s"]),
            "lang.interp.budget_exhausted": m["budget"],
            "predicates.evals": m["evals"],
            "predicates.self_ms": totals["predicates"] * ms,
            "predicates.evals_per_s": rate(m["evals"], m["eval_s"]),
            "predicates.implies_points": m["implies_points"],
            "predicates.implies_shortcuts": m["shortcuts"],
            "predicates.implies_self_ms": m["implies_self"] * ms,
            "contracts.calls": calls["contracts"],
            "contracts.self_ms": totals["contracts"] * ms,
            "verifier.calls": calls["verifier"],
            "verifier.points": m["points"],
            "verifier.self_ms": totals["verifier"] * ms,
            "verifier.points_per_s": rate(m["points"], m["verifier_s"]),
            "verifier.early_exits": m["early"],
            "slicer.candidates": m["candidates"],
            "slicer.checks": m["slicer_checks"],
            "slicer.check_ratio": share(m["slicer_checks"], m["candidates"]),
            "slicer.points_per_check": share(m["slicer_points"], m["slicer_checks"]),
            "slicer.apply_ms": m["apply_s"] * ms,
            "slicer.self_ms": totals["slicer"] * ms,
            "slicer.candidates_per_s": rate(m["candidates"], m["slice_s"]),
            "session.replays": m["replays"],
            "session.runs_per_replay": share(m["replay_runs"], m["replays"]),
            "session.checks_per_replay": share(m["replay_checks"], m["replays"]),
            "session.load_ms": m["load_s"] * ms,
            "session.self_ms": totals["session"] * ms,
        }

    def write(self, path) -> None:
        """One tab-separated line per span, gzip-compressed; times in
        microseconds from the first span."""
        own = self.self_times()
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tparent\tquery\tlayer\tname\tstart_us\tend_us\tself_us\tcount\tflag\n")
            for i in range(len(self.start)):
                layer, name = self.names[self.name[i]]
                out.write(f"{i}\t{self.parent[i]}\t{self.query[i]}\t{layer}\t{name}\t"
                          f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\t"
                          f"{own[i] * 1e6:.1f}\t{self.count[i]}\t{self.flag[i]}\n")
