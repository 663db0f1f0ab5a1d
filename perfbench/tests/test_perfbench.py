"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import judge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _pool(workload, seed, workdir):
    workdir.mkdir()
    pool = workloads.generate(workload, seed, workdir, ROOT)
    text = json.dumps(pool).replace(str(workdir), "<work>")
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir()) if p.name != "pool.json"}
    return text, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload, tmp_path):
    first = _pool(workload, 7, tmp_path / "a")
    assert first == _pool(workload, 7, tmp_path / "b")
    assert first != _pool(workload, 8, tmp_path / "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_and_package_agree_on_one_query_per_class(workload, tmp_path):
    pool = workloads.generate(workload, 3, tmp_path, ROOT)
    _, operands = worker.setup(pool)
    picked = {}
    for query in pool["queries"]:
        picked.setdefault(query["class"], query)
    for query in picked.values():
        _, raw = worker.issue(query, operands)
        output = json.loads(json.dumps(worker._output(query, raw)))
        assert judge.judge(workload, query, output), query["class"]


def test_a_wrong_answer_is_rejected(tmp_path):
    pool = workloads.generate("check", 3, tmp_path, ROOT)
    query = next(q for q in pool["queries"] if q["class"] == "div-spec")
    _, raw = worker.issue(query, {})
    assert judge.judge("check", query, raw)
    assert not judge.judge("check", query, [raw[0], raw[1].replace("verified", "vacuous"), raw[2]])


def test_every_wrapped_name_exists():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = spans.Tracer().layer_metrics()
    layers.update({"trace.overhead_pct": 0.0, "trace.missing_wrappers": 0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in layers
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
