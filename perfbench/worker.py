"""One workload process: set-up, then the timed closed loop.

    python3 perfbench/worker.py setup WORKDIR
    python3 perfbench/worker.py run WORKDIR SECONDS TRACE

`setup` imports the package and parses every program, predicate, domain
and session file of the pool once, and prints its set-up time and the
calibration walks timed just before and after it (calibration.py). `run`
does the same set-up, then issues the pool's queries one after another (one
client, closed loop) for SECONDS and at least MIN_QUERIES queries, timing
one calibration walk after each query, and writes results.json into
WORKDIR. With TRACE=1 it then replays the pool once more with every layer
wrapped (see spans.py) and adds the per-layer metrics and the traced
outputs.
"""

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from calibration import sample

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_QUERIES = 100
SETUP_WALKS = 10  # calibration walks on each side of a set-up

tddslicer = None  # imported by setup(), inside the timed set-up


def setup(pool: dict) -> tuple[float, dict]:
    """Import the package and parse every input of the pool once; return
    (seconds taken, parsed algebra operands)."""
    global tddslicer
    start = perf_counter()
    import tddslicer
    import tddslicer.cli

    inputs = pool["setup"]
    for path in inputs["programs"]:
        tddslicer.parse_program(Path(path).read_text(encoding="utf-8"))
    predicates = {text: tddslicer.parse_predicate(text) for text in inputs["predicates"]}
    domains = {text: tddslicer.Domain.parse(text) for text in inputs["domains"]}
    for path in inputs["sessions"]:
        tddslicer.load_session(path)
    operands = {}
    for query in pool["queries"]:
        if query["kind"] == "algebra":
            c1, c2 = (None if c is None else tddslicer.Contract(predicates[c[0]], predicates[c[1]])
                      for c in (query["c1"], query["c2"]))
            out = {name: tuple(bounds) for name, bounds in query["out"].items()}
            operands[query["id"]] = (c1, c2, domains[query["domain"]], out)
    return perf_counter() - start, operands


def _cli_query(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = tddslicer.cli.main(argv)
        elapsed = perf_counter() - start
    return elapsed, [code, out.getvalue(), err.getvalue()]


def _algebra_query(query, operands):
    c1, c2, dom, out = operands[query["id"]]
    start = perf_counter()
    if query["op"] == "tautology":
        result = tddslicer.is_tautology(c1.pre, dom)
    else:
        result = (tddslicer.subsumed_by(c1, c2, dom, out), tddslicer.subsumed_by(c2, c1, dom, out))
    return perf_counter() - start, result


def _implication(result):
    return None if result is None else [result.holds, result.witness]


def summarize(query, result):
    """JSON-able form of an algebra result (done outside the timed region)."""
    if query["op"] == "tautology":
        return _implication(result)
    return [{"holds": r.holds, "pre": _implication(r.pre_implication),
             "post": _implication(r.post_implication)} for r in result]


def issue(query, operands):
    """(seconds, raw result) of one query; an exception is a result too."""
    try:
        if query["kind"] == "cli":
            return _cli_query(query["argv"])
        return _algebra_query(query, operands)
    except Exception as err:  # noqa: BLE001 - a raising query is counted, not fatal
        return 0.0, ["raised", f"{type(err).__name__}: {err}"]


def _output(query, raw):
    if query["kind"] == "algebra" and not (isinstance(raw, list) and raw[:1] == ["raised"]):
        return summarize(query, raw)
    return raw


def closed_loop(pool, operands, seconds):
    """Records of (query id, seconds, calibration walk, same output as the
    query's first issue) and the first output of each query. Only first
    outputs are kept, so memory does not grow with the number of queries."""
    queries = pool["queries"]
    records, first = [], {}
    hard_stop = max(3 * seconds, seconds + 60)
    begin = perf_counter()
    while True:
        query = queries[len(records) % len(queries)]
        elapsed, raw = issue(query, operands)
        walk = sample()
        same = first.setdefault(query["id"], raw) == raw
        records.append((query["id"], elapsed, walk, same))
        spent = perf_counter() - begin
        if (spent >= seconds and len(records) >= MIN_QUERIES) or spent >= hard_stop:
            break
    return records, first


def traced_pass(pool, operands):
    import spans

    tracer = spans.Tracer()
    tracer.install()
    outputs, latencies, walks = [], [], []
    try:
        for query in pool["queries"]:
            tracer.query_id = query["id"]
            elapsed, raw = issue(query, operands)
            latencies.append(elapsed)
            outputs.append(_output(query, raw))
            walks.append(sample())
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{pool['workload']}-seed{pool['seed']}.tsv.gz"
    tracer.write(spans_file)
    return {
        "outputs": outputs,
        "latencies": latencies,
        "walks": walks,
        "layers": tracer.layer_metrics(),
        "missing": tracer.missing,
        "spans": len(tracer.start),
        "spans_file": str(spans_file),
    }


def main(argv):
    mode, workdir = argv[0], Path(argv[1])
    pool = json.loads((workdir / "pool.json").read_text(encoding="utf-8"))
    walks = [sample() for _ in range(SETUP_WALKS)]
    setup_s, operands = setup(pool)
    walks += [sample() for _ in range(SETUP_WALKS)]
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "walks": walks}))
        return 0
    seconds, trace = float(argv[2]), argv[3] == "1"
    records, first = closed_loop(pool, operands, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    by_id = {q["id"]: q for q in pool["queries"]}
    result = {
        "setup_s": setup_s,
        "setup_walks": walks,
        "peak_rss_kb": peak_kb,
        "records": records,
        "outputs": {qid: _output(by_id[qid], raw) for qid, raw in first.items()},
    }
    if trace:
        result["traced"] = traced_pass(pool, operands)
    (workdir / "results.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
