"""tddslicer benchmark: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload check --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from the seed, measures set-up time in
fresh processes, runs the timed closed loop in one more fresh process
(worker.py), judges every output against an independent reference, and
prints the metrics. Timings are rescaled to a reference machine speed
(calibration.py); the raw ones are printed as well. The last line of standard output is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Must be run from the root of a source checkout (it imports the
package from src/ and the brute-force oracles from tests/).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 8
SETUP_TIMEOUT_S = 10
WORKER_TIMEOUT_S = 120  # the whole run must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "qps": "1/s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _worker(args, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def measure(workload, seed, seconds, trace, workdir):
    pool = workloads.generate(workload, seed, workdir, ROOT)
    setups = [json.loads(_worker(["setup", str(workdir)], SETUP_TIMEOUT_S).splitlines()[-1])
              for _ in range(SETUP_PROBES)]
    _worker(["run", str(workdir), str(seconds), "1" if trace else "0"],
            WORKER_TIMEOUT_S)
    results = json.loads((workdir / "results.json").read_text(encoding="utf-8"))
    setups.append({"setup_s": results["setup_s"], "walks": results["setup_walks"]})
    return pool, setups, results


def evaluate(workload, pool, setups, results):
    """(attempted, failed, end-to-end metrics, notes, first output per query,
    rescaled latency per record) with every output judged."""
    import judge

    queries = {q["id"]: q for q in pool["queries"]}
    first = {int(qid): output for qid, output in results["outputs"].items()}
    verdicts = {qid: judge.judge(workload, queries[qid], output) for qid, output in first.items()}
    # a query fails when its first output is wrong or a repeat differs from it
    failed = sum(1 for qid, _, _, same in results["records"] if not (same and verdicts[qid]))
    measured = [elapsed * 1000.0 for _, elapsed, _, _ in results["records"]]
    walks = [walk for _, _, walk, _ in results["records"]]
    latencies = calibration.rescale(measured, walks)
    attempted = len(latencies)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "p50_ms": statistics.median(measured),
        "p90_ms": percentile(measured, 0.9),
        "qps": attempted / (sum(measured) / 1000.0),
    }
    metrics = {
        "setup_s": statistics.median(
            s["setup_s"] * calibration.scale(s["walks"]) for s in setups),
        "p50_ms": statistics.median(latencies),
        "p90_ms": percentile(latencies, 0.9),
        "qps": attempted / (sum(latencies) / 1000.0),
        "peak_rss_mb": results["peak_rss_kb"] / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    notes = [f"queries: {attempted} ({len(first)} distinct of a pool of {len(queries)})",
             f"error_rate: {failed / attempted:.4f}",
             f"calibration walk: median {statistics.median(walks) * 1000.0:.4f} ms "
             f"(reference {calibration.REFERENCE_S * 1000.0} ms)",
             "raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())]
    return attempted, failed, metrics, notes, first, latencies


def evaluate_trace(workload, pool, results, first, latencies):
    """Per-layer metrics; each traced output must equal the untraced run's
    (or, for a query the untraced run did not reach, pass the judge)."""
    import judge

    traced = results["traced"]
    mismatched = sum(
        1 for qid, output in enumerate(traced["outputs"])
        if (output != first[qid] if qid in first
            else not judge.judge(workload, pool["queries"][qid], output)))
    untraced = {}
    for (qid, *_), elapsed in zip(results["records"], latencies):
        untraced.setdefault(qid, []).append(elapsed)
    traced_latencies = calibration.rescale([t * 1000.0 for t in traced["latencies"]],
                                           traced["walks"])
    common = [qid for qid in range(len(traced_latencies)) if qid in untraced]
    plain = sum(statistics.mean(untraced[qid]) for qid in common)
    with_spans = sum(traced_latencies[qid] for qid in common)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain if plain else 0.0
    metrics["trace.missing_wrappers"] = len(traced["missing"])
    notes = [f"traced queries: {len(traced['outputs'])}, compared with the untraced run: "
             f"{len(common)}, outputs differing: {mismatched}",
             f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% of untraced latency",
             f"spans: {traced['spans']} written to {traced['spans_file']}"]
    if traced["missing"]:
        notes.append("wrapped names not found: " + ", ".join(traced["missing"]))
    return mismatched, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/tddslicer/__init__.py", "tests/bruteforce.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a tddslicer checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        pool, setups, results = measure(args.workload, args.seed, args.seconds, args.trace,
                                        workdir)
        attempted, failed, e2e, notes, first, latencies = evaluate(
            args.workload, pool, setups, results)
        if args.trace:
            mismatched, metrics, trace_notes = evaluate_trace(
                args.workload, pool, results, first, latencies)
            failed += mismatched
            notes += trace_notes
            units = {name: _layer_unit(name) for name in metrics}
        else:
            metrics, units = e2e, END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    for name, value in e2e.items():
        print(f"{name}: {value:.6g} {END_TO_END_UNITS[name]}")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_per_s"):
        return "1/s"
    if suffix in ("check_ratio", "points_per_check", "runs_per_replay", "checks_per_replay"):
        return "ratio"
    if suffix.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
