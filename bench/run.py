"""whydb benchmark: seeded workloads, each in fresh single-threaded processes.

    python3 bench/run.py --workload chain-causes --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                          # every workload, seed 1, run_seconds
    python3 bench/run.py --steadiness 10          # seeds 1..10, quartiles per metric

A run starts PROCESSES fresh worker processes one after another; --seconds
defaults to run_seconds in BENCHMARK.json. Each worker sets up (imports
whydb, generates the seed's inputs, writes them, runs every operation once
untimed), then times whole rounds of every operation for its share of
--seconds, calling `whydb.cli.main(argv)` in-process with stdout going to a
hashing sink. Timings are reported at reference speed (see REF_MS). With
--trace 0 the end-to-end metrics are printed; with --trace 1 every other
round runs with tracing wrappers installed and the per-layer metrics are
printed. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. An operation that fails is counted
in failed and left out of the metrics; correct speaks of the outputs of the
operations that did not fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TIME_LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
RESULTS = ROOT / "bench" / "results"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("chain-causes", "sparse-join", "fd-repairs")
PROCESSES = 3
# A worker's time beyond its share of --seconds: set-up, the round that
# overruns the share, and the checks.
WORKER_SLACK_S = 45.0
# Every timing is taken at reference speed: wall time divided by the mean of
# the reference loops timed right before and after it, times REF_MS. So
# values read as milliseconds on a machine whose reference loop takes
# REF_MS, and the machine's speed drift cancels out.
REF_MS = 3.0
END_TO_END = {
    "latency_gm_ms": "ms", "slowest_op_ms": "ms", "throughput_ops_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.load_ms": "ms", "query.parse_ms": "ms", "query.ground_ms": "ms",
    "query.eval_ms": "ms", "repair.search_ms": "ms", "repair.enumerated": "count",
    "repair.kept_ratio": "ratio", "causality.assemble_ms": "ms", "cli.render_ms": "ms",
    "asp.emit_ms": "ms", "trace.overhead_ms": "ms",
}
LAYER_OF = {f"{layer}_ms": layer for layer in TIME_LAYERS}


class BenchError(Exception):
    pass


def _gm(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _workers(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    deadline = time.monotonic() + seconds + PROCESSES * WORKER_SLACK_S
    env = dict(os.environ, PYTHONHASHSEED="0")
    records = []
    for proc in range(PROCESSES):
        cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds / PROCESSES), "--trace", str(trace),
               "--check", "1" if proc == 0 else "0", "--proc", str(proc)]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: worker {proc} ran out of time") from None
        if done.returncode != 0:
            raise BenchError(f"{workload}: worker {proc} exited {done.returncode}:\n"
                             f"{done.stderr.strip()[-2000:]}")
        records.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return records


def _at_reference_ms(sample) -> float:
    seconds, reference = sample
    return seconds / reference * REF_MS


def _end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """Metric values and the samples behind each, over the operations that
    did not fail."""
    pooled = {n: [s for r in records for s in r["samples"][n]] for n in records[0]["samples"]}
    pooled = {n: v for n, v in pooled.items() if v}
    if not pooled:
        raise BenchError("no operation succeeded")
    names = list(pooled)
    ms = {n: statistics.median(map(_at_reference_ms, v)) for n, v in pooled.items()}
    wall = {n: statistics.median(s[0] for s in v) * 1000 for n, v in pooled.items()}
    slowest = max(ms, key=ms.get)
    setups = [r["setup_s"] / r["setup_ref_s"] * REF_MS / 1000 for r in records]
    values = {
        "latency_gm_ms": _gm(ms.values()),
        "slowest_op_ms": ms[slowest],
        "throughput_ops_s": len(ms) * 1000 / sum(ms.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    per_op = min(len(v) for v in pooled.values())
    counts = {
        "latency_gm_ms": f"{len(names)} ops, median of >= {per_op} runs each; "
                         f"wall {_gm(wall.values()):.2f} ms",
        "slowest_op_ms": f"{slowest}, median of {len(pooled[slowest])} runs; "
                         f"wall {wall[slowest]:.2f} ms",
        "throughput_ops_s": f"one round of {len(ms)} ops at their median times",
        "setup_s": f"median of {len(records)} processes; wall "
                   f"{statistics.median(r['setup_s'] for r in records):.3f} s",
        "peak_rss_mb": f"max of {len(records)} processes, read before the checks; "
                       f"{max(r['base_rss_mb'] for r in records):.2f} MB before whydb's first call",
    }
    return values, counts


def _per_layer(records: list[dict]) -> tuple[dict, dict]:
    """Self times per operation at reference speed: each worker's span
    totals are scaled by the median reference loop of its traced rounds."""
    runs = sum(r["traced_runs"] for r in records)
    refs = [[s[1] for v in r["traced"].values() for s in v] for r in records]
    if not all(refs):
        raise BenchError("no traced operation succeeded")
    scales = [REF_MS / 1000 / statistics.median(ref) for ref in refs]
    values = {
        metric: sum(r["layers"]["self_ns"][layer] * k for r, k in zip(records, scales)) / runs / 1e6
        for metric, layer in LAYER_OF.items()
    }
    enumerated = sum(r["layers"]["enumerated"] for r in records)
    kept = sum(r["layers"]["kept"] for r in records)
    overhead = []
    for name in records[0]["samples"]:
        plain = [_at_reference_ms(s) for r in records for s in r["samples"][name]]
        traced = [_at_reference_ms(s) for r in records for s in r["traced"][name]]
        if plain and traced:
            overhead.append(statistics.median(traced) - statistics.median(plain))
    values["repair.enumerated"] = enumerated / runs
    values["repair.kept_ratio"] = kept / enumerated if enumerated else 0.0
    values["trace.overhead_ms"] = statistics.fmean(overhead)
    counts = {m: f"self time per op, {runs} traced ops" for m in LAYER_OF}
    counts["repair.enumerated"] = f"S-repairs per op, {runs} traced ops"
    counts["repair.kept_ratio"] = f"{kept} kept / {enumerated} enumerated"
    counts["trace.overhead_ms"] = f"mean over {len(overhead)} ops of traced - untraced median"
    return values, counts


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload, as the result object and its details."""
    records = _workers(workload, seed, seconds, trace)
    problems = [p for r in records for p in r["problems"]]
    if any(r["digests"] != records[0]["digests"] for r in records):
        problems.append("output differs between processes")
    values, counts = (_per_layer if trace else _end_to_end)(records)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "counts": counts,
        "problems": problems,
        "failed_ops": {o: m for r in records for o, m in r["failed_ops"].items()},
        "rounds": [r["rounds"] for r in records],
        "wall": [f"{r['setup_s']:.1f}+{r['timed_s']:.1f}+{r['check_s']:.1f}s" for r in records],
        "makeup": records[0]["makeup"],
    }


def _print_run(workload: str, seed: int, result: dict) -> None:
    print(f"{workload}  seed {seed}  rounds per process {result['rounds']}  "
          f"wall per process {result['wall']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for row in result["makeup"]:
        print("  input " + "  ".join(f"{k}={v}" for k, v in row.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:22} {metric['value']:14.4f} {metric['unit']:6} ({result['counts'][name]})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for op, message in sorted(result["failed_ops"].items()):
        print(f"  failed: {op}: {message}")


def _public(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def steadiness(workloads, seeds, seconds: float, trace: int) -> None:
    """Rerun each workload once per seed and print, per metric, the median,
    the quartiles and the quartile spread as a share of the median and of
    the metric's bound in BENCHMARK.json."""
    bounds = {m["name"]: m["bound"] for m in json.loads(SPEC.read_text())["end_to_end"]}
    RESULTS.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        runs = []
        for seed in seeds:
            result = run_workload(workload, seed, seconds, trace)
            _print_run(workload, seed, result)
            runs.append({"seed": seed, **_public(result)})
        print(f"{workload}: {len(runs)} runs, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
        for name in runs[0]["metrics"]:
            q1, median, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            share = f"{spread / bound:7.2f}" if bound and not trace else "      -"
            print(f"  {name:22} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {share}")
        out = RESULTS / f"steadiness-{workload}-trace{trace}.json"
        out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="whydb benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run every chosen workload on seeds SEED..SEED+N-1")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "whydb" / "cli.py").is_file():
        print(f"error: no whydb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.steadiness:
            steadiness(workloads, range(args.seed, args.seed + args.steadiness),
                       args.seconds, args.trace)
            return 0
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace)
            _print_run(workload, args.seed, results[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(_public(results[workloads[0]])))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {w: _public(r) for w, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
