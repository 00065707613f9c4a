"""One fresh process running one workload: set-up, timed rounds, checks.

Started by run.py, never imported. It prints one JSON record on stdout; the
CLI's own output goes to a sink and never reaches that stream.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

from tracing import Tracer, layer_totals

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
RESULTS = ROOT / "bench" / "results"
MODULES = {"chain-causes": "chain_causes", "sparse-join": "sparse_join", "fd-repairs": "fd_repairs"}
MIN_ROUNDS = 2


def reference_loop() -> int:
    """Fixed pure-Python work of the kind whydb does (dict, tuple, str and
    frozenset operations), a few milliseconds long. Timed right before and
    right after each operation, it tracks how fast the machine runs Python
    at that moment."""
    table: dict = {}
    total = 0
    for i in range(3000):
        key = (i % 97, str(i % 89))
        table[key] = table.get(key, 0) + 1
        total += len(frozenset((i & 31, i & 7, i % 5)))
    return total + len(table)


class Sink:
    """Stands in for stdout: hashes the bytes written to it, and copies them
    to `copy`, a binary file, if one is given."""

    def __init__(self, copy=None):
        self._hash = hashlib.blake2b()
        self._copy = copy

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self._hash.update(data)
        if self._copy is not None:
            self._copy.write(data)
        return len(text)

    def flush(self) -> None:
        pass

    def digest(self) -> str:
        return self._hash.hexdigest()


def _call(main, argv, out, err) -> int | None:
    """One CLI invocation with a fresh argv; None if it raised."""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return main(list(argv))
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            print(f"{type(exc).__name__}: {exc}", file=err)
            return None


def _verify(ops, outdir: Path) -> list[str]:
    """Run every output check on the warm-up outputs kept in `outdir`;
    return one message per failed check."""
    problems = []
    values = {}
    for op in ops:
        checked = values.get(op.group)
        try:
            # The second form of a command reads its output and must equal
            # the first; the checks on the value have already run.
            text = (outdir / op.name).read_text(encoding="utf-8")
            value = op.verify(text, check=checked is None)
        except Exception as exc:
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
            continue
        if checked is not None and checked != value:
            problems.append(f"{op.name}: text and JSON forms disagree")
        values.setdefault(op.group, value)
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--proc", type=int, default=0)
    args = parser.parse_args()

    setup_refs = [_timed_reference()]
    sys.path.insert(0, str(ROOT / "src"))
    from whydb.cli import main as whydb_main

    workload = importlib.import_module(MODULES[args.workload])
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ops, makeup = workload.build(args.seed, workdir)
        problems = []
        digests = {}
        # An operation that fails is counted in `failed`, not a wrong output.
        failed_ops = {}
        # The benchmark's own memory high-water mark before whydb runs.
        base_rss_mb = _peak_rss_mb()
        # The warm-up outputs go to files, so that no worker holds them in
        # memory; the checks read them back once the timed loop is over.
        outdir = workdir / "out"
        outdir.mkdir()
        for op in ops:  # untimed warm-up pass; its output is what gets checked
            setup_refs.append(_timed_reference())
            err = io.StringIO()
            with (outdir / op.name).open("wb") as copy:
                out = Sink(copy)
                if _call(whydb_main, op.argv, out, err) != 0:
                    failed_ops[op.name] = err.getvalue().strip()[-300:]
            digests[op.name] = out.digest()
        setup_s = time.perf_counter() - _START

        rng = random.Random(f"order/{args.seed}/{args.proc}")
        tracer = Tracer()
        # Per operation: (seconds, mean of the reference loops timed right
        # before and right after it).
        samples = {op.name: [] for op in ops}
        traced = {op.name: [] for op in ops}
        attempted = failed = rounds = traced_runs = 0
        index = {op.name: i for i, op in enumerate(ops)}
        start = time.perf_counter()
        round_s = 0.0
        # Whole rounds only; stop when the next round would likely end more
        # than half a round past the target.
        while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s / 2 < args.seconds:
            round_start = time.perf_counter()
            order = list(ops)
            rng.shuffle(order)
            tracing = bool(args.trace) and rounds % 2 == 1
            if tracing:
                tracer.install()
            pending = None
            for op in order + [None]:
                gc.collect()
                ref = _timed_reference()
                if pending is not None:
                    name, seconds, before = pending
                    (traced if tracing else samples)[name].append((seconds, (before + ref) / 2))
                    pending = None
                if op is None:
                    break
                sink, err = Sink(), io.StringIO()
                call = partial(tracer.run, index[op.name], whydb_main) if tracing else whydb_main
                t0 = time.perf_counter()
                rc = _call(call, op.argv, sink, err)
                seconds = time.perf_counter() - t0
                attempted += 1
                traced_runs += tracing
                if rc != 0:
                    failed += 1
                    failed_ops.setdefault(op.name, err.getvalue().strip()[-300:])
                    continue
                if sink.digest() != digests[op.name]:
                    problems.append(f"{op.name}: output differs between repetitions")
                pending = (op.name, seconds, ref)
            if tracing:
                tracer.uninstall()
            rounds += 1
            round_s = time.perf_counter() - round_start
        timed_s = time.perf_counter() - start
        # Read before the checks, whose parsing would raise the mark.
        rss_mb = _peak_rss_mb()

        check_start = time.perf_counter()
        if args.check:
            problems += _verify([op for op in ops if op.name not in failed_ops], outdir)
        check_s = time.perf_counter() - check_start
        record = {
            "setup_s": setup_s,
            "setup_ref_s": statistics.median(setup_refs),
            "timed_s": timed_s,
            "check_s": check_s,
            "rounds": rounds,
            "attempted": attempted,
            "failed": failed,
            "failed_ops": failed_ops,
            "problems": problems[:20],
            "rss_mb": rss_mb,
            "base_rss_mb": base_rss_mb,
            "digests": digests,
            "samples": samples,
            "makeup": makeup,
        }
        if args.trace:
            record["traced"] = traced
            record["traced_runs"] = traced_runs
            record["layers"] = layer_totals(tracer.spans)
            RESULTS.mkdir(parents=True, exist_ok=True)
            spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}-p{args.proc}.jsonl"
            with spans_file.open("w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps({
                        "op": ops[span.op].name, "layer": span.layer, "name": span.name,
                        "parent": span.parent, "start_ns": span.start_ns, "end_ns": span.end_ns,
                        "returned": span.returned}) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
