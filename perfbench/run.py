"""Pipeline benchmark of the eprdistill CLI on the loss-factor-20 scenario.

    python3 perfbench/run.py --workload sweep-n6 --seed 1 --seconds 20 --trace 0

Runs whole rounds of CLI calls until `--seconds` have passed, then checks
every output against the independent references in reference.py.  Each call
runs in its own fresh worker process (worker.py), one at a time, as a
user's shell runs the CLI.  With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` the workers install spans around the program's
public functions and it reports per-layer metrics instead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

A worker that exits non-zero, dies or times out, and an output that a
check cannot read, count as failed calls; the run still reports.  Without
the program's source next to perfbench/ the run stops with exit code 2
before any call.

Calls take their interpreter hash seed from the fixed panel HASH_SEEDS in
turn, not a random one per process: the hash seed changes the allocation
pattern of the imports, and with it glibc's malloc thresholds and the
program's speed.

BLAS runs with its default thread count: nothing here sets a *_NUM_THREADS
variable, and any such variable inherited from the caller is reported on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAM = HERE.parent / "src" / "eprdistill" / "cli.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HASH_SEEDS = tuple(range(8))
WORKER_TIMEOUT_S = 120


@dataclass
class Record:
    call: workloads.Call
    round_no: int
    path: Path
    worker: dict


def run_worker(argv: list[str], trace: int, hash_seed: int) -> dict:
    """The worker's report; a worker that fails gives one with code != 0."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps({"argv": argv, "trace": trace}),
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode == 0:
            return json.loads(done.stdout.splitlines()[-1])
        code, stderr = done.returncode, f"worker exited with {done.returncode}: {done.stderr[-3000:]}"
    except subprocess.TimeoutExpired:
        code, stderr = -1, f"worker timed out after {WORKER_TIMEOUT_S} s"
    except (ValueError, IndexError) as exc:  # no JSON report on stdout
        code, stderr = -1, f"unreadable worker report: {exc!r}"
    return {"code": code, "stderr": stderr, "seconds": time.perf_counter() - start,
            "setup_s": None, "peak_rss_mb": None, "spans": []}


def run_rounds(plan, seconds: float, trace: int, outdir: Path) -> list[Record]:
    """Whole rounds of calls until `seconds` of wall time have passed."""
    records = []
    start = time.perf_counter()
    for round_no, calls in enumerate(plan):
        for i, call in enumerate(calls):
            hash_seed = HASH_SEEDS[i % len(HASH_SEEDS)]
            path = outdir / f"{len(records):04d}{call.suffix}"
            worker = run_worker([*call.argv, "--output", str(path)], trace, hash_seed)
            records.append(Record(call, round_no, path, worker))
        if time.perf_counter() - start >= seconds:
            return records


def verify(workload: str, records: list[Record]) -> tuple[list[int], int, bool]:
    """Items per call (0 if it failed), failed calls, and whether outputs were right.

    A call fails on a non-zero exit, a skipped gain, or a check error; an
    output the check cannot read is a check error.  Calls with the same
    arguments in one round must write identical bytes.
    """
    from checks import CHECKS

    items, failed, correct = [], 0, True
    first_bytes = {}
    for rec in records:
        problems = []
        if rec.worker["code"] != 0:
            problems.append(f"exit code {rec.worker['code']}")
        if "skipped" in rec.worker["stderr"]:
            problems.append("skipped a gain")
        count = 0
        if not problems:
            try:
                count, errors = CHECKS[workload](rec.call, rec.path)
                data = rec.path.read_bytes()
            except Exception as exc:  # a malformed output fails its call, not the run
                count, errors = 0, [f"unreadable output: {type(exc).__name__}: {exc}"]
            else:
                if first_bytes.setdefault((rec.round_no, rec.call.argv), data) != data:
                    errors.append("same arguments, different bytes")
            if errors:
                correct = False
            problems += errors
        if problems:
            failed += 1
            count = 0
            print(f"call {rec.path.name} failed: {'; '.join(problems[:5])} "
                  f"{rec.worker['stderr'].strip()}", file=sys.stderr)
        items.append(count)
    return items, failed, correct


def merged_spans(records: list[Record]) -> list[dict]:
    """All workers' spans in one list, parent indices shifted to match."""
    spans = []
    for rec in records:
        offset = len(spans)
        for span in rec.worker["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"no program to measure: {PROGRAM} is missing", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        if var in os.environ:
            print(f"inherited {var}={os.environ[var]}", file=sys.stderr)

    outdir = HERE / "out" / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.plan(args.workload, args.seed)
        records = run_rounds(plan, args.seconds, args.trace, outdir)
        items, failed, correct = verify(args.workload, records)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    seconds = [rec.worker["seconds"] for rec in records]
    print(f"{args.workload}: {len(records)} calls, seconds per call "
          f"{[round(s, 3) for s in seconds]}", file=sys.stderr)
    if args.trace:
        from spans import layer_metrics

        metrics = layer_metrics(merged_spans(records))
    else:
        # Workers that died report no set-up time or memory.
        setups = [r.worker["setup_s"] for r in records if r.worker["setup_s"] is not None]
        rss = [r.worker["peak_rss_mb"] for r in records if r.worker["peak_rss_mb"] is not None]
        metrics = {
            "items_per_s": (sum(items) / sum(seconds), "items/s"),
            "setup_s": (statistics.median(setups or [0.0]), "s"),
            "peak_rss_mb": (max(rss or [0.0]), "MB"),
        }
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
