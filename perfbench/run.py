"""liefact benchmark: run a workload, check its answers, print its metrics.

    python3 perfbench/run.py --workload index-n1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

liefact is imported from src/ of the checkout this file sits in.  Each
workload runs in fresh single-threaded worker processes, one at a time: one
that sets up and measures (see worker.py), with SETUP_REPS - 1 processes that
only set up, half before it and half after.

--trace 0 reports the end-to-end metrics:
  pass_norm_s   median over passes of the pass time, host-scaled (worker.py)
  setup_s       median over the SETUP_REPS processes of process start to
                inputs ready, host-scaled by a probe run just before the
                spawn and one run by the worker just after its set-up
  peak_rss_mib  peak RSS of the measuring worker
--trace 1 reports the per-layer metrics of a traced pass (see spans.py).

A table of the metrics, and every failure, goes to standard error; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --workload all the workloads run in an order
rotated by the seed and the metric names carry the workload as a prefix.

Exit status: 0 when every answer is right, 1 when an answer is wrong or
missing or a worker dies, 2 on bad arguments or a checkout without liefact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import probe, scaled

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PACKAGE = HERE.parent / "src" / "liefact" / "__init__.py"

WORKLOADS = ("index-n1", "sweep-n2", "autgroup-sl2", "invariants-q")
SETUP_REPS = 7
# one run of this command must end within 180 s; the worker stops starting
# work 150 s after it starts
RUN_LIMIT_S = 175.0


class WorkerDied(Exception):
    pass


def _spawn(args: list, timeout: float) -> dict:
    """Run one worker process to completion and parse its last output line."""
    # a fixed hash seed keeps set and dict orders, and so the counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_probe_s = probe()
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise WorkerDied(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerDied(f"worker exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_norm_s"] = scaled(record["setup_s"], spawn_probe_s, record["setup_probe_s"])
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up samples plus one measuring worker; returns the worker's record."""
    started = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    # set-up samples before and after the measurement, so they span host phases
    before = (SETUP_REPS - 1) // 2
    setups = [_spawn(base + ["--setup-only"], 60.0) for _ in range(before)]
    record = _spawn(base, RUN_LIMIT_S - (time.monotonic() - started))
    setups += [_spawn(base + ["--setup-only"], 60.0) for _ in range(SETUP_REPS - 1 - before)]
    setups.append(record)
    record["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    record["setup_norm_s"] = statistics.median(r["setup_norm_s"] for r in setups)
    return record


def metrics_of(record: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in record["layers"].items()}
    return {
        "pass_norm_s": {"value": statistics.median(record["pass_norm_s"]), "unit": "s"},
        "setup_s": {"value": record["setup_norm_s"], "unit": "s"},
        "peak_rss_mib": {"value": record["peak_rss_mib"], "unit": "MiB"},
    }


def report(workload: str, record: dict) -> None:
    """The end-to-end metrics, and the per-layer ones of a traced run, as a table."""
    err = sys.stderr
    ratio = record["failed"] / record["attempted"]
    print(f"== {workload}: {len(record['pass_s'])} untraced pass(es) of "
          f"{len(record['jobs'])} jobs; failed_ratio {ratio:.4g} "
          f"({record['failed']}/{record['attempted']}); unscaled: pass "
          f"{statistics.median(record['pass_s']):.4g} s, setup {record['setup_s']:.4g} s",
          file=err)
    tables = [metrics_of(record, 0)] + ([metrics_of(record, 1)] if "layers" in record else [])
    for metrics in tables:
        for name, m in metrics.items():
            print(f"   {name:30s} {m['value']:>16.6g} {m['unit']}", file=err)
    if "spans_file" in record:
        print(f"   spans written to {record['spans_file']}", file=err)
    for failure in record["failures"]:
        print(f"   FAILED {failure}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not PACKAGE.is_file():
        print(f"error: no liefact sources at {PACKAGE.parent}", file=sys.stderr)
        return 2

    if args.workload == "all":
        k = args.seed % len(WORKLOADS)
        order = WORKLOADS[k:] + WORKLOADS[:k]
    else:
        order = (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in order:
        try:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerDied as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        report(workload, record)
        got = metrics_of(record, args.trace) if "layers" in record or not args.trace else {}
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
