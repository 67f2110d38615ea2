"""One workload in one fresh process: set up, run passes, check every answer.

run.py starts this file and reads the JSON object it prints as its last
line.  With --setup-only the worker stops once its inputs are ready and
reports only its set-up time, measured from --spawned-at, the parent's
monotonic clock just before it started this process.

Untraced (--trace 0): passes run back to back while the next one is expected
to end within --seconds; at least one pass runs.  Traced (--trace 1): one
untraced pass, then one pass with the span recorder installed.  Every job
runs under a wall-clock cap; a job that hits it, raises, or gives an answer
its oracle rejects counts as failed, and no further pass starts.

Host speed.  Shared hosts can change speed by up to 2x within seconds, with
process CPU time equal to wall time, so raw pass times of the same code can
spread by 10-40 % between runs.  A fixed pure-Python workload (`probe`) runs
before the first job and after every job; each job's time is also reported
scaled by REF_PROBE_S over the mean of the two probes around it, which is
the time the job would take on a host where the probe takes REF_PROBE_S.
The probe calls no liefact code, so a faster or slower program moves the
scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"

# a job that runs longer has failed
JOB_CAP_S = 60.0
# the worker gives up on new work this long after it started, so that the
# parent's 180 s limit is never reached
DEADLINE_S = 150.0
# about what `probe` takes in the fast phase of the 2-core 2.0 GHz Intel Xeon
# host the bounds were measured on
REF_PROBE_S = 0.010


class _Box:
    """A boxed residue, shaped like the kernel's per-element scalars."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __add__(self, other):
        return _Box((self.v + other.v) % 7)

    def __mul__(self, other):
        return _Box(self.v * other.v % 7)


def probe() -> float:
    """Seconds a fixed pure-Python workload takes now: the host's current speed.

    Half is products of 6x6 matrices of boxed residues, which allocate and
    dispatch the way the exact kernel does; half is a plain integer loop.
    On a noisy host the first tracks the GF(p) workloads best and the second
    the Fraction-heavy one, so the probe runs both.
    """
    t0 = time.perf_counter()
    rows = [tuple(_Box(3 * i + j) for j in range(6)) for i in range(6)]
    for _ in range(20):
        cols = list(zip(*rows))
        rows = [tuple(sum((a * b for a, b in zip(r, c)), _Box(0)) for c in cols) for r in rows]
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` on a host where the probe takes REF_PROBE_S."""
    return seconds * 2 * REF_PROBE_S / (before + after)


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


@contextmanager
def _cap(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(jobs, deadline: float, recorder=None) -> tuple:
    """Run every job once; return (raw seconds, scaled seconds, failure messages)."""
    raw, norm, failures = [], [], []
    before = probe()
    for job in jobs:
        cap = min(JOB_CAP_S, deadline - time.monotonic())
        answer, failure = None, None
        t0 = time.perf_counter()
        try:
            with _cap(cap), (recorder.span() if recorder else nullcontext()):
                answer = job.run()
        except JobTimeout:
            failure = f"exceeded its {cap:.1f} s cap"
        except Exception:  # a broken job is a missing answer; keep the run going
            failure = f"raised\n{traceback.format_exc()}"
        elapsed = time.perf_counter() - t0
        after = probe()
        raw.append(elapsed)
        norm.append(scaled(elapsed, before, after))
        before = after
        if failure is None:
            try:
                failure = job.check(answer)
            except Exception:  # an answer of the wrong shape is a wrong answer
                failure = f"unreadable answer\n{traceback.format_exc()}"
        if failure is not None:
            failures.append(f"{job.name}: {failure}")
    return raw, norm, failures


def _import_benchmark():
    """Import liefact from this checkout's src/, then the benchmark modules."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import liefact

    if Path(liefact.__file__).resolve().parent != SRC / "liefact":
        raise SystemExit(f"imported liefact from {liefact.__file__}, not from {SRC}")
    import spans
    import workloads

    return workloads, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    workloads, spans = _import_benchmark()
    jobs = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    setup_probe_s = probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    pass_s, pass_norm_s, failures = [], [], []
    attempted = 0
    window = time.monotonic()
    while True:
        raw, norm, failed = run_pass(jobs, deadline)
        pass_s.append(sum(raw))
        pass_norm_s.append(sum(norm))
        attempted += len(jobs)
        failures += failed
        if failures or args.trace:
            break
        if time.monotonic() - window + statistics.median(pass_s) > args.seconds:
            break
    # ru_maxrss is in KiB on Linux; read before the recorder allocates spans
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "pass_s": pass_s,
        "pass_norm_s": pass_norm_s,
        "peak_rss_mib": peak_rss_mib,
        "jobs": [job.name for job in jobs],
    }
    if args.trace and not failures:
        recorder = spans.Recorder()
        with recorder.installed():
            _, traced, failed = run_pass(jobs, deadline, recorder)
        attempted += len(jobs)
        failures += failed
        out["layers"] = layer_metrics(spans, recorder, sum(traced) - pass_norm_s[0])
        SPANS_DIR.mkdir(exist_ok=True)
        out["spans_file"] = str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        recorder.write(out["spans_file"])
    out.update(attempted=attempted, failed=len(failures), failures=failures)
    print(json.dumps(out))
    return 0


def layer_metrics(spans, recorder, overhead_s: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    s = recorder.summary()
    m = {}

    def calls_self(group):
        m[f"{group}.calls"] = (s[group]["calls"], "calls")
        m[f"{group}.self_s"] = (s[group]["self_s"], "s")

    calls_self("exactmath.elim")
    m["exactmath.elim.cells"] = (s["exactmath.elim"]["work"], "cells")
    calls_self("exactmath.matmul")
    m["exactmath.matmul.mults"] = (s["exactmath.matmul"]["work"], "mults")
    calls_self("liecore.bracket")
    m["liecore.series.self_s"] = (s["liecore.series"]["self_s"], "s")
    calls_self("liecore.forms")
    calls_self("derivations.solve")

    candidates, candidate_s = recorder.child_stats("deform.candidate", "deform.sweep")
    accepted = s["deform.sweep"]["work"]
    m["deform.candidates"] = (candidates, "candidates")
    m["deform.accepted"] = (accepted, "maps")
    m["deform.accept_ratio"] = (accepted / candidates if candidates else 0.0, "ratio")
    m["deform.candidate_us"] = (1e6 * candidate_s / candidates if candidates else 0.0, "us")
    m["deform.candidate.self_s"] = (s["deform.candidate"]["self_s"], "s")
    m["deform.sweep.self_s"] = (s["deform.sweep"]["self_s"], "s")
    calls_self("deform.r_deformation")
    m["deform.classify.self_s"] = (s["deform.classify"]["self_s"], "s")

    calls_self("iso.fingerprint")
    search = s["iso.search"]
    tags = search["tags"]
    yes = tags.get(spans.TAG_YES, 0)
    no_exhausted = tags.get(spans.TAG_NO_EXHAUSTED, 0)
    unknown = tags.get(spans.TAG_UNKNOWN, 0)
    searches = yes + no_exhausted + unknown
    calls_self("iso.search")
    m["iso.search.yes"] = (yes, "calls")
    m["iso.search.no_fp"] = (tags.get(spans.TAG_NO_FP, 0), "calls")
    m["iso.search.no_exhausted"] = (no_exhausted, "calls")
    m["iso.search.unknown"] = (unknown, "calls")
    m["iso.search.nodes"] = (search["work"], "nodes")
    m["iso.search.nodes_per_s"] = (
        search["work"] / search["total_s"] if search["total_s"] else 0.0, "1/s")
    m["iso.search.wasted_ratio"] = (no_exhausted / searches if searches else 0.0, "ratio")
    m["iso.aut_enumerate.self_s"] = (s["iso.aut_enumerate"]["self_s"], "s")
    calls_self("iso.aut_multiply")
    m["iso.aut_triples.self_s"] = (s["iso.aut_triples"]["self_s"], "s")
    m["scenarios.run.self_s"] = (s["scenarios.run"]["self_s"], "s")
    m["trace.unattributed_s"] = (s[spans.ROOT_GROUP]["self_s"], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


if __name__ == "__main__":
    sys.exit(main())
