"""Tests of the benchmark itself: oracles, span recorder, seeded inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from liefact import Field, Matrix, deform, iso, liecore, matched  # noqa: E402

FAR_DEADLINE = float("inf")


def _m4_job(p=3):
    return workloads._scenario_job("m4-index", p)


def _wrong_scenario_result(result):
    checks = [dataclasses.replace(c, actual=c.actual + 1) if c.name == "index" else c
              for c in result.checks]
    return dataclasses.replace(result, checks=checks)


# -- oracles ----------------------------------------------------------------------


def test_scenario_oracle_accepts_right_and_rejects_injected_wrong_answer():
    job = _m4_job()
    result = job.run()
    assert job.check(result) is None
    assert "expected" in job.check(_wrong_scenario_result(result))


def test_wrong_answer_counts_as_failed_in_a_pass():
    job = _m4_job()
    wrong = _wrong_scenario_result(job.run())
    bad = dataclasses.replace(job, run=lambda: wrong)
    raw, scaled, failures = worker.run_pass([job, bad], FAR_DEADLINE)
    assert len(raw) == len(scaled) == 2 and all(t > 0 for t in scaled)
    assert len(failures) == 1 and failures[0].startswith(bad.name)


def test_raising_capped_and_unreadable_jobs_count_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "JOB_CAP_S", 0.05)

    def hang():
        while True:
            pass

    def boom():
        raise ValueError("broken")

    jobs = [workloads.Job("hang", hang, lambda a: None),
            workloads.Job("boom", boom, lambda a: None),
            workloads.Job("garbage", lambda: None, _m4_job().check)]
    _, _, failures = worker.run_pass(jobs, FAR_DEADLINE)
    assert [f.split(":")[0] for f in failures] == ["hang", "boom", "garbage"]
    assert "cap" in failures[0] and "ValueError" in failures[1]
    assert "unreadable" in failures[2]


def test_sweep_oracle_rejects_missing_and_foreign_maps():
    f = workloads.SWEEP_FIELD
    mp = matched.canonical_pair_m(2, f)
    job = workloads._sweep_job("m", mp, 53)
    maps = [deform.DeformationMap(mp, m) for m in sorted(workloads._closed_form_maps("m"), key=repr)]
    assert job.check(maps) is None
    assert "expected 53" in job.check(maps[1:])
    foreign = deform.DeformationMap(mp, Matrix(f, [[1, 1, 1, 1, 1]]))
    assert not deform.is_deformation_map(mp, foreign.matrix)
    assert "differ" in job.check(maps[1:] + [foreign])


def test_autgroup_oracles_reject_a_missing_triple_and_a_wrong_product():
    jobs = {j.name.split("@")[0]: j for j in workloads.build("autgroup-sl2", 1)}
    triples_job = jobs["aut-triples"]
    triples = triples_job.run()
    assert triples_job.check(triples) is None
    assert "expected 48" in triples_job.check(triples[:-1])
    last = triples[-1]
    shifted = dataclasses.replace(last, h0=(last.h0[0] + 1,) + tuple(last.h0[1:]))
    assert triples_job.check(triples[:-1] + [shifted]) is not None
    law = jobs[f"group-law-t{workloads.GROUP_LAW_ROWS[0]}"]
    products = law.run()
    assert law.check(products) is None
    (alpha, h0, v), rhs = products[7]
    wrong = products[:7] + [(((alpha + 1) % 3, h0, v), rhs)] + products[8:]
    assert "expected" in law.check(wrong)


def test_invariants_oracle_rejects_a_changed_answer():
    rng = random.Random(5)
    name = "L(4)"
    _, alg = workloads.invariants_inputs(rng)[name]
    job = workloads._invariants_job(name, "der", alg)
    answer = job.run()
    assert job.check(answer) is None
    assert job.check(answer + 1) is not None


# -- seeded inputs ------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_basis_same_invariants():
    a = workloads.invariants_inputs(random.Random(7))
    b = workloads.invariants_inputs(random.Random(7))
    c = workloads.invariants_inputs(random.Random(8))
    assert all(a[n][0] == b[n][0] and a[n][1] == b[n][1] for n in a)
    assert any(a[n][0] != c[n][0] for n in a)
    for name in ("sl2", "L(4)"):
        p, alg = c[name]
        assert p.is_invertible() and not alg.same_brackets(workloads.ALGEBRAS[name](workloads.Q))
        assert workloads.invariants(alg) == workloads._canonical_invariants(name)
    assert [j.name for j in workloads.build("index-n1", 3)] == \
        [j.name for j in workloads.build("index-n1", 3)]


# -- span recorder ------------------------------------------------------------------


def _originals():
    return {(owner, attr): owner.__dict__[attr]
            for targets, _ in spans.LAYERS.values() for owner, attr in targets}


def test_wrappers_are_gone_after_a_traced_run():
    before = _originals()
    imported = deform.are_isomorphic
    recorder = spans.Recorder()
    with recorder.installed():
        assert deform.are_isomorphic is not imported
        assert (deform, "are_isomorphic") in recorder.patched_attributes()
        assert Matrix.__dict__["rref"] is not before[(Matrix, "rref")]
        _, _, failures = worker.run_pass([_m4_job()], FAR_DEADLINE, recorder)
    assert not failures
    assert _originals() == before
    assert deform.are_isomorphic is imported is iso.are_isomorphic
    assert liecore.LieAlgebra.__dict__["bracket"] is before[(liecore.LieAlgebra, "bracket")]
    assert not recorder.patched_attributes()


def test_self_times_add_up_and_counts_repeat():
    counts = []
    for _ in range(2):
        recorder = spans.Recorder()
        with recorder.installed():
            worker.run_pass([_m4_job(5)], FAR_DEADLINE, recorder)
        s = recorder.summary()
        total = s[spans.ROOT_GROUP]["total_s"]
        assert sum(g["self_s"] for g in s.values()) == pytest.approx(total, rel=1e-9)
        assert s["iso.search"]["calls"] > 0 and s["deform.candidate"]["calls"] > 0
        counts.append({g: (r["calls"], r["work"], r["tags"]) for g, r in s.items()})
    assert counts[0] == counts[1]


def test_nested_calls_of_one_layer_fold_into_one_span():
    f = Field.gf(5)
    m = Matrix(f, [[1, 2], [3, 4]])
    recorder = spans.Recorder()
    with recorder.installed(), recorder.span():
        m.inverse()  # calls rref inside
    s = recorder.summary()
    assert s["exactmath.elim"]["calls"] == 1
    assert s["exactmath.elim"]["work"] == 4


# -- command ------------------------------------------------------------------------


def test_run_fails_without_liefact_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "index-n1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    recorder = spans.Recorder()
    with recorder.installed():
        worker.run_pass([_m4_job()], FAR_DEADLINE, recorder)
    layers = worker.layer_metrics(spans, recorder, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layers.items()}
    record = {"pass_norm_s": [1.0], "setup_norm_s": 0.1, "peak_rss_mib": 20.0}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in run.metrics_of(record, 0).items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
