"""Tests of the benchmark's own code: job generation, references, gate and metric names."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_byte_identical_job_list_and_inputs(workload, tmp_path):
    for seed in (0, 1, 17):
        first, second = tmp_path / f"a{seed}", tmp_path / f"b{seed}"
        jobs.write_job_list(jobs.generate(workload, seed), first)
        jobs.write_job_list(jobs.generate(workload, seed), second)
        assert _tree(first) == _tree(second)
    assert _tree(tmp_path / "a0") != _tree(tmp_path / "a1")


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_seed_keeps_the_composition(workload):
    shapes = {tuple(sorted(j.subcommand for j in jobs.generate(workload, seed)))
              for seed in range(20)}
    assert len(shapes) == 1


def test_references_are_exactly_the_catalog_jobs_without_a_documented_defect():
    expected = {job.key for job in jobs.catalog() if not job.known_defect}
    assert set(gate.load_references()) == expected


def test_known_defect_job_is_in_every_exact_linalg_list():
    for seed in range(20):
        defects = [j for j in jobs.generate("exact-linalg", seed) if j.known_defect]
        assert len(defects) == 1
        assert defects[0].argv[0] == "toric" and "--paving" in defects[0].argv


def test_gate_classifies_outputs():
    references = gate.load_references()
    job = jobs.SETUP_JOB
    assert gate.judge(job, 0, b"{}", "", references)[0] == gate.WRONG
    assert gate.judge(job, 1, b"", "error: boom\n", references)[0] == gate.FAIL
    defect = next(j for j in jobs.catalog() if j.known_defect)
    assert gate.judge(defect, 1, b"", f"error: {defect.known_defect}\n", references)[0] \
        == gate.KNOWN_DEFECT
    assert gate._holds({"certificates": []}, ("verified",))  # C5 has no torsion primes
    fixed = {"even": True, "poincare": [1, 0, 7], "cell_count": 8}
    assert gate.judge(defect, 0, json.dumps(fixed).encode(), "", references)[0] == gate.PASS
    assert gate.judge(defect, 0, json.dumps(dict(fixed, even=False)).encode(), "",
                      references)[0] == gate.WRONG


def test_every_check_is_known():
    names = {c[0] for job in jobs.catalog() for c in job.checks}
    assert names <= {"agreement", "golden", "verified", "even", "poincare", "cells",
                     "radical", "stratum_rank"}


def test_benchmark_json_names_the_reported_metrics():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == {name for name, _, _ in run.END_TO_END} | {"setup_s"}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {name for name, _, _ in tracing.LAYER_METRICS} | {"trace.overhead_s"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(jobs.WORKLOADS)


def test_host_speed_is_the_mean_over_samples_near_the_job(tmp_path):
    ref = run.PROBE_REF_S
    samples = tmp_path / "probe.txt"
    samples.write_text(f"10.0 {ref}\n10.5 {2 * ref}\n20.0 {ref / 2}\n20.3 0",
                       encoding="utf-8")  # the probe was stopped in the middle of the last line
    host = run.HostSpeed(samples)
    assert host.during(10.2, 10.4) == pytest.approx(0.75)  # samples at 10.0 and 10.5
    assert host.during(19.6, 19.8) == pytest.approx(2.0)  # only the sample at 20.0
    assert host.during(15.0, 15.1) == pytest.approx(1.25)  # none near: the nearest two
