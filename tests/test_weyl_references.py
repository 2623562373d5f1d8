"""The output of every `liepar` subcommand is byte-identical to the
benchmark's recorded references.

Replays, in process, every job of the benchmark catalog
(`perfbench/jobs.py`, certificates included), the full E6 enumeration
(13 MB of JSON) among them, and compares the SHA-256 of its stdout with
`perfbench/references.json`.  All jobs share one process, so root systems
and weight systems cached by one job are reused by the next; a cache that
changed an answer would show here.  The `toric` and `intform` jobs read
their input files from a temporary directory.  The
catalog's chain-of-7 pavings have no recorded output (they were documented
as failing: the old height-grid search could not find their support
function), so their paving invariants are checked instead.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liepar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _jobs_module():
    spec = importlib.util.spec_from_file_location("liepar_perfbench_jobs", PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # its dataclasses look their module up
    spec.loader.exec_module(jobs)
    return jobs


JOBS = _jobs_module()
CATALOG = JOBS.catalog()
WEYL_JOBS = [job.argv for job in CATALOG if job.subcommand == "weyl"]
CHARACTER_JOBS = [job.argv for job in CATALOG if job.subcommand in ("char", "golden")]
TORIC_JOBS = [job for job in CATALOG if job.subcommand == "toric"]
TORSION_JOBS = [job.argv for job in CATALOG if job.subcommand == "torsion"]
OTHER_SUBCOMMANDS = ("rootsys", "intform", "nilpotent", "schurweyl")
OTHER_JOBS = [job for job in CATALOG if job.subcommand in OTHER_SUBCOMMANDS]
REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))


def _assert_matches_reference(argv, capsys, monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    assert cli.main(list(argv)) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == REFERENCES[" ".join(argv)]["sha256"]


@pytest.mark.parametrize("argv", WEYL_JOBS, ids=" ".join)
def test_weyl_output_matches_reference(argv, capsys, monkeypatch):
    _assert_matches_reference(argv, capsys, monkeypatch)


@pytest.mark.parametrize("argv", CHARACTER_JOBS, ids=" ".join)
def test_character_output_matches_reference(argv, capsys, monkeypatch):
    _assert_matches_reference(argv, capsys, monkeypatch)


@pytest.mark.parametrize("argv", TORSION_JOBS, ids=" ".join)
def test_torsion_output_matches_reference(argv, capsys, monkeypatch):
    _assert_matches_reference(argv, capsys, monkeypatch)


@pytest.mark.parametrize("job", TORIC_JOBS, ids=lambda job: job.key)
def test_toric_output_matches_reference(job, capsys, monkeypatch, tmp_path):
    JOBS.write_inputs([job], tmp_path)
    monkeypatch.chdir(tmp_path)
    if job.key in REFERENCES:
        _assert_matches_reference(job.argv, capsys, monkeypatch)
        return
    assert job.known_defect
    assert cli.main(list(job.argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["poincare"] == [1, 0, 7]
    assert doc["even"] is True
    assert doc["cell_count"] == 8


@pytest.mark.parametrize("job", OTHER_JOBS, ids=lambda job: job.key)
def test_other_output_matches_reference(job, capsys, monkeypatch, tmp_path):
    JOBS.write_inputs([job], tmp_path)
    monkeypatch.chdir(tmp_path)
    _assert_matches_reference(job.argv, capsys, monkeypatch)


def test_every_catalog_subcommand_is_replayed():
    replayed = {"weyl", "char", "golden", "torsion", "toric", *OTHER_SUBCOMMANDS}
    assert {job.subcommand for job in CATALOG} == replayed
