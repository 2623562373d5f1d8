"""`liepar weyl`, `char` and `golden` output is byte-identical to the
benchmark's recorded references.

Replays, in process, every `weyl` job of the benchmark catalog
(`perfbench/jobs.py`) except the large E6, D6 and A6 ones, and every `char`
job and `golden`, and compares the SHA-256 of its stdout with
`perfbench/references.json`.  All jobs share one process, so root systems
and weight systems cached by one job are reused by the next; a cache that
changed an answer would show here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liepar import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SKIPPED_TYPES = {"E6", "D6", "A6"}  # covered by the benchmark's own gate


def _catalog():
    spec = importlib.util.spec_from_file_location("liepar_perfbench_jobs", PERFBENCH / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # its dataclasses look their module up
    spec.loader.exec_module(jobs)
    return jobs.catalog()


CATALOG = _catalog()
WEYL_JOBS = [job.argv for job in CATALOG
             if job.subcommand == "weyl" and job.argv[2] not in SKIPPED_TYPES]
CHARACTER_JOBS = [job.argv for job in CATALOG if job.subcommand in ("char", "golden")]
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
