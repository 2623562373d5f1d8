"""Correctness gate: recorded reference outputs plus invariants that need none.

A job passes when it exits 0, its stdout is byte-identical to the output
recorded for it (`references.json`), and every invariant listed with it holds.
Jobs with a documented defect have no recorded output; their invariants
decide, so a fix turns them into passes without re-recording.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from jobs import Job

REFERENCES = Path(__file__).with_name("references.json")

PASS = "pass"
KNOWN_DEFECT = "known-defect"  # failed exactly as documented for the job
FAIL = "fail"  # nonzero exit
WRONG = "wrong"  # exit 0 with output that differs from the reference or breaks an invariant


def load_references() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def reference_entry(stdout: bytes) -> dict:
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def _stratum(doc: dict, label: str) -> dict:
    return next(s for s in doc["strata"] if s["label"] == label)


def _holds(doc: dict, check: tuple) -> bool:
    name, *args = check
    if name == "agreement":
        return doc["agreement"] is True
    if name == "golden":
        return doc["passed"] is True and not doc["failures"]
    if name == "verified":  # C5 has no torsion primes, so no certificates
        return all(c["verified"] is True for c in doc["certificates"])
    if name == "even":
        return doc["even"] is True
    if name == "poincare":
        return doc["poincare"] == args[0]
    if name == "cells":
        return sum(doc["poincare"]) == doc["cell_count"]
    if name == "radical":
        return all(s["rank_fp"] + s["radical_dimension"] == s["size"] for s in doc["strata"])
    if name == "stratum_rank":
        label, rank_q, rank_fp = args
        stratum = _stratum(doc, label)
        return stratum["rank_q"] == rank_q and stratum["rank_fp"] == rank_fp
    raise ValueError(f"unknown check {name!r}")


def judge(job: Job, returncode: int, stdout: bytes, stderr: str,
          references: dict[str, dict]) -> tuple[str, str]:
    """Classify one finished job as (status, detail)."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        if job.known_defect and returncode == 1 and job.known_defect in stderr:
            return KNOWN_DEFECT, last[0]
        return FAIL, f"exit {returncode}: {last[0]}"
    if not job.known_defect:
        expected = references.get(job.key)
        if expected is None:
            return WRONG, "no recorded reference output"
        if reference_entry(stdout) != expected:
            return WRONG, "stdout differs from the recorded reference"
    if job.checks:
        try:
            doc = json.loads(stdout)
            broken = [c[0] for c in job.checks if not _holds(doc, tuple(c))]
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            return WRONG, f"unreadable document: {exc!r}"
        if broken:
            return WRONG, "invariant failed: " + ", ".join(broken)
    return PASS, ""
