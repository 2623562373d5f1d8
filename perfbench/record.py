"""Record the reference output of every catalog job.

    python3 perfbench/record.py

Runs each job of `jobs.catalog()` once against the sources in `src/` and
writes the SHA-256 and length of its stdout to `references.json`.  Run it
only on a commit whose outputs are known good; a job that fails, other
than as its documented defect, stops the recording.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import gate
from jobs import catalog, write_inputs

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work" / "record"


def _run(job, env):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "liepar.cli", *job.argv], cwd=WORKDIR, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, timeout=600)
    return job, proc, time.perf_counter() - start


def main() -> int:
    jobs = catalog()
    write_inputs(jobs, WORKDIR)
    env = {k: v for k, v in os.environ.items() if k != "LIEPAR_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    references, problems = {}, []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for job, proc, wall in pool.map(lambda j: _run(j, env), jobs):
            print(f"{wall:8.3f} s  rc {proc.returncode}  liepar {job.key}", flush=True)
            if proc.returncode == 0 and not job.known_defect:
                references[job.key] = gate.reference_entry(proc.stdout)
            elif not (job.known_defect and job.known_defect in proc.stderr.decode()):
                problems.append(f"liepar {job.key}: exit {proc.returncode}: {proc.stderr[-300:]!r}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    gate.REFERENCES.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"recorded {len(references)} reference outputs in {gate.REFERENCES.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
