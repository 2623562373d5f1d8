"""liepar benchmark: seeded lists of CLI jobs, one fresh process per job.

    python3 perfbench/run.py --workload char-heavy --seed 1 --seconds 30 --trace 0

Jobs run one after another (a closed loop with one client).  A run first
runs one untimed job per subcommand (bytecode compilation, cold caches) and
a few set-up samples, then repeats timed passes over the seed's job list
while another pass fits in --seconds, and reports medians over passes.
With --trace 1, untraced and traced passes alternate, and the run reports
the per-layer metrics of `tracing.py` plus the tracing overhead.

The host's speed drifts by a quarter or more over seconds to minutes, so
every time is reported in reference seconds.  The run pins itself, its jobs
and `probe.py` to one CPU; the probe samples that CPU's speed for the whole
run, and each job's time is multiplied by the CPU's speed over that job's
interval relative to PROBE_REF_S (the probe's CPU time on a reference host).
Raw times stay in the result file.

Every job's output goes through the correctness gate in `gate.py`.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median

import gate
import tracing
from jobs import SETUP_JOB, WARMUP, WORKLOADS, Job, generate, write_inputs, write_job_list

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).with_name("tracing.py")
PROBE = Path(__file__).with_name("probe.py")
# A job's speed is the mean speed of the probe samples that start within
# PROBE_PAD_S of its run, where speed is PROBE_REF_S over the sample's CPU
# time.  PROBE_REF_S is the probe's usual CPU time on a 2-vCPU Xeon host, so
# reference seconds are close to that host's seconds at its usual speed.
PROBE_REF_S = 0.018
PROBE_PAD_S = 0.25
DEADLINE_S = 170.0  # a run must end within 180 s
# Set-up samples: a few before the passes, then one between jobs at most
# every SETUP_EVERY_S, so that their median covers the host's state over
# the whole run and not one moment of it.
SETUP_FIRST = 10
SETUP_EVERY_S = 1.0


@dataclass
class JobResult:
    job: Job
    start: float  # time.perf_counter()
    wall_s: float
    cpu_s: float
    rss_mib: float
    status: str
    detail: str
    output_bytes: int
    speed: float = 1.0  # host speed during the job, relative to the reference host

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed


# (metric, unit, read from the job results of one pass)
END_TO_END = [
    ("wall_s", "s", lambda rs: sum(r.ref_wall_s for r in rs)),
    ("cpu_s", "s", lambda rs: sum(r.cpu_s * r.speed for r in rs)),
    ("slowest_job_s", "s", lambda rs: max(r.ref_wall_s for r in rs)),
    ("peak_rss_mib", "MiB", lambda rs: max(r.rss_mib for r in rs)),
    ("pass_frac", "ratio", lambda rs: sum(r.status == gate.PASS for r in rs) / len(rs)),
]


class HostSpeed:
    """The host's speed over time, read from the probe's samples."""

    def __init__(self, samples: Path):
        pairs = []
        # the last piece is empty, or a line the probe was stopped in the middle of
        for line in samples.read_text(encoding="utf-8").split("\n")[:-1]:
            start, cpu = map(float, line.split())
            pairs.append((start, PROBE_REF_S / cpu))
        self.starts = [start for start, _ in pairs]
        self.speeds = [speed for _, speed in pairs]

    def during(self, start: float, end: float) -> float:
        i = bisect_left(self.starts, start - PROBE_PAD_S)
        j = bisect_right(self.starts, end + PROBE_PAD_S)
        if i == j:  # no sample near the job: take the nearest ones
            i, j = max(0, i - 1), min(len(self.speeds), j + 1)
        return fmean(self.speeds[i:j])


class Session:
    """Runs jobs as child processes, each reaped with its own rusage, and keeps every result."""

    def __init__(self, workdir: Path, deadline: float, sample_setup: bool):
        self.workdir = workdir
        self.deadline = deadline
        self.references = gate.load_references()
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("LIEPAR_BUDGET", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPATH"] = str(SRC)
        self.timed_out = False
        self.results: list[JobResult] = []
        self.setup: list[JobResult] = []
        self.sampling = sample_setup
        self.next_setup = float("inf")

    def run(self, job: Job, spans: Path | None = None) -> JobResult:
        if spans is None:
            cmd = [sys.executable, "-m", "liepar.cli", *job.argv]
        else:
            cmd = [sys.executable, str(TRACER), str(spans), job.key, *job.argv]
        with open(self.workdir / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - start), self._expire, (proc,))
            watchdog.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        verdict, detail = gate.judge(job, proc.returncode, stdout, stderr, self.references)
        result = JobResult(job, start, wall, usage.ru_utime + usage.ru_stime,
                           usage.ru_maxrss / 1024.0, verdict, detail, len(stdout))
        self.results.append(result)
        return result

    def _expire(self, proc: subprocess.Popen) -> None:
        self.timed_out = True
        proc.kill()

    def sample_setup(self) -> None:
        self.setup.append(self.run(SETUP_JOB))
        self.next_setup = time.perf_counter() + SETUP_EVERY_S

    def run_pass(self, jobs: list[Job], spans_dir: Path | None = None) -> list[JobResult] | None:
        """One pass over the job list; None if the deadline cut it short."""
        results = []
        for i, job in enumerate(jobs):
            if self.timed_out:
                return None
            results.append(self.run(job, None if spans_dir is None else spans_dir / f"{i}.json"))
            if self.sampling and time.perf_counter() >= self.next_setup:
                self.sample_setup()
        return None if self.timed_out else results


def _stamp() -> dict:
    sha = None
    if (ROOT / ".git").exists():  # a checkout without .git may sit inside another repository
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": list(os.getloadavg())}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    if not (SRC / "liepar" / "cli.py").is_file():
        print(f"error: no liepar sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    # One CPU for everything, so that the probe measures the CPU the jobs run
    # on: the two CPUs of a shared host can run at different speeds.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(workdir / "probe.txt", "wb") as samples:
        probe = subprocess.Popen([sys.executable, str(PROBE)], stdin=subprocess.DEVNULL,
                                 stdout=samples)
        try:
            return _measure(args, started, workdir)
        finally:
            probe.terminate()
            probe.wait()


def _measure(args: argparse.Namespace, started: float, workdir: Path) -> int:
    stamp = _stamp()
    jobs = generate(args.workload, args.seed)
    write_job_list(jobs, workdir)
    write_inputs(WARMUP, workdir)
    session = Session(workdir, started + DEADLINE_S, sample_setup=not args.trace)

    for job in WARMUP:
        session.run(job)
    for _ in range(SETUP_FIRST if session.sampling else 0):
        session.sample_setup()

    # Untraced passes, alternating with traced ones in trace mode; another
    # pass starts only while it is expected to end within --seconds.
    timed: list[list[JobResult]] = []
    traced: list[tuple[list[JobResult], Path]] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    kinds = [False, True] if args.trace else [False]
    measure_start = time.perf_counter()
    turn = 0
    while True:
        with_spans = kinds[turn % len(kinds)]
        spans_dir = workdir / "spans" / f"pass{len(traced)}" if with_spans else None
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        results = session.run_pass(jobs, spans_dir)
        if results is None:
            print(f"error: the run hit its {DEADLINE_S:.0f} s deadline", file=sys.stderr)
            return 1
        durations[with_spans].append(time.perf_counter() - t0)
        (traced.append((results, spans_dir)) if with_spans else timed.append(results))
        turn += 1
        estimate = median(durations[kinds[turn % len(kinds)]] or durations[with_spans])
        if turn >= len(kinds) and time.perf_counter() - measure_start + estimate > args.seconds:
            break

    host = HostSpeed(workdir / "probe.txt")
    if not host.speeds:
        print("error: the host-speed probe gave no samples", file=sys.stderr)
        return 1
    # every speed is still 1 here, so these are the raw times
    raw = {name: median(read(p) for p in timed) for name, _, read in END_TO_END}
    for r in session.results:
        r.speed = host.during(r.start, r.start + r.wall_s)
    e2e = {name: median(read(p) for p in timed) for name, _, read in END_TO_END}
    if args.trace:
        layer_passes = []
        for results, spans_dir in traced:
            records = [json.loads((spans_dir / f"{i}.json").read_text()) for i in range(len(results))]
            layer_passes.append(tracing.summarize_pass(records, sum(r.output_bytes for r in results)))
        values = tracing.median_metrics(layer_passes)
        traced_wall = median(sum(r.ref_wall_s for r in results) for results, _ in traced)
        values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = dict(e2e, setup_s=median(r.ref_wall_s for r in session.setup))
        units = {name: unit for name, unit, _ in END_TO_END}
    units["trace.overhead_s" if args.trace else "setup_s"] = "s"
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    passes = timed + [results for results, _ in traced]
    bad = [r for r in session.results if r.status not in (gate.PASS, gate.KNOWN_DEFECT)]
    defects = {r.job.key: r for r in session.results if r.status == gate.KNOWN_DEFECT}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **stamp,
        "jobs_per_pass": len(jobs), "timed_passes": len(timed), "traced_passes": len(traced),
        "run_s": time.perf_counter() - started, "metrics": metrics, "end_to_end": e2e,
        "end_to_end_raw": raw, "probe_ref_s": PROBE_REF_S, "cpus": sorted(os.sched_getaffinity(0)),
        "probe_speed": {"median": median(host.speeds), "min": min(host.speeds),
                        "max": max(host.speeds), "samples": len(host.speeds)},
        "setup_samples": [{"wall_s": r.wall_s, "speed": r.speed} for r in session.setup],
        "passes": [[{"argv": r.job.key, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "speed": r.speed,
                     "rss_mib": r.rss_mib, "status": r.status, "detail": r.detail}
                    for r in p] for p in passes],
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"stamp": stamp, "results": str(out.relative_to(ROOT))}))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{len(timed)} untraced and {len(traced)} traced passes, host speed "
          f"{median(host.speeds):.3f} of the reference (range {min(host.speeds):.3f}-"
          f"{max(host.speeds):.3f}); times in reference seconds, raw wall_s {raw['wall_s']:.3f} s")
    for r in bad:
        print(f"  {r.status}: liepar {r.job.key}: {r.detail}")
    for r in defects.values():
        print(f"  known defect: liepar {r.job.key}: {r.detail}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(len(p) for p in passes),
        "failed": sum(r.status != gate.PASS for p in passes for r in p),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
