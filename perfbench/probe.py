"""Host-speed probe: times a fixed piece of pure-Python work, over and over.

    python3 perfbench/probe.py > samples.txt

Each sample is one line, "start cpu": the sample's start in
`time.perf_counter()` seconds (the monotonic clock, shared by every process
on the host) and the CPU time the work took.  A pause follows each sample, so
the probe takes about a tenth of one CPU.  `run.py` pins itself, the probe and
every job to one CPU and scales each job's time by the speed of that CPU over
the job's interval, as these samples give it.  CPU time, not wall time: the
probe shares the CPU with a job, and the time it waits for its turn says
nothing about the CPU's speed.  The work is fixed and does not touch liepar,
so a change to liepar cannot move it.  The probe ends when its parent does.
"""

from __future__ import annotations

import os
import sys
import time

PAUSE_S = 0.2


def work() -> int:
    """Dict, tuple and integer work in the interpreter, about 15 ms on a 2 GHz Xeon."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(30000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
        total += (i * 2654435761) % 1000003
    return total + len(table)


def main() -> None:
    parent = os.getppid()
    out = sys.stdout
    while os.getppid() == parent:
        start = time.perf_counter()
        cpu = time.thread_time()
        work()
        out.write(f"{start!r} {time.thread_time() - cpu!r}\n")
        out.flush()
        time.sleep(PAUSE_S)


if __name__ == "__main__":
    main()
