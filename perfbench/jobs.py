"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of slots.  Each slot holds a pool of jobs of
about the same cost; the seed picks one job per slot and the order of the
list.  So every seed runs the same mix of work, and every job any seed can
pick belongs to a finite catalog whose reference outputs are recorded in
`references.json` (see `record.py`).

The program receives only the generated argv and input files: nothing here
imports liepar.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

WORKLOADS = ("char-heavy", "weyl-cosets", "exact-linalg", "cli-light")


@dataclass(frozen=True)
class Job:
    """One `liepar` command line, its input files and its correctness checks."""

    argv: tuple[str, ...]
    inputs: tuple[tuple[str, str], ...] = ()  # (file name, text) written beside the job
    checks: tuple[tuple, ...] = ()  # invariants on the JSON document, see gate.py
    known_defect: str = ""  # stderr text of a documented failure of this job

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _input(stem: str, data) -> tuple[str, str]:
    """A content-addressed input file, so the argv names its content."""
    text = json.dumps(data, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"{stem}-{digest}.json", text


# --- root-system types --------------------------------------------------

TYPES_RANK_LE_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
ROOTSYS_EMITS = ("roots", "coroots", "minuscule", "h-dual", "fundamental-group", "all")
SETUP_JOB = Job(("rootsys", "--type", "A1", "--emit", "h-dual"))


# --- characters -----------------------------------------------------------

def _cert(t: str) -> Job:
    return Job(("char", "--type", t, "--certify-generation"), checks=(("verified",),))


def _tensor(t: str, pair: str) -> Job:
    return Job(("char", "--type", t, "--tensor", pair))


def _exterior(t: str, spec: str) -> Job:
    return Job(("char", "--type", t, "--exterior", spec))


# Pools keep each slot's cost within a narrow band and every weight system
# under the default weight budget (E8 Lambda^2 w1 is over it).
TENSOR_POOLS = {
    "E6": [("E6", "w1,w6"), ("E6", "w2,w2"), ("E6", "w1,w3"), ("E6", "w1,w1")],
    "E7": [("E7", "w1,w7"), ("E7", "w6,w7"), ("E7", "w1,w1"), ("E7", "w7,w7")],
    "E8": [("E8", "w8,w8"), ("E8", "w1,w8"), ("E8", "w7,w8"), ("E8", "w1,w1")],
    "F4": [("F4", "w1,w4"), ("F4", "w3,w4"), ("F4", "w4,w4"), ("F4", "w1,w1")],
    "G2": [("G2", "w2,w2"), ("G2", "3w1,2w2"), ("G2", "w1,2w1"), ("G2", "2w2,2w2")],
    "BCD": [("B4", "w1,w4"), ("C4", "w2,w3"), ("D5", "w4,w5"), ("B4", "w4,w4"),
            ("D5", "w1,w5"), ("C4", "w1,w4")],
}
EXTERIOR_POOLS = {
    "E6": [("E6", "w1^3"), ("E6", "w2^2"), ("E6", "w1^2"), ("E6", "w6^3")],
    "E7": [("E7", "w7^2"), ("E7", "w7^3"), ("E7", "w1^2")],
    "E8": [("E8", "w8^2")],
    "F4": [("F4", "w4^3"), ("F4", "w1^2"), ("F4", "w4^2"), ("F4", "w3^2")],
    "G2": [("G2", "w1^3"), ("G2", "w2^2"), ("G2", "w1^4"), ("G2", "w2^3")],
    "BCD": [("B4", "w4^3"), ("C4", "w1^3"), ("D5", "w1^4"), ("B4", "w1^3"), ("D5", "w5^2")],
}


def _char_heavy_slots() -> list[list[Job]]:
    slots = [[_cert(t)] for t in ("E6", "E7", "E8", "F4", "G2", "B4", "C4", "D5")]
    slots.append([Job(("golden",), checks=(("golden",),))])
    slots += [[_tensor(*p) for p in pool] for pool in TENSOR_POOLS.values()]
    slots += [[_exterior(*p) for p in pool] for pool in EXTERIOR_POOLS.values()]
    return slots


# --- Weyl groups ----------------------------------------------------------

# (type, I, J, sum over double cosets of |W_I|*|W_J|), measured with
# `generate_parabolic` and `double_quotient_reps`.  Stratum work grows with
# that sum and with |W_I| and |W_J| (E6 with I=1,3,4,5,6 and J=1..5 sums to
# 6.9e6 and takes 38 s), so every pool below caps it.
WEYL_STRATA = [
    ("D6", "1,3,4,5,6", "1,4,5,6", 221184), ("D6", "2,3,4,5,6", "1,2,5,6", 230400),
    ("D6", "1,2,3,4,5", "1,3,4,6", 241920), ("D6", "1,2,3,4,6", "1,2,3,5", 241920),
    ("D6", "1,2,3,4,5", "1,2,3,6", 241920), ("D6", "1,2,3,4,6", "1,3,4,5", 241920),
    ("D6", "1,2,4,5,6", "3,4,5,6", 248832),
    ("D6", "1,4", "4", 24576), ("D6", "3,4,6", "1", 27648), ("D6", "4,5", "2,6", 27648),
    ("D6", "1,3,4,6", "2", 28416), ("D6", "5", "1,2,3,4", 30720),
    ("D6", "1,3,5,6", "1,2", 32256), ("D6", "2,3", "1,4,5", 32832),
    ("D6", "1,2,3,5", "3,6", 34944), ("D6", "1,2,4,5", "4,6", 38016),
    ("A6", "1,4", "4", 5520), ("A6", "3,4,6", "1", 6000), ("A6", "4,5,6", "3,5", 8064),
    ("A6", "1,2", "1,2,6", 8208), ("A6", "1,3,4", "1,2,6", 9648),
    ("A6", "1,2,4", "2,3,4", 12384), ("A6", "1,2,6", "1,4,5,6", 14400),
    ("B5", "", "2,3", 3840), ("B5", "3,5", "2,4", 4224), ("B5", "1,5", "1,2,4", 4608),
    ("B5", "1,2,4,5", "1", 4800), ("B5", "2,3", "2,3", 5760), ("B5", "1,3", "3,4,5", 6144),
    ("B5", "1,2,5", "1,2,5", 7200), ("B5", "1,2", "2,3,4", 8064),
    ("C5", "", "2,3", 3840), ("C5", "3", "2,4", 4224), ("C5", "2", "1,3,4", 4608),
    ("C5", "1", "3,4,5", 4992), ("C5", "1,2,5", "1,5", 5376), ("C5", "1,4,5", "3,5", 6080),
    ("C5", "4,5", "1,2,5", 6528), ("C5", "3,4", "3,4,5", 8064),
    ("A5", "", "2,3", 720), ("A5", "3", "2,4", 816), ("A5", "2,3,5", "1", 912),
    ("A5", "1,2,5", "1,5", 1152), ("A5", "2,3", "2,3", 1224), ("A5", "1,4,5", "3,4", 1368),
    ("A5", "1,2,4", "1,4,5", 1728), ("A5", "3,4", "1,2,3,4", 2880),
    ("D5", "", "2,3", 1920), ("D5", "3", "2,4", 2112), ("D5", "1,2,4,5", "1", 2400),
    ("D5", "4,5", "1,2,5", 2688), ("D5", "2,3", "2,3", 2880), ("D5", "1,3", "3,4,5", 3072),
    ("D5", "1,2,4", "1,2,5", 3888), ("D5", "3,5", "1,3,4,5", 4320),
    ("F4", "1,2,3", "", 1152), ("F4", "3,4", "1,2", 1152), ("F4", "2", "1,3,4", 1248),
    ("F4", "1,3", "2", 1248), ("F4", "2,4", "1,3", 1360), ("F4", "1,2", "1,3,4", 1440),
    ("F4", "1,4", "2,3", 1536), ("F4", "1,2,4", "1,2,4", 2448),
]


def _weyl(t: str, I: str, J: str, emit: str) -> Job:
    argv = ["weyl", "--type", t]
    if I:
        argv += ["--I", I]
    if J:
        argv += ["--J", J]
    return Job(tuple(argv + ["--emit", emit]))


def _weyl_pool(t: str, low: int, high: int, emits=("reps", "poincare")) -> list[Job]:
    return [_weyl(t, I, J, emit) for (tt, I, J, products) in WEYL_STRATA
            if tt == t and low <= products <= high for emit in emits]


def _weyl_cosets_slots() -> list[list[Job]]:
    slots = [
        [_weyl("E6", "", "", "reps")],  # all of W(E6): 214 MiB and 13 MB of JSON
        _weyl_pool("D6", 200_000, 250_000, ("poincare",)),  # large parabolics
        # reps only: the poincare jobs of these strata take 1.3-1.5 times as
        # long, so which of the two a seed picked would move the pass time
        _weyl_pool("D6", 0, 40_000, ("reps",)),
    ]
    slots += [_weyl_pool(t, 0, 20_000) for t in ("A6", "B5", "C5", "A5", "D5", "F4")]
    return slots


# --- exact linear algebra ---------------------------------------------------

def _neg_cartan_a(n: int) -> list[list[int]]:
    return [[-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n)]
            for i in range(n)]


def _cartan_check(n: int, p: int) -> tuple:
    """-Cartan(A_n) has determinant +-(n+1): rank n over Q, n-1 over F_p when p | n+1."""
    return ("stratum_rank", f"-cartan(A{n})", n, n - 1 if (n + 1) % p == 0 else n)


def _intform(k: int, p: int, sizes: tuple[int, ...], bound: int) -> Job:
    """Random symmetric integer forms drawn from pool member k, plus -Cartan(A_n).

    Forms alternate between full random symmetric matrices and Gram
    matrices B^T B of a random (3/4 size) x size matrix B, whose radical
    is nonzero.
    """
    rng = random.Random(f"intform:{k}:{sizes}:{bound}")
    forms = []
    for idx, size in enumerate(sizes):
        rows = [[0] * size for _ in range(size)]
        if idx % 2 == 0:
            for i in range(size):
                for j in range(i, size):
                    rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        else:
            b = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(3 * size // 4)]
            for i in range(size):
                for j in range(i, size):
                    rows[i][j] = rows[j][i] = sum(r[i] * r[j] for r in b)
        forms.append({"label": f"random{idx}", "n": size, "rows": rows})
    n = 4 + k % 9
    forms.append({"label": f"-cartan(A{n})", "n": n, "rows": _neg_cartan_a(n)})
    name, text = _input("forms", {"forms": forms})
    return Job(("intform", "--in", name, "--p", str(p)), ((name, text),),
               checks=(("radical",), _cartan_check(n, p)))


def _chain_fans(n: int) -> tuple[dict, dict]:
    """Resolution of the A_n surface singularity: a chain of n P^1s."""
    tau = {"rank": 2, "rays": [[1, 0], [1, n + 1]], "cones": [[0, 1]]}
    fan = {"rank": 2, "rays": [[1, i] for i in range(n + 2)],
           "cones": [[i, i + 1] for i in range(n + 1)]}
    return fan, tau


def _chain_paving(n: int, seed: int, known_defect: str = "") -> Job:
    fan, tau = _chain_fans(n)
    f, t = _input("fan", fan), _input("tau", tau)
    return Job(("toric", "--fan", f[0], "--tau", t[0], "--paving", "--seed", str(seed)),
               (f, t), checks=(("even",), ("poincare", [1, 0, n]), ("cells",)),
               known_defect=known_defect)


SQUARE_RAYS = [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]
SQUARE_TAU = {"rank": 3, "rays": SQUARE_RAYS, "cones": [[0, 1, 2, 3]]}


def _primitive(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v]


def _square_subdivision(depth: int, variant: int) -> dict:
    """Star subdivisions of the square cone.

    The first step subdivides at the body ray (1,1,1), which splits the
    square into four simplicial cones; each further step subdivides one
    simplicial cone at the sum of its rays, which lies in its interior.
    """
    rays = SQUARE_RAYS + [[1, 1, 1]]
    cones = [[0, 1, 4], [1, 3, 4], [3, 2, 4], [2, 0, 4]]
    for step in range(1, depth):
        a, b, c = cones.pop((variant + 3 * step) % len(cones))
        rays.append(_primitive([x + y + z for x, y, z in zip(rays[a], rays[b], rays[c])]))
        v = len(rays) - 1
        cones += [[a, b, v], [b, c, v], [a, c, v]]
    return {"rank": 3, "rays": rays, "cones": [sorted(c) for c in cones]}


def _square_paving(depth: int, variant: int) -> Job:
    f, t = _input("fan", _square_subdivision(depth, variant)), _input("tau", SQUARE_TAU)
    return Job(("toric", "--fan", f[0], "--tau", t[0], "--paving"), (f, t),
               checks=(("even",), ("cells",)))


# The grid search in `strictly_convex_support` needs heights up to
# n(n+1)/2 on a chain of n P^1s; from n = 7 that exceeds its bound of 24
# and it reports a false InfeasibleError.  The job stays in every list.
CHAIN_DEFECT_N = 7
CHAIN_DEFECT = "no strictly convex support function"


def _torsion_both_pool(types: tuple[str, ...]) -> list[Job]:
    return [Job(("torsion", "--type", t, "--method", "both", "--emit", emit), checks=checks)
            for t in types
            for emit, checks in (("primes", (("agreement",),)),
                                 ("certificates", (("agreement",), ("verified",))))]


def _exact_linalg_slots() -> list[list[Job]]:
    return [
        [_chain_paving(CHAIN_DEFECT_N, s, CHAIN_DEFECT) for s in range(4)],
        [Job(("schurweyl", "--d", "8", "--p", "3"))],
        [Job(("schurweyl", "--d", "7", "--p", str(p))) for p in (2, 3, 5)],
        _torsion_both_pool(("B5", "C5")),
        _torsion_both_pool(("D5", "F4")),
        [_intform(k, p, (48, 40, 56), 9) for k in range(8) for p in (2, 3, 5)],
        [_intform(k, p, (32, 28), 30) for k in range(8, 16) for p in (2, 3, 7)],
        [_chain_paving(n, s) for n in (4, 5, 6) for s in range(3)],
        [_square_paving(2, v) for v in (0, 2, 3)],
    ]


# --- quick commands ---------------------------------------------------------

def _cli_light_slots() -> list[list[Job]]:
    slots = [
        [Job(("rootsys", "--type", t, "--emit", ROOTSYS_EMITS[i % len(ROOTSYS_EMITS)]))
         for t in TYPES_RANK_LE_8]
        for i in range(14)
    ]
    nilpotent = [Job(("nilpotent", "--partition", ",".join(map(str, lam)), "--n", str(n)))
                 for n in range(4, 9) for lam in _partitions(n)]
    slots += [nilpotent] * 4
    torsion_fast = [Job(("torsion", "--type", t, "--method", "fast")) for t in TYPES_RANK_LE_8]
    slots += [torsion_fast] * 4
    small_char = [_tensor(t, p) for t, p in (("A2", "w1,w2"), ("B2", "w1,w2"), ("G2", "w1,w1"),
                                             ("A3", "w1,w3"), ("B3", "w3,w3"), ("C3", "w1,w2"))]
    small_char += [_exterior(t, s) for t, s in (("A3", "w1^2"), ("B3", "w1^2"), ("G2", "w1^2"),
                                                ("A4", "w2^2"), ("C3", "w2^2"))]
    slots += [small_char] * 4
    small_weyl = [_weyl(t, I, J, emit) for t, I, J in (
        ("A2", "", ""), ("A3", "1", "3"), ("A3", "2", ""), ("B2", "1", "2"), ("B3", "1", "2"),
        ("B3", "", "3"), ("C3", "2,3", "1"), ("G2", "1", ""), ("A4", "1,2", "3,4"),
        ("D4", "2", "1,3,4")) for emit in ("reps", "poincare")]
    slots += [small_weyl] * 3
    # a fixed job several times longer than the rest, so that slowest_job_s
    # follows one command rather than the noisiest of forty
    slots.append(_torsion_both_pool(("F4",))[:1])
    slots += [_toric_validate_pool()] * 2
    slots += [_toric_subdivide_pool()] * 2
    small_forms = [_small_forms(n, p) for n in range(2, 9) for p in (2, 3, 5, 7)]
    slots += [small_forms] * 3
    specht = [Job(("schurweyl", "--d", "4", "--p", str(p), "--emit", e))
              for p in (2, 3, 5) for e in ("dims", "gram")]
    slots += [specht] * 3
    return slots


def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, cap), 0, -1) for rest in _partitions(n - k, k)]


def _small_forms(n: int, p: int) -> Job:
    name, text = _input("forms", {"label": f"-cartan(A{n})", "n": n, "rows": _neg_cartan_a(n)})
    return Job(("intform", "--in", name, "--p", str(p)), ((name, text),),
               checks=(("radical",), _cartan_check(n, p)))


def _toric_validate_pool() -> list[Job]:
    jobs = []
    for n in range(1, 7):
        fan, tau = _chain_fans(n)
        f, t = _input("fan", fan), _input("tau", tau)
        jobs.append(Job(("toric", "--fan", f[0], "--tau", t[0]), (f, t)))
    for depth, variant in ((1, 0), (2, 0), (2, 1), (3, 2)):
        f, t = _input("fan", _square_subdivision(depth, variant)), _input("tau", SQUARE_TAU)
        jobs.append(Job(("toric", "--fan", f[0], "--tau", t[0]), (f, t)))
    return jobs


def _toric_subdivide_pool() -> list[Job]:
    quadrant = _input("fan", {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]})
    square = _input("fan", SQUARE_TAU)
    jobs = [Job(("toric", "--fan", quadrant[0], "--subdivide", ray), (quadrant,))
            for ray in ("1,1", "1,2", "2,1", "3,2")]
    jobs += [Job(("toric", "--fan", square[0], "--subdivide", ray), (square,))
             for ray in ("1,1,1", "2,1,1", "1,2,1", "2,2,3")]
    for n in (2, 4):
        fan, _ = _chain_fans(n)
        f = _input("fan", fan)
        jobs += [Job(("toric", "--fan", f[0], "--subdivide", f"2,{2 * i + 1}"), (f,))
                 for i in range(n + 1)]
    return jobs


# --- lists --------------------------------------------------------------------

SLOTS = {
    "char-heavy": _char_heavy_slots,
    "weyl-cosets": _weyl_cosets_slots,
    "exact-linalg": _exact_linalg_slots,
    "cli-light": _cli_light_slots,
}

# One small job per subcommand: run untimed first so that bytecode
# compilation and cold file caches are not timed.
WARMUP = [
    SETUP_JOB,
    _weyl("A2", "", "", "poincare"),
    Job(("torsion", "--type", "A2", "--method", "both")),
    _tensor("A2", "w1,w2"),
    _small_forms(2, 3),
    Job(("schurweyl", "--d", "3", "--p", "2")),
    Job(("nilpotent", "--partition", "2,1", "--n", "3")),
    _chain_paving(1, 0),
]


@functools.cache
def slots(workload: str) -> tuple[tuple[Job, ...], ...]:
    """The slots of a workload, each a pool of jobs."""
    return tuple(tuple(pool) for pool in SLOTS[workload]())


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(pool) for pool in slots(workload)]
    rng.shuffle(jobs)
    return jobs


def catalog() -> list[Job]:
    """Every job that any seed of any workload can run, plus the fixed jobs."""
    seen: dict[str, Job] = {}
    for workload in WORKLOADS:
        for pool in slots(workload):
            for job in pool:
                seen.setdefault(job.key, job)
    for job in WARMUP:
        seen.setdefault(job.key, job)
    return list(seen.values())


def write_inputs(jobs: list[Job], directory: Path) -> None:
    """Write the input files of `jobs` into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.inputs:
            (directory / name).write_text(text, encoding="utf-8")


def write_job_list(jobs: list[Job], directory: Path) -> None:
    """Write `jobs.json` and every input file into `directory`."""
    write_inputs(jobs, directory)
    listing = [{"argv": list(job.argv), "checks": [list(c) for c in job.checks],
                "known_defect": job.known_defect} for job in jobs]
    (directory / "jobs.json").write_text(json.dumps(listing, indent=1) + "\n", encoding="utf-8")
