"""Golden-table regression runner.

Each table in `golden_data/` carries frozen expected values for one family
of computations; the runner replays every row against the live code and
reports any mismatch with a diff string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from . import characters, schurweyl, torsion
from .errors import LieparError
from .rootsys import build_root_system

TABLE_NAMES = (
    "torsion_primes",
    "minimal_orbit",
    "tilting_bounds",
    "weights",
    "decompositions",
    "schur_dims",
)


@dataclass(frozen=True)
class GoldenOutcome:
    table: str
    row: str
    ok: bool
    diff: str = ""


@dataclass(frozen=True)
class GoldenReport:
    outcomes: tuple[GoldenOutcome, ...]

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def failures(self) -> list[GoldenOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "total": len(self.outcomes),
            "failures": [
                {"table": o.table, "row": o.row, "diff": o.diff} for o in self.failures()
            ],
        }


def load_table(name: str, fixtures_dir: str | None = None) -> dict:
    if fixtures_dir is not None:
        with open(f"{fixtures_dir}/{name}.json", encoding="utf-8") as fh:
            table = json.load(fh)
    else:
        text = resources.files("liepar").joinpath(f"golden_data/{name}.json").read_text()
        table = json.loads(text)
    if not table.get("source"):
        raise LieparError(f"golden table {name} is missing its source description")
    if table.get("id") != name:
        raise LieparError(f"golden table {name} has mismatched id {table.get('id')!r}")
    return table


def _diff(expected, actual) -> str:
    return f"expected {expected!r}, computed {actual!r}"


def _check_decomposition_row(row: dict) -> list[GoldenOutcome]:
    if row["op"] == "exterior_family":
        out = []
        for member in row["members"]:
            out.extend(_check_decomposition_row(member))
        return out
    rs = build_root_system(row["type"])
    expected = {tuple(wt): mult for wt, mult in row["expected"]}
    if row["op"] == "tensor":
        label = f"{row['type']} tensor {row['left']} x {row['right']}"
        ch = characters.tensor_decompose(rs, tuple(row["left"]), tuple(row["right"]))
    else:
        label = f"{row['type']} exterior {row['weight']}^{row['power']}"
        ch = characters.exterior_power_decompose(rs, tuple(row["weight"]), row["power"])
    actual = ch.dominant_mults
    ok = actual == expected
    return [GoldenOutcome("decompositions", label, ok, "" if ok else _diff(expected, actual))]


def _run_table(table: dict) -> list[GoldenOutcome]:
    kind = table["kind"]
    name = table["id"]
    out: list[GoldenOutcome] = []
    if kind == "torsion_primes":
        for row in table["rows"]:
            rs = build_root_system(row["type"])
            actual = list(torsion.torsion_primes_fast(rs))
            ok = actual == row["primes"]
            out.append(GoldenOutcome(name, row["type"], ok,
                                     "" if ok else _diff(row["primes"], actual)))
    elif kind == "minimal_orbit":
        for row in table["rows"]:
            rs = build_root_system(row["type"])
            actual = {
                "h_dual": rs.dual_coxeter_number(),
                "dimension": rs.minimal_orbit_dimension(),
                "primes": list(torsion.minimal_orbit_parity_primes(rs)),
            }
            expected = {k: row[k] for k in ("h_dual", "dimension", "primes")}
            ok = actual == expected
            out.append(GoldenOutcome(name, row["type"], ok,
                                     "" if ok else _diff(expected, actual)))
    elif kind == "tilting_bounds":
        for row in table["rows"]:
            rs = build_root_system(row["type"])
            actual = torsion.tilting_generation_bound(rs).threshold
            ok = actual == row["threshold"]
            out.append(GoldenOutcome(name, row["type"], ok,
                                     "" if ok else _diff(row["threshold"], actual)))
    elif kind == "weights":
        for row in table["rows"]:
            rs = build_root_system(row["type"])
            actual = {
                "minuscule": list(rs.minuscule_weights()),
                "highest_short_root": list(rs.highest_short_root()),
            }
            expected = {k: row[k] for k in ("minuscule", "highest_short_root")}
            ok = actual == expected
            out.append(GoldenOutcome(name, row["type"], ok,
                                     "" if ok else _diff(expected, actual)))
    elif kind == "decompositions":
        for row in table["rows"]:
            out.extend(_check_decomposition_row(row))
    elif kind == "schur_dims":
        for row in table["rows"]:
            actual = schurweyl.simple_dims_table(row["d"], row["p"])
            ok = actual == sorted(row["dims"])
            out.append(GoldenOutcome(name, f"d={row['d']} p={row['p']}", ok,
                                     "" if ok else _diff(sorted(row["dims"]), actual)))
    else:
        raise LieparError(f"unknown golden table kind {kind!r}")
    return out


def run_golden(fixtures_dir: str | None = None) -> GoldenReport:
    outcomes: list[GoldenOutcome] = []
    for name in TABLE_NAMES:
        outcomes.extend(_run_table(load_table(name, fixtures_dir)))
    return GoldenReport(tuple(outcomes))
