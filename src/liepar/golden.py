"""Golden-table regression runner.

Each table in `golden_data/` carries frozen expected values for one family
of computations; the runner replays every row against the live code and
reports any mismatch with a diff string.  A malformed table or row is a
one-line LieparError naming the table and the row.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple

from . import characters, schurweyl, torsion
from .errors import BudgetError, LieparError
from .rootsys import build_root_system

TABLE_NAMES = (
    "torsion_primes",
    "minimal_orbit",
    "tilting_bounds",
    "weights",
    "decompositions",
    "schur_dims",
)


class GoldenOutcome(NamedTuple):
    table: str
    row: str
    ok: bool
    diff: str = ""


class GoldenReport(NamedTuple):
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
    if not isinstance(table, dict):
        raise LieparError(f"golden table {name} is not a JSON object")
    if not table.get("source"):
        raise LieparError(f"golden table {name} is missing its source description")
    if table.get("id") != name:
        raise LieparError(f"golden table {name} has mismatched id {table.get('id')!r}")
    if not isinstance(table.get("rows"), list):
        raise LieparError(f"golden table {name} has no list of rows")
    return table


def _diff(expected, actual) -> str:
    return f"expected {expected!r}, computed {actual!r}"


def _decomposition_checks(row: dict) -> list[tuple]:
    if row["op"] == "exterior_family":
        return [check for member in row["members"] for check in _decomposition_checks(member)]
    rs = build_root_system(row["type"])
    if row["op"] == "tensor":
        label = f"{row['type']} tensor {row['left']} x {row['right']}"
        ch = characters.tensor_decompose(rs, tuple(row["left"]), tuple(row["right"]))
    else:
        label = f"{row['type']} exterior {row['weight']}^{row['power']}"
        ch = characters.exterior_power_decompose(rs, tuple(row["weight"]), row["power"])
    return [(label, {tuple(wt): mult for wt, mult in row["expected"]}, ch.dominant_mults)]


def _row_checks(kind: str, row: dict) -> list[tuple]:
    """(row label, expected, computed) for each value a golden row pins."""
    if kind == "decompositions":
        return _decomposition_checks(row)
    if kind == "schur_dims":
        return [(f"d={row['d']} p={row['p']}", sorted(row["dims"]),
                 schurweyl.simple_dims_table(row["d"], row["p"]))]
    rs = build_root_system(row["type"])
    if kind == "torsion_primes":
        expected, actual = row["primes"], list(torsion.torsion_primes_fast(rs))
    elif kind == "tilting_bounds":
        expected, actual = row["threshold"], torsion.tilting_generation_bound(rs)
    else:
        if kind == "minimal_orbit":
            actual = {
                "h_dual": rs.dual_coxeter_number(),
                "dimension": rs.minimal_orbit_dimension(),
                "primes": list(torsion.minimal_orbit_parity_primes(rs)),
            }
        else:
            actual = {
                "minuscule": list(rs.minuscule_weights()),
                "highest_short_root": list(rs.highest_short_root()),
            }
        expected = {k: row[k] for k in actual}
    return [(row["type"], expected, actual)]


def _run_table(table: dict) -> list[GoldenOutcome]:
    kind = table.get("kind")
    if kind not in TABLE_NAMES:  # each table's kind is its name
        raise LieparError(f"unknown golden table kind {kind!r}")
    out = []
    for n, row in enumerate(table["rows"]):
        try:
            checks = _row_checks(kind, row)
        except KeyError as exc:
            raise LieparError(f"golden table {table['id']}: rows[{n}] has no key {exc}") from None
        except BudgetError:
            raise  # the row is well formed; the budget in force refuses it
        except (LieparError, IndexError, TypeError, ValueError) as exc:
            raise LieparError(f"golden table {table['id']}: rows[{n}] is malformed: {exc}") from None
        for label, expected, actual in checks:
            ok = actual == expected
            out.append(GoldenOutcome(table["id"], label, ok, "" if ok else _diff(expected, actual)))
    return out


def run_golden(fixtures_dir: str | None = None) -> GoldenReport:
    outcomes: list[GoldenOutcome] = []
    for name in TABLE_NAMES:
        outcomes.extend(_run_table(load_table(name, fixtures_dir)))
    return GoldenReport(tuple(outcomes))
