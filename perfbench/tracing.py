"""Traced entry point and per-layer metrics.

Run as a script, this file stands in for `python -m liepar.cli` in the
traced pass of the benchmark:

    python3 perfbench/tracing.py SPANS_FILE JOB_ID ARGV...

It times `import liepar.cli`, wraps the public layer functions listed in
`WRAPPED` with spans, runs `liepar.cli.main(ARGV)` and writes the spans to
SPANS_FILE when the command ends.  Per-element calls (`multiply_simple`,
`multiply`, `in_row_lattice`, `dominant_rep`) are not wrapped; their work
shows as counts derived from arguments and results.

Imported, it turns the span files of a pass into the per-layer metrics of
`LAYER_METRICS`.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median

# module -> {attribute ("Class.method" for methods): span name}.  The span
# name's prefix is its layer.
WRAPPED = {
    "rootsys": {"RootSystem.__init__": "rootsys.build"},
    "characters": {
        "dominant_weight_multiplicities": "characters.freudenthal",
        "tensor_decompose": "characters.klimyk",
        "exterior_power_decompose": "characters.exterior",
        "decompose_weight_multiset": "characters.strip",
        "weyl_orbit": "characters.orbit",
        "generation_certificate": "characters.certificate",
    },
    "weyl": {
        "generate_weyl": "weyl.generate",
        "double_quotient_reps": "weyl.reps",
        "generate_parabolic": "weyl.parabolic",
        "stratum_poincare": "weyl.stratum",
    },
    "torsion": {
        "torsion_primes_fast": "torsion.fast",
        "torsion_primes_subsystem_oracle": "torsion.oracle",
        "SubsystemCertificate.verify": "torsion.verify",
        "minimal_orbit_parity_primes": "torsion.tables",
        "tilting_generation_bound": "torsion.tables",
    },
    "_linalg": {
        "smith_normal_form": "_linalg.snf",
        "bareiss_rank": "_linalg.bareiss",
        "modp_echelon": "_linalg.modp",
        "modp_rank": "_linalg.modp",
        "modp_kernel_basis": "_linalg.modp",
        "row_hermite": "_linalg.hnf",
        "frac_matrix_inverse": "_linalg.frac",
        "frac_solve": "_linalg.frac",
        "frac_rank": "_linalg.frac",
    },
    "intform": {"rank_and_radical": "intform.rank", "load_forms": "intform.load"},
    "schurweyl": {
        "specht_gram": "schurweyl.gram",
        "polytabloid": "schurweyl.polytabloid",
        "nilpotent_orbit_data": "schurweyl.nilpotent",
    },
    "toricpave": {
        "strictly_convex_support": "toricpave.support",
        "paving": "toricpave.paving",
        "validate_fan": "toricpave.fan",
        "orbit_poset": "toricpave.fan",
        "star_subdivision": "toricpave.fan",
        "Fan.from_dict": "toricpave.fan",
    },
    "golden": {"run_golden": "golden.replay"},
}

SPAN_CAP = 20_000  # raw spans kept per job; totals cover every span


def _matrix_cells(matrix) -> int:
    return len(matrix) * (len(matrix[0]) if matrix else 0)


# span name -> hook(tracer, frame, args, result), run after a call returns
def _parabolic(tr, frame, args, result):
    tr.stack[-1][4].append(len(result))  # the calling stratum multiplies these


def _stratum(tr, frame, args, result):
    product = 1
    for size in frame[4]:
        product *= size
    tr.count("weyl.stratum_products", product if frame[4] else 0)


HOOKS = {
    "characters.freudenthal":
        lambda tr, f, a, r: tr.distinct("characters.freudenthal", (a[0].type_name(), repr(a[1]))),
    "weyl.generate": lambda tr, f, a, r: tr.count("weyl.elements", len(r)),
    "weyl.reps": lambda tr, f, a, r: tr.count("weyl.reps", len(r)),
    "weyl.parabolic": _parabolic,
    "weyl.stratum": _stratum,
    "torsion.oracle": lambda tr, f, a, r: tr.count("torsion.certificates", len(r[1])),
    "_linalg.snf": lambda tr, f, a, r: tr.count("_linalg.snf_cells", _matrix_cells(a[0])),
    "intform.rank": lambda tr, f, a, r: tr.count("intform.matrix_cells", a[0].size ** 2),
    "schurweyl.gram": lambda tr, f, a, r: tr.count("schurweyl.gram_cells", r.size ** 2),
    "schurweyl.polytabloid": lambda tr, f, a, r: tr.count("schurweyl.polytabloid_terms", len(r)),
    "toricpave.paving": lambda tr, f, a, r: tr.count("toricpave.cells", len(r.cells)),
    "golden.replay": lambda tr, f, a, r: tr.count("golden.rows", len(r.outcomes)),
}


class Tracer:
    """Spans of one job, with self time computed as each span closes."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.clock = time.perf_counter
        self.next_id = 1
        # frame: [span id, name, start, time covered by child spans, notes]
        self.stack = [[0, "process", self.clock(), 0.0, []]]
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s, errors]
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.spans: list[tuple] = []
        self.dropped = 0

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def distinct(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def call(self, name: str, fn, args, kwargs):
        frame = [self.next_id, name, 0.0, 0.0, []]
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(frame)
        failed = False
        frame[2] = start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            failed = True
            raise
        finally:
            end = self.clock()
            self.stack.pop()
            duration = end - start
            parent[3] += duration
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0, 0]
            total[0] += 1
            total[1] += duration - frame[3]
            total[2] += duration
            total[3] += failed
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame[0], parent[0], name, start, end))
            else:
                self.dropped += 1
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, frame, args, result)
        return result

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self, package) -> None:
        """Wrap every function in WRAPPED under every name that binds it.

        `from .x import f` copies the binding into the importing module, so
        after patching `x.f` every module global still bound to the original
        is re-pointed too; calls through `x.f` read the module global.
        """
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        replaced = {}
        for mod_name, attrs in WRAPPED.items():
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            for attr, span in attrs.items():
                owner, _, leaf = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = getattr(target, leaf)
                wrapper = self.wrap(span, original)
                setattr(target, leaf, wrapper)
                if not owner:
                    replaced[id(original)] = (original, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def dump(self, path: str, import_s: float) -> None:
        record = {
            "job": self.job_id,
            "import_s": import_s,
            "totals": self.totals,
            "counts": self.counts,
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "spans": self.spans,
            "dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def main(argv: list[str]) -> int:
    spans_path, job_id, cli_argv = argv[0], argv[1], argv[2:]
    started = time.perf_counter()
    import liepar
    import liepar.cli
    import_s = time.perf_counter() - started
    tracer = Tracer(job_id)
    tracer.install(liepar)
    try:
        code = tracer.call("cli.main", liepar.cli.main, (cli_argv,), {})
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)
    return code


# --- per-layer metrics ----------------------------------------------------------


def _calls(name):
    return lambda agg: agg["totals"].get(name, [0, 0.0, 0.0, 0])[0]


def _self(name):
    return lambda agg: agg["totals"].get(name, [0, 0.0, 0.0, 0])[1]


def _errors(name):
    return lambda agg: agg["totals"].get(name, [0, 0.0, 0.0, 0])[3]


def _count(name):
    return lambda agg: agg["counts"].get(name, 0)


def _layer_self(layer):
    return lambda agg: sum(t[1] for n, t in agg["totals"].items() if n.split(".")[0] == layer)


def _ratio(num, den):
    return lambda agg: num(agg) / den(agg) if den(agg) else 0.0


# (metric, unit, how to read it from the summed records of one pass)
LAYER_METRICS = [
    ("process.import_s", "s", lambda agg: agg["import_s"]),
    ("cli.self_s", "s", _self("cli.main")),
    ("cli.output_bytes", "bytes", lambda agg: agg["output_bytes"]),
    ("rootsys.build_calls", "count", _calls("rootsys.build")),
    ("rootsys.build_s", "s", _self("rootsys.build")),
    ("characters.freudenthal_calls", "count", _calls("characters.freudenthal")),
    ("characters.freudenthal_s", "s", _self("characters.freudenthal")),
    ("characters.freudenthal_useful_ratio", "ratio",
     _ratio(lambda agg: agg["distinct"].get("characters.freudenthal", 0),
            _calls("characters.freudenthal"))),
    ("characters.klimyk_calls", "count", _calls("characters.klimyk")),
    ("characters.klimyk_s", "s", _self("characters.klimyk")),
    ("characters.exterior_s", "s", _self("characters.exterior")),
    ("characters.strip_s", "s", _self("characters.strip")),
    ("characters.orbit_s", "s", _self("characters.orbit")),
    ("characters.certificate_s", "s", _self("characters.certificate")),
    ("characters.self_s", "s", _layer_self("characters")),
    ("weyl.generate_calls", "count", _calls("weyl.generate")),
    ("weyl.generate_s", "s", _self("weyl.generate")),
    ("weyl.elements", "count", _count("weyl.elements")),
    ("weyl.reps", "count", _count("weyl.reps")),
    ("weyl.reps_per_element", "ratio", _ratio(_count("weyl.reps"), _count("weyl.elements"))),
    ("weyl.parabolic_s", "s", _self("weyl.parabolic")),
    ("weyl.stratum_calls", "count", _calls("weyl.stratum")),
    ("weyl.stratum_s", "s", _self("weyl.stratum")),
    ("weyl.stratum_products", "count", _count("weyl.stratum_products")),
    ("weyl.self_s", "s", _layer_self("weyl")),
    ("torsion.fast_s", "s", _self("torsion.fast")),
    ("torsion.oracle_calls", "count", _calls("torsion.oracle")),
    ("torsion.oracle_s", "s", _self("torsion.oracle")),
    ("torsion.certificates", "count", _count("torsion.certificates")),
    ("torsion.verify_s", "s", _self("torsion.verify")),
    ("torsion.self_s", "s", _layer_self("torsion")),
    ("_linalg.snf_calls", "count", _calls("_linalg.snf")),
    ("_linalg.snf_s", "s", _self("_linalg.snf")),
    ("_linalg.snf_cells", "count", _count("_linalg.snf_cells")),
    ("_linalg.bareiss_s", "s", _self("_linalg.bareiss")),
    ("_linalg.modp_s", "s", _self("_linalg.modp")),
    ("_linalg.hnf_calls", "count", _calls("_linalg.hnf")),
    ("_linalg.hnf_s", "s", _self("_linalg.hnf")),
    ("_linalg.frac_calls", "count", _calls("_linalg.frac")),
    ("_linalg.frac_s", "s", _self("_linalg.frac")),
    ("_linalg.self_s", "s", _layer_self("_linalg")),
    ("intform.rank_calls", "count", _calls("intform.rank")),
    ("intform.rank_s", "s", _self("intform.rank")),
    ("intform.matrix_cells", "count", _count("intform.matrix_cells")),
    ("schurweyl.gram_calls", "count", _calls("schurweyl.gram")),
    ("schurweyl.gram_s", "s", _self("schurweyl.gram")),
    ("schurweyl.gram_cells", "count", _count("schurweyl.gram_cells")),
    ("schurweyl.polytabloid_s", "s", _self("schurweyl.polytabloid")),
    ("schurweyl.polytabloid_terms", "count", _count("schurweyl.polytabloid_terms")),
    ("toricpave.support_calls", "count", _calls("toricpave.support")),
    ("toricpave.support_s", "s", _self("toricpave.support")),
    ("toricpave.support_failures", "count", _errors("toricpave.support")),
    ("toricpave.paving_s", "s", _self("toricpave.paving")),
    ("toricpave.cells", "count", _count("toricpave.cells")),
    ("toricpave.self_s", "s", _layer_self("toricpave")),
    ("golden.replay_s", "s", _self("golden.replay")),
    ("golden.rows", "count", _count("golden.rows")),
]


def summarize_pass(records: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the span files of its jobs."""
    agg = {"import_s": 0.0, "output_bytes": output_bytes,
           "totals": {}, "counts": {}, "distinct": {}}
    for rec in records:
        agg["import_s"] += rec["import_s"]
        for name, (calls, self_s, total_s, errors) in rec["totals"].items():
            t = agg["totals"].setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += calls
            t[1] += self_s
            t[2] += total_s
            t[3] += errors
        for kind in ("counts", "distinct"):
            for name, value in rec[kind].items():
                agg[kind][name] = agg[kind].get(name, 0) + value
    return {name: read(agg) for name, _, read in LAYER_METRICS}


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(p[name] for p in passes) for name, _, _ in LAYER_METRICS}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
