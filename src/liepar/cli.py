"""Unified command-line front end.

Every subcommand prints a deterministic document (JSON by default, TSV or
text on request) whose header carries the seed in use, so reruns with fixed
inputs are byte-identical.

Every document comes out of one generator, `_emit`, a chunk at a time: a
subcommand computes its document, runs its checks and returns the
generator, which `main` writes out.  `weyl` hands `_emit` its rows as the
orbit walk finds them, so its index and |W/W_J| budget checks all run
before the first byte and no list of rows is ever held.  Both emits
read the words of the walk and build no `WeylElement`: `--emit reps` writes
the rows of a batch of words of one length as one chunk, in a few C-level
calls per batch, and `--emit poincare` hands each word to the stratum
polynomial.  `--format text` prints the header alone and walks nothing.

Exit codes: 0 success, 1 domain error, 2 usage error (a bad option, two
operations at once or a bad LIEPAR_BUDGET), 3 a failed invariant check,
which can come after part of a streamed document; a reader that closes the
pipe early ends the command quietly with 1.

A subcommand's modules run only when that subcommand runs: each is bound
here as a lazy module whose body runs at the first read of an attribute.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from itertools import chain, islice

from .config import budget_override
from .errors import ConfigError, InvariantError, LieparError
from .rootsys import build_root_system


def _lazy(name: str):
    """The module liepar.<name>, registered in sys.modules with its body left
    to run at the first attribute read; a module already there is returned."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


characters, golden, intform, schurweyl, torsion, toricpave, weyl = map(
    _lazy, ("characters", "golden", "intform", "schurweyl", "torsion", "toricpave", "weyl"))

_DESCRIPTIONS = {
    "rootsys": "root system data: roots, coroots, minuscule weights, dual Coxeter number, fundamental group",
    "weyl": "Weyl group combinatorics: double-quotient representatives and stratum cell polynomials",
    "torsion": "torsion-prime tables by the coroot-coefficient criterion and the subsystem oracle",
    "char": "character arithmetic: tensor and exterior-power decompositions, generation certificates",
    "intform": "ranks and radicals of integer intersection forms over Q and F_p, multiplicity reports",
    "schurweyl": "Specht-module Gram matrices and simple symmetric-group dimensions mod p",
    "nilpotent": "GL_n nilpotent orbit data: dimension, conjugate partition, centralizer type",
    "toric": "toric fans: validation, star subdivision, strictly convex supports, affine pavings",
    "golden": "replay the frozen golden tables against live computation",
}


def _weight_label(wt) -> str:
    terms = [f"{'' if c == 1 else c}w{j + 1}" for j, c in enumerate(wt) if c]
    return "+".join(terms) if terms else "0"


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    """Parse 'w8', '2w1+w3' into fundamental-weight coordinates."""
    terms = [term for term in text.replace(" ", "").split("+") if term]
    if not terms:
        raise LieparError(f"weight {text!r} has no term: expected e.g. w1 or 2w1+w3")
    coords = [0] * rank
    for term in terms:
        if "w" not in term:
            raise LieparError(f"cannot parse weight term {term!r}")
        coeff, _, idx = term.partition("w")
        try:
            i, c = int(idx), int(coeff) if coeff else 1
        except ValueError:
            raise LieparError(f"cannot parse weight term {term!r}") from None
        if not 1 <= i <= rank:
            raise LieparError(f"fundamental index {i} out of range 1..{rank}")
        coords[i - 1] += c
    return tuple(coords)


def _parse_ints(text: str | None, what: str) -> tuple[int, ...]:
    """Comma list of integers; empty terms are skipped."""
    try:
        return tuple(int(term) for term in (text or "").split(",") if term)
    except ValueError:
        raise LieparError(f"cannot parse {what} {text!r}: expected integers") from None


def _parse_indices(text: str | None, rank: int) -> frozenset[int]:
    """1-based comma list -> 0-based index set."""
    out = set()
    for i in _parse_ints(text, "simple indices"):
        if not 1 <= i <= rank:
            raise LieparError(f"simple index {i} out of range 1..{rank}")
        out.add(i - 1)
    return frozenset(out)


_ROWS = "\x00rows"  # stands in for a streamed list while its document is dumped


def _emit(document: dict, fmt: str, rows=(), key: str | None = None):
    """The chunks of `document` in `fmt`.

    JSON is the whole document or, with `key`, the document with
    document[key] the list whose rows are `rows`, each row's text at indent
    4.  TSV is the header, then one line per row: a tuple tab-joined, text
    as it is.  Text is the header alone.  A text row can carry several rows
    joined by the separator put between rows (a comma, a newline and four
    spaces in JSON, a newline in TSV): `_reps_rows` sends the rows of a batch
    of words of one length so, as one chunk.  `rows` is consumed only as
    chunks are taken, and not at all where they are not written.
    """
    if fmt == "json" and key is None:
        yield json.dumps(document, sort_keys=True, indent=2)
    elif fmt == "json":
        head, _, tail = json.dumps({**document, key: _ROWS}, sort_keys=True, indent=2).partition(
            json.dumps(_ROWS))
        sep = "[\n    "
        for row in rows:  # the head is never empty, so it is empty only after a row
            yield head + sep + row
            head, sep = "", ",\n    "
        yield head + ("[]" if head else "\n  ]") + tail
    else:
        mark, sep = ("# ", "=") if fmt == "tsv" else ("", ": ")
        # the header is never empty: every document has a subcommand
        yield "\n".join(f"{mark}{k}{sep}{document[k]}" for k in sorted(document)
                         if not isinstance(document[k], (list, dict)))
        for row in rows if fmt == "tsv" else ():
            yield "\n" + (row if isinstance(row, str) else "\t".join(map(str, row)))


def _json_list(texts: list[str], pad: str) -> str:
    """The list of JSON values `texts` as json.dumps(..., indent=2) lays it
    out at indentation `pad`."""
    if not texts:
        return "[]"
    return "[\n  " + pad + (",\n  " + pad).join(texts) + "\n" + pad + "]"


_BATCH = 256  # words per chunk of `_reps_rows`; larger batches gain no time and cost memory
_MARK = "|"  # stands in for a word boundary while a batch is joined; in no label


def _reps_rows(levels, labels: list[str], fmt: str):
    """The `representatives` rows of `fmt` for the words of `levels`, the
    d-th level holding the words of length d and labels[i] being the text of
    letter i: in JSON the text of {"length": d, "word": word} as
    json.dumps(row, sort_keys=True, indent=2) lays it out at indentation 4,
    in TSV the letters joined by "-" ("e" for the empty word), a tab and d.

    Each chunk carries the rows of up to _BATCH words of one length, joined
    by the separator `_emit` puts between rows.  It is built by a fixed
    number of C-level calls: the batch's letters, _MARK between words, are
    joined by the letter separator, and each separator-_MARK-separator
    becomes a row's tail, the row separator and the next row's head.
    Labels of one ASCII character each come from one `bytes.translate` of
    the whole batch, byte len(labels) standing for _MARK; longer labels are
    looked up letter by letter."""
    sep, row_sep = ("-", "\n") if fmt == "tsv" else (",\n        ", ",\n    ")
    chars = "".join(labels)
    if len(chars) == len(labels) < 256 and chars.isascii():
        mark = bytes([len(labels)])
        table = bytes.maketrans(bytes(range(len(labels) + 1)), (chars + _MARK).encode())
        letters = lambda batch: mark.join(batch).translate(table).decode()
    else:  # _MARK and each word's labels in turn, with the first _MARK dropped
        label = labels.__getitem__
        letters = lambda batch: islice(chain.from_iterable(
            chain(_MARK, map(label, word)) for word in batch), 1, None)
    boundary = sep + _MARK + sep
    for d, words in enumerate(levels):
        if fmt == "tsv":
            head, tail = "" if d else "e", "\t%d" % d
        elif d:
            head, tail = '{\n      "length": %d,\n      "word": [\n        ' % d, "\n      ]\n    }"
        else:  # the identity, whose word is the empty list
            head, tail = '{\n      "length": 0,\n      "word": [', "]\n    }"
        between = tail + row_sep + head
        for start in range(0, len(words), _BATCH):
            yield head + sep.join(letters(words[start:start + _BATCH])).replace(boundary, between) + tail


def _poincare_row(labels: list[str], word, coeffs) -> str:
    """The `poincare` row {"polynomial": coeffs, "word": word} as
    json.dumps(row, sort_keys=True, indent=2) lays it out at indentation 4,
    labels[i] being the text of letter i."""
    return '{\n      "polynomial": %s,\n      "word": %s\n    }' % (
        _json_list([str(c) for c in coeffs], "      "), _json_list([labels[i] for i in word], "      "))


def _document(subcommand: str, seed: int = 0, **payload) -> dict:
    return {"subcommand": subcommand, "seed": seed, **payload}


def _cmd_rootsys(args):
    rs = build_root_system(args.type)
    doc = _document("rootsys", type=rs.type_name())
    rows = []
    if args.emit == "roots":
        doc["roots"] = [list(r) for r in rs.roots]
        rows = [(",".join(map(str, r)),) for r in rs.roots]
    elif args.emit == "coroots":
        doc["coroots"] = [list(co) for co in rs.positive_coroots]
        rows = [(",".join(map(str, co)),) for co in rs.positive_coroots]
    elif args.emit == "minuscule":
        doc["minuscule"] = list(rs.minuscule_weights())
    elif args.emit == "h-dual":
        doc["h_dual"] = rs.dual_coxeter_number()
        doc["minimal_orbit_dimension"] = rs.minimal_orbit_dimension()
    elif args.emit == "fundamental-group":
        doc["fundamental_group"] = list(rs.fundamental_group())
    else:  # json document of the whole system
        doc.update(rs.to_dict())
    return _emit(doc, args.format, rows)


def _cmd_weyl(args):
    rs = build_root_system(args.type)
    I, J = _parse_indices(args.I, rs.rank), _parse_indices(args.J, rs.rank)
    doc = _document("weyl", type=rs.type_name(),
                    I=sorted(i + 1 for i in I), J=sorted(j + 1 for j in J))
    labels = [str(i + 1) for i in range(rs.rank)]
    # the walk checks the indices and the budget before any output
    levels = weyl.iter_double_quotient_words(rs, I, J)
    if args.emit == "reps":
        return _emit(doc, args.format, _reps_rows(levels, labels, args.format), "representatives")
    strata = ((word, weyl.stratum_poincare(rs, I, J, word)) for words in levels for word in words)
    rows = ((_poincare_row(labels, word, p.coeffs) for word, p in strata) if args.format == "json"
            else ("%s\t%s" % ("-".join(map(labels.__getitem__, word)) or "e", p) for word, p in strata))
    return _emit(doc, args.format, rows, "poincare")


def _cmd_torsion(args):
    if args.emit == "certificates" and args.method == "fast":
        raise LieparError("--emit certificates requires --method oracle or both")
    rs = build_root_system(args.type)
    doc = _document("torsion", type=rs.type_name(), method=args.method)
    fast = oracle = None
    if args.method in ("fast", "both"):
        fast = list(torsion.torsion_primes_fast(rs))
        doc["fast"] = fast
    if args.method in ("oracle", "both"):
        primes, certs = torsion.torsion_primes_subsystem_oracle(rs)
        oracle = list(primes)
        doc["oracle"] = oracle
    if args.method == "both":
        doc["agreement"] = fast == oracle
    doc["primes"] = fast if fast is not None else oracle
    if args.emit == "certificates":
        doc["certificates"] = [
            {
                "prime": c.prime,
                "subsystem": [list(r) for r in c.subsystem],
                "divisor_witness": c.divisor_witness,
                "verified": c.verify(rs),
            }
            for c in certs
        ]
    doc["minimal_orbit_primes"] = list(torsion.minimal_orbit_parity_primes(rs)) if rs.is_irreducible() else None
    if rs.is_irreducible():
        bound = torsion.tilting_generation_bound(rs, improved=args.improved_bounds)
        doc["tilting_bound"] = "any p" if bound <= 1 else f"p > {bound}"
    rows = [(p,) for p in (doc["primes"] or [])]
    return _emit(doc, args.format, rows)


def _cmd_char(args):
    rs = build_root_system(args.type)
    doc = _document("char", type=rs.type_name())
    if args.certify_generation:
        cert = characters.generation_certificate(rs)
        if not cert.verify(rs):
            raise LieparError("generation certificate failed verification")
        doc["generators"] = [_weight_label(g) for g in cert.generators]
        doc["certificates"] = [
            {
                "fundamental": f"w{e.fundamental_index}",
                "word": [_weight_label(x) for x in e.word],
                "multiplicity": e.multiplicity,
                "verified": True,
            }
            for e in cert.entries
        ]
        return _emit(doc, args.format,
                     [(c["fundamental"], "*".join(c["word"]), c["multiplicity"]) for c in doc["certificates"]])
    if args.tensor:
        parts = args.tensor.split(",")
        if len(parts) != 2:
            raise LieparError("--tensor expects two comma-separated weights, e.g. w8,w8")
        left, right = (_parse_weight(p, rs.rank) for p in parts)
        ch = characters.tensor_decompose(rs, left, right)
        doc["operation"] = f"{_weight_label(left)} (x) {_weight_label(right)}"
    elif args.exterior:
        weight_text, caret, power_text = args.exterior.partition("^")
        weight = _parse_weight(weight_text, rs.rank)
        try:
            power = int(power_text) if caret else 1
        except ValueError:
            raise LieparError(f"cannot parse exterior power {power_text!r}") from None
        ch = characters.exterior_power_decompose(rs, weight, power)
        doc["operation"] = f"Lambda^{power} {_weight_label(weight)}"
    else:
        raise LieparError("char needs one of --tensor, --exterior, --certify-generation")
    summands = [
        {"weight": _weight_label(wt), "coords": list(wt), "multiplicity": m,
         "dimension": characters.weyl_dimension(rs, wt)}
        for wt, m in ch.sorted_dominant()
    ]
    doc["decomposition"] = summands
    doc["dimension"] = ch.dimension()
    rows = [(s["weight"], s["multiplicity"], s["dimension"]) for s in summands]
    return _emit(doc, args.format, rows)


def _cmd_intform(args):
    forms = intform.load_forms(args.infile)
    doc = _document("intform", **intform.decomposition_report(forms, args.p))
    rows = [
        (s["label"], s["size"], s["rank_q"], s["rank_fp"], s["multiplicity"], s["radical_dimension"])
        for s in doc["strata"]
    ]
    return _emit(doc, args.format, rows)


def _cmd_schurweyl(args):
    if args.d < 1:
        raise LieparError(f"--d must be a positive integer, got {args.d}")
    intform.check_prime(args.p)
    doc = _document("schurweyl", d=args.d, p=args.p)
    if args.emit == "gram":
        schurweyl.check_specht_budget(args.d)
        grams = []
        for lam in schurweyl.partitions(args.d):
            g = schurweyl.specht_gram(lam)
            grams.append({"partition": list(lam), "size": g.size,
                          "matrix": [list(r) for r in g.form.matrix]})
        doc["grams"] = grams
        rows = [(",".join(map(str, g["partition"])), g["size"]) for g in grams]
        return _emit(doc, args.format, rows)
    dims = schurweyl.simple_dimensions(args.d, args.p)
    doc["dims"] = sorted(dims.values())
    per = [
        {"partition": list(lam), "f": schurweyl.hook_length_count(lam), "simple_dimension": dim}
        for lam, dim in dims.items()
    ]
    doc["p_regular"] = per
    rows = [(",".join(map(str, r["partition"])), r["f"], r["simple_dimension"]) for r in per]
    return _emit(doc, args.format, rows)


def _cmd_nilpotent(args):
    lam = _parse_ints(args.partition, "partition")
    doc = _document("nilpotent", **schurweyl.nilpotent_orbit_data(lam, args.n))
    return _emit(doc, args.format, [(doc["dimension"], doc["centralizer"])])


def _cmd_toric(args):
    if args.emit and not args.paving:
        raise LieparError(f"--emit {args.emit} requires --paving")
    with open(args.fan, encoding="utf-8") as fh:
        fan = toricpave.Fan.from_dict(json.load(fh))
    tau = None
    if args.tau:
        with open(args.tau, encoding="utf-8") as fh:
            tau = toricpave.Fan.from_dict(json.load(fh))
    doc = _document("toric", seed=args.seed)
    if args.paving:
        if tau is None:
            raise LieparError("--paving requires --tau")
        result = toricpave.paving(fan, tau, seed=args.seed)
        doc["poincare"] = list(result.polynomial.coeffs)
        doc["even"] = result.is_even()
        doc["cell_count"] = len(result.cells)
        doc["relevant_cone_count"] = len(result.relevant_cones)
        if args.emit == "cells":
            doc["cells"] = result.cells
        return _emit(doc, args.format, [(str(result.polynomial),)])
    if args.subdivide:
        ray = _parse_ints(args.subdivide, "ray")
        new_fan = toricpave.star_subdivision(fan, ray)
        doc["fan"] = new_fan.to_dict()
        return _emit(doc, args.format)
    doc.update(toricpave.validate_fan(fan, tau=tau))
    poset = toricpave.orbit_poset(fan)
    doc["cones"] = [list(c) for c in poset.cones]
    doc["orbit_dimensions"] = list(poset.orbit_dimensions)
    return _emit(doc, args.format)


def _cmd_golden(args):
    report = golden.run_golden(fixtures_dir=args.fixtures)
    doc = _document("golden", **report.to_dict())
    if not report.passed:
        for f in report.failures():
            print(f"MISMATCH {f.table} [{f.row}]: {f.diff}", file=sys.stderr)
        raise LieparError(f"{len(report.failures())} golden rows failed")
    rows = [(o.table, o.row, "pass") for o in report.outcomes]
    return _emit(doc, args.format, rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepar",
        description="exact computational Lie theory: root systems, Weyl combinatorics, "
                    "torsion primes, tilting character decompositions, intersection-form "
                    "multiplicities, Schur-Weyl dimensions and toric affine pavings",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, help=_DESCRIPTIONS[name], description=_DESCRIPTIONS[name])
        p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
        p.set_defaults(func=func)
        return p

    p = add("rootsys", _cmd_rootsys)
    p.add_argument("--type", required=True)
    p.add_argument("--emit", choices=("roots", "coroots", "minuscule", "h-dual", "fundamental-group", "all"),
                   default="all")

    p = add("weyl", _cmd_weyl)
    p.add_argument("--type", required=True)
    p.add_argument("--I", default="")
    p.add_argument("--J", default="")
    p.add_argument("--emit", choices=("reps", "poincare"), default="reps")

    p = add("torsion", _cmd_torsion)
    p.add_argument("--type", required=True)
    p.add_argument("--method", choices=("fast", "oracle", "both"), default="fast")
    p.add_argument("--emit", choices=("primes", "certificates"), default="primes")
    p.add_argument("--improved-bounds", action="store_true",
                   help="use the sharper p > 2 generation bound in types B and D")

    p = add("char", _cmd_char)
    p.add_argument("--type", required=True)
    operation = p.add_mutually_exclusive_group()
    operation.add_argument("--tensor", help="two weights, e.g. w8,w8")
    operation.add_argument("--exterior", help="weight and power, e.g. w4^2")
    operation.add_argument("--certify-generation", action="store_true")

    p = add("intform", _cmd_intform)
    p.add_argument("--in", dest="infile", required=True, help="JSON file of symmetric forms")
    p.add_argument("--p", type=int, required=True)

    p = add("schurweyl", _cmd_schurweyl)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--emit", choices=("dims", "gram"), default="dims")

    p = add("nilpotent", _cmd_nilpotent)
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 3,2,2")
    p.add_argument("--n", type=int, required=True)

    p = add("toric", _cmd_toric)
    p.add_argument("--fan", required=True, help="fan JSON: {rank, rays, cones}")
    p.add_argument("--tau", help="ambient cone fan JSON")
    operation = p.add_mutually_exclusive_group()
    operation.add_argument("--paving", action="store_true")
    operation.add_argument("--subdivide", help="ray to star-subdivide along, e.g. 1,1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", choices=("cells", "poincare"))

    p = add("golden", _cmd_golden)
    p.add_argument("--fixtures", help="override directory of golden tables")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget_override()
        # a document is a generator of chunks; its checks ran before it was returned
        for chunk in args.func(args):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send what is still buffered to devnull so
        # that the interpreter's flush at exit does not report it again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 3
    except (LieparError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
