import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liepar import cli, schurweyl, toricpave, weyl
from liepar.characters import GenerationCertificate
from liepar.errors import InvariantError
from liepar.golden import TABLE_NAMES, load_table, run_golden
from liepar.rootsys import build_root_system

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_torsion_both_e8(capsys):
    code, out, _ = run(capsys, "torsion", "--type", "E8", "--method", "both")
    assert code == 0
    doc = json.loads(out)
    assert doc["primes"] == [2, 3, 5]
    assert doc["agreement"] is True
    assert doc["seed"] == 0


def test_char_exterior_g2(capsys):
    code, out, _ = run(capsys, "char", "--type", "G2", "--exterior", "w1^2")
    assert code == 0
    doc = json.loads(out)
    got = {s["weight"]: s["multiplicity"] for s in doc["decomposition"]}
    assert got == {"w1": 1, "w2": 1}


def test_char_exterior_without_power_is_the_first(capsys):
    code, out, _ = run(capsys, "char", "--type", "A2", "--exterior", "w1")
    assert code == 0
    doc = json.loads(out)
    assert doc["operation"] == "Lambda^1 w1" and doc["dimension"] == 3


def test_char_tensor_e7(capsys):
    code, out, _ = run(capsys, "char", "--type", "E7", "--tensor", "w1,w1")
    assert code == 0
    doc = json.loads(out)
    got = {s["weight"]: s["multiplicity"] for s in doc["decomposition"]}
    assert got == {"2w1": 1, "w1": 1, "w3": 1, "w6": 1, "0": 1}


def test_certificate_failing_verification_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setattr(GenerationCertificate, "verify", lambda self, rs: False)
    code, out, err = run(capsys, "char", "--type", "G2", "--certify-generation")
    assert code == 1
    assert out == ""
    assert err == "error: generation certificate failed verification\n"


def test_intform_empty_report(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, out, _ = run(capsys, "intform", "--in", str(path), "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["strata"] == [] and doc["decomposition_theorem_holds"] is True


def test_intform_report(capsys, tmp_path):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([{"label": "s", "n": 1, "rows": [[-2]]}]))
    code, out, _ = run(capsys, "intform", "--in", str(path), "--p", "2")
    doc = json.loads(out)
    assert doc["strata"][0]["multiplicity"] == 0
    assert doc["decomposition_theorem_holds"] is False


def test_intform_tsv_and_text_headers_leave_out_the_strata(capsys, tmp_path):
    path = tmp_path / "forms.json"
    path.write_text(json.dumps([{"label": "s", "n": 1, "rows": [[-2]]}]))
    _, tsv, _ = run(capsys, "intform", "--in", str(path), "--p", "3", "--format", "tsv")
    assert tsv == ("# decomposition_theorem_holds=True\n# prime=3\n# seed=0\n# subcommand=intform\n"
                   "s\t1\t1\t1\t1\t0\n")
    _, text, _ = run(capsys, "intform", "--in", str(path), "--p", "3", "--format", "text")
    assert text == "decomposition_theorem_holds: True\nprime: 3\nseed: 0\nsubcommand: intform\n"


def test_weyl_reps_tsv(capsys):
    code, out, _ = run(capsys, "weyl", "--type", "A3", "--I", "1,2", "--J", "2,3",
                       "--emit", "reps", "--format", "tsv")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert len(rows) == 2  # two double cosets


@pytest.mark.parametrize("flag,value", [("--I", "7"), ("--I", "0"), ("--J", "a")])
def test_weyl_bad_simple_index_is_one_line_domain_error(capsys, flag, value):
    code, out, err = run(capsys, "weyl", "--type", "A3", flag, value)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("flag,value", [("--tensor", "wx,w1"), ("--tensor", "w1,xw2"),
                                        ("--exterior", "w1^x")])
def test_char_bad_weight_is_one_line_domain_error(capsys, flag, value):
    code, out, err = run(capsys, "char", "--type", "A2", flag, value)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot parse ")


def test_weyl_over_budget_fails_before_enumerating(capsys, monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "weyl", "--type", "E8")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and "LIEPAR_BUDGET" in err


@pytest.mark.parametrize("job, message", [
    # binomial(20001, k) weights, though V(20000 w1) itself is within budget;
    # binomial(20001, 10000) has about 6,000 digits and is never formed
    ("20000w1^3", "exterior power of dimension binomial(20001, 3) exceeds budget 1000000"
     "; set LIEPAR_BUDGET to raise it"),
    ("20000w1^10000",
     "exterior power of dimension binomial(20001, 10000) exceeds budget 1000000"
     "; set LIEPAR_BUDGET to raise it"),
    # V itself over budget is refused first, whatever the power
    ("100000000w1^50000000", "weight system of dimension 100000001 exceeds budget 1000000"
     "; set LIEPAR_BUDGET to raise it"),
])
def test_exterior_over_budget_fails_before_building(capsys, monkeypatch, job, message):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "char", "--type", "A1", "--exterior", job)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("emit", ["dims", "gram"])
def test_schurweyl_over_budget_fails_before_enumerating(capsys, monkeypatch, emit):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)

    def refuse(d):
        raise AssertionError(f"partitions({d}) built before the Specht budget check")

    monkeypatch.setattr(schurweyl, "partitions", refuse)
    code, out, err = run(capsys, "schurweyl", "--d", "100", "--p", "2", "--emit", emit)
    assert code == 1 and out == ""
    assert err == "error: Specht |lambda| = 100 exceeds budget 8; set LIEPAR_BUDGET to raise it\n"


def test_torsion_oracle_over_budget_fails_before_the_first_lattice(capsys, monkeypatch):
    # the extended base of A16 has 17 roots, so the sweep has 2^17 - 1 combinations
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, "torsion", "--type", "A16", "--method", "oracle")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err == ("error: torsion oracle sweep of A16 (131071 combinations) exceeds budget 100000"
                   "; set LIEPAR_BUDGET to raise it\n")


def test_weyl_budget_counts_cosets_not_elements(capsys, monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    code, out, _ = run(capsys, "weyl", "--type", "E8", "--J", "1,2,3,4,5,6,7")
    assert code == 0
    assert len(json.loads(out)["representatives"]) == 240


def _write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


QUADRANT = {"rank": 2, "rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}


@pytest.mark.parametrize("argv,message", [
    (("nilpotent", "--partition", "3,a", "--n", "4"), "cannot parse partition"),
    (("toric", "--fan", "{quadrant}", "--subdivide", "1,a"), "cannot parse ray"),
    (("toric", "--fan", "{quadrant}", "--subdivide", "1,1,1"), "does not have 2 coordinates"),
    (("schurweyl", "--d", "0"), "--d must be a positive integer"),
    (("toric", "--fan", "{no_cones}"), '"cones"'),
    (("intform", "--in", "{bare_rows}", "--p", "2"), '"rows"'),
    (("toric", "--fan", "{not_json}"), "Expecting value"),
    (("schurweyl", "--d", "3", "--p", "1"), "1 is not prime"),
    (("schurweyl", "--d", "3", "--p", "4", "--emit", "gram"), "4 is not prime"),
    (("toric", "--fan", "{cone_past_rays}"), "names a ray outside 0..1"),
    (("toric", "--fan", "{long_ray}"), "does not have 2 coordinates"),
    (("toric", "--fan", "{text_cone}"), '"cones" must be a list of integer lists'),
    (("toric", "--fan", "{repeated_ray}"), "names a ray twice"),
    (("toric", "--fan", "{quadrant}", "--tau", "{orthant}"), "fan has rank 2 but tau has rank 3"),
    (("toric", "--fan", "{quadrant}", "--tau", "{orthant}", "--paving"),
     "fan has rank 2 but tau has rank 3"),
    (("intform", "--in", "{float_entry}", "--p", "2"), '"rows" must be a list of integer lists'),
    (("intform", "--in", "{bool_entry}", "--p", "2"), '"rows" must be a list of integer lists'),
    (("intform", "--in", "{scalar_rows}", "--p", "2"), '"rows" must be a list of integer lists'),
    (("intform", "--in", "{scalar_row}", "--p", "2"), '"rows" must be a list of integer lists'),
    (("intform", "--in", "{text_entry}", "--p", "2"), '"rows" must be a list of integer lists'),
    (("intform", "--in", "{scalar_file}", "--p", "2"), '"rows"'),
    (("nilpotent", "--partition", ",", "--n", "0"), "n must be a positive integer"),
    (("char", "--type", "A2"), "char needs one of --tensor, --exterior, --certify-generation"),
    (("toric", "--fan", "{quadrant}", "--paving"), "--paving requires --tau"),
    # an option that would be ignored: only a paving has cells or a Poincare
    # polynomial, only the oracle certificates
    (("toric", "--fan", "{quadrant}", "--emit", "cells"), "--emit cells requires --paving"),
    (("toric", "--fan", "{quadrant}", "--subdivide", "1,1", "--emit", "cells"),
     "--emit cells requires --paving"),
    (("toric", "--fan", "{quadrant}", "--emit", "poincare"), "--emit poincare requires --paving"),
    (("toric", "--fan", "{quadrant}", "--subdivide", "1,1", "--emit", "poincare"),
     "--emit poincare requires --paving"),
    (("torsion", "--type", "F4", "--emit", "certificates"),
     "--emit certificates requires --method oracle or both"),
    (("toric", "--fan", "{rank_zero}"), "fan rank must be a positive integer, got 0"),
    (("toric", "--fan", "{rank_text}"), "fan rank must be a positive integer, got '2'"),
    (("toric", "--fan", "{overlapping}"), "cones (0, 1) and (1, 2) do not meet in a common face"),
    (("toric", "--fan", "{star}"), "cones (0, 1, 2) and (3, 4, 5) do not meet in a common face"),
    # every operation reads its fans through the same axiom check
    (("toric", "--fan", "{half_plane}"), "cone (0, 1, 2) is not strongly convex"),
    (("toric", "--fan", "{half_plane}", "--subdivide", "0,1"), "cone (0, 1, 2) is not strongly convex"),
    (("toric", "--fan", "{half_plane}", "--tau", "{quadrant}", "--paving"),
     "cone (0, 1, 2) is not strongly convex"),
    (("toric", "--fan", "{quadrant}", "--tau", "{half_plane}", "--paving"),
     "cone (0, 1, 2) is not strongly convex"),
    (("toric", "--fan", "{quadrant}", "--tau", "{two_cones}"),
     "tau must consist of a single full-dimensional cone"),
    (("toric", "--fan", "{quadrant}", "--tau", "{one_ray}", "--paving"),
     "tau must consist of a single full-dimensional cone"),
    (("toric", "--fan", "{quadrant}", "--subdivide", "0,0"), "zero vector is not a ray"),
    (("char", "--type", "A2", "--tensor", "w1"), "--tensor expects two comma-separated weights"),
    (("char", "--type", "A2", "--tensor", "x1,w1"), "cannot parse weight term 'x1'"),
    (("char", "--type", "A2", "--tensor", "w3,w1"), "fundamental index 3 out of range 1..2"),
    (("char", "--type", "A2", "--exterior", "w1^-1"), "exterior power must be nonnegative"),
    (("char", "--type", "A2", "--tensor", "w1,"), "weight '' has no term"),
    (("char", "--type", "A2", "--exterior", "^2"), "weight '' has no term"),
    (("char", "--type", "A2", "--exterior", "w1^"), "cannot parse exterior power ''"),
])
def test_malformed_input_is_one_line_domain_error(capsys, tmp_path, argv, message):
    files = {
        "quadrant": _write(tmp_path / "quadrant.json", QUADRANT),
        "no_cones": _write(tmp_path / "no_cones.json", {"rank": 2, "rays": [[1, 0]]}),
        "bare_rows": _write(tmp_path / "rows.json", [[2, -1], [-1, 2]]),
        "not_json": str(tmp_path / "fan.txt"),
        "cone_past_rays": _write(tmp_path / "past.json", {**QUADRANT, "cones": [[0, 5]]}),
        "long_ray": _write(tmp_path / "long.json", {**QUADRANT, "rays": [[1, 0], [0, 1, 0]]}),
        "text_cone": _write(tmp_path / "text.json", {**QUADRANT, "cones": [[0, "x"]]}),
        "repeated_ray": _write(tmp_path / "twice.json", {**QUADRANT, "cones": [[0, 0]]}),
        "orthant": _write(tmp_path / "orthant.json", {
            "rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "cones": [[0, 1, 2]]}),
        # a JSON 1.5 or true is not an integer, though int() would take it
        "float_entry": _write(tmp_path / "float.json", {"rows": [[1.5]]}),
        "bool_entry": _write(tmp_path / "bool.json", {"rows": [[True]]}),
        "scalar_rows": _write(tmp_path / "scalar.json", {"rows": 5}),
        "scalar_row": _write(tmp_path / "row.json", {"rows": [5]}),
        "text_entry": _write(tmp_path / "text_entry.json", {"rows": [["a"]]}),
        "scalar_file": _write(tmp_path / "five.json", 5),
        "rank_zero": _write(tmp_path / "rank0.json", {"rank": 0, "rays": [], "cones": []}),
        "rank_text": _write(tmp_path / "rank_text.json", {**QUADRANT, "rank": "2"}),
        # the cone on (0, 1) and (1, 1) lies inside the quadrant
        "overlapping": _write(tmp_path / "overlap.json", {
            "rank": 2, "rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 1], [1, 2]]}),
        # two triangles at height 1 crossing as a star of David, no ray of one in the other
        "star": _write(tmp_path / "star.json", {
            "rank": 3, "rays": [[0, 0, 1], [4, 0, 1], [2, 3, 1], [0, 2, 1], [4, 2, 1], [2, -1, 1]],
            "cones": [[0, 1, 2], [3, 4, 5]]}),
        "half_plane": _write(tmp_path / "half_plane.json", {
            "rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "cones": [[0, 1, 2]]}),
        "two_cones": _write(tmp_path / "two_cones.json", {
            "rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "cones": [[0, 1], [1, 2]]}),
        "one_ray": _write(tmp_path / "one_ray.json", {"rank": 2, "rays": [[1, 0]], "cones": [[0]]}),
    }
    (tmp_path / "fan.txt").write_text("rank 2\n")
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ("char", "--type", "A2", "--tensor", "w1,w1", "--exterior", "w1^2"),
    ("char", "--type", "A2", "--tensor", "w1,w1", "--certify-generation"),
    ("char", "--type", "A2", "--exterior", "w1^2", "--certify-generation"),
    ("toric", "--fan", "{quadrant}", "--tau", "{quadrant}", "--paving", "--subdivide", "1,1"),
])
def test_conflicting_operations_are_usage_errors(capsys, tmp_path, argv):
    quadrant = _write(tmp_path / "quadrant.json", QUADRANT)
    with pytest.raises(SystemExit) as exc:
        cli.main([a.format(quadrant=quadrant) for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument" in out.err


CHAIN_FAN = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "cones": [[0, 1], [1, 2]]}
CHAIN_TAU = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
TWO_FORMS = [{"label": "a", "n": 2, "rows": [[2, -1], [-1, 2]]}, {"label": "s", "n": 1, "rows": [[-2]]}]
CHAIN_CONES = {"cones": [[], [0], [1], [2], [0, 1], [1, 2]], "orbit_dimensions": [2, 1, 1, 1, 0, 0],
               "complete": False, "simplicial": True, "smooth": True, "seed": 0, "subcommand": "toric"}
B4_TORSION = {"fast": [2], "method": "fast", "minimal_orbit_primes": [2], "primes": [2], "seed": 0,
              "subcommand": "torsion", "type": "B4"}

# (argv, JSON document, TSV stdout, text stdout) of documents the library
# returns as plain dicts; the JSON stdout is the document as _emit dumps it
PINNED_DOCUMENTS = [
    (("intform", "--in", "{forms}", "--p", "3"),
     {"decomposition_theorem_holds": False, "prime": 3, "seed": 0, "subcommand": "intform", "strata": [
         {"label": "a", "multiplicity": 1, "nondegenerate": False, "radical_dimension": 1,
          "rank_fp": 1, "rank_q": 2, "size": 2},
         {"label": "s", "multiplicity": 1, "nondegenerate": True, "radical_dimension": 0,
          "rank_fp": 1, "rank_q": 1, "size": 1}]},
     "# decomposition_theorem_holds=False\n# prime=3\n# seed=0\n# subcommand=intform\n"
     "a\t2\t2\t1\t1\t1\ns\t1\t1\t1\t1\t0\n",
     "decomposition_theorem_holds: False\nprime: 3\nseed: 0\nsubcommand: intform\n"),
    (("nilpotent", "--partition", "3,2,2,1", "--n", "8"),
     {"centralizer": "GL1 x GL2 x GL1", "conjugate": [4, 3, 1], "dimension": 38,
      "partition": [3, 2, 2, 1], "resolution_source": "T*(GL8/P_(4,3,1))", "seed": 0,
      "subcommand": "nilpotent"},
     "# centralizer=GL1 x GL2 x GL1\n# dimension=38\n# resolution_source=T*(GL8/P_(4,3,1))\n"
     "# seed=0\n# subcommand=nilpotent\n38\tGL1 x GL2 x GL1\n",
     "centralizer: GL1 x GL2 x GL1\ndimension: 38\nresolution_source: T*(GL8/P_(4,3,1))\n"
     "seed: 0\nsubcommand: nilpotent\n"),
    (("toric", "--fan", "{fan}"),
     {**CHAIN_CONES, "refines_tau": None},
     "# complete=False\n# refines_tau=None\n# seed=0\n# simplicial=True\n# smooth=True\n"
     "# subcommand=toric\n",
     "complete: False\nrefines_tau: None\nseed: 0\nsimplicial: True\nsmooth: True\nsubcommand: toric\n"),
    (("toric", "--fan", "{fan}", "--tau", "{tau}"),
     {**CHAIN_CONES, "refines_tau": True},
     "# complete=False\n# refines_tau=True\n# seed=0\n# simplicial=True\n# smooth=True\n"
     "# subcommand=toric\n",
     "complete: False\nrefines_tau: True\nseed: 0\nsimplicial: True\nsmooth: True\nsubcommand: toric\n"),
    (("toric", "--fan", "{fan}", "--tau", "{tau}", "--paving"),
     {"cell_count": 2, "even": True, "poincare": [1, 0, 1], "relevant_cone_count": 3, "seed": 0,
      "subcommand": "toric"},
     "# cell_count=2\n# even=True\n# relevant_cone_count=3\n# seed=0\n# subcommand=toric\n1 + q^2\n",
     "cell_count: 2\neven: True\nrelevant_cone_count: 3\nseed: 0\nsubcommand: toric\n"),
    (("torsion", "--type", "B4"),
     {**B4_TORSION, "tilting_bound": "p > 3"},
     "# method=fast\n# seed=0\n# subcommand=torsion\n# tilting_bound=p > 3\n# type=B4\n2\n",
     "method: fast\nseed: 0\nsubcommand: torsion\ntilting_bound: p > 3\ntype: B4\n"),
    (("torsion", "--type", "B4", "--improved-bounds"),
     {**B4_TORSION, "tilting_bound": "p > 2"},
     "# method=fast\n# seed=0\n# subcommand=torsion\n# tilting_bound=p > 2\n# type=B4\n2\n",
     "method: fast\nseed: 0\nsubcommand: torsion\ntilting_bound: p > 2\ntype: B4\n"),
    (("torsion", "--type", "A2"),
     {"fast": [], "method": "fast", "minimal_orbit_primes": [], "primes": [], "seed": 0,
      "subcommand": "torsion", "tilting_bound": "any p", "type": "A2"},
     "# method=fast\n# seed=0\n# subcommand=torsion\n# tilting_bound=any p\n# type=A2\n",
     "method: fast\nseed: 0\nsubcommand: torsion\ntilting_bound: any p\ntype: A2\n"),
    (("torsion", "--type", "A1xA1"),
     {"fast": [], "method": "fast", "minimal_orbit_primes": None, "primes": [], "seed": 0,
      "subcommand": "torsion", "type": "A1xA1"},
     "# method=fast\n# minimal_orbit_primes=None\n# seed=0\n# subcommand=torsion\n# type=A1xA1\n",
     "method: fast\nminimal_orbit_primes: None\nseed: 0\nsubcommand: torsion\ntype: A1xA1\n"),
]


@pytest.mark.parametrize("argv,document,tsv,text", PINNED_DOCUMENTS,
                         ids=[" ".join(case[0]) for case in PINNED_DOCUMENTS])
def test_document_stdout_is_pinned(capsys, tmp_path, argv, document, tsv, text):
    files = {"forms": _write(tmp_path / "forms.json", TWO_FORMS),
             "fan": _write(tmp_path / "fan.json", CHAIN_FAN),
             "tau": _write(tmp_path / "tau.json", CHAIN_TAU)}
    argv = [a.format(**files) for a in argv]
    for fmt, expected in [("json", json.dumps(document, sort_keys=True, indent=2) + "\n"),
                          ("tsv", tsv), ("text", text)]:
        assert run(capsys, *argv, "--format", fmt) == (0, expected, "")


def test_rootsys_emits(capsys):
    code, out, _ = run(capsys, "rootsys", "--type", "E8", "--emit", "minuscule")
    assert code == 0 and json.loads(out)["minuscule"] == []
    code, out, _ = run(capsys, "rootsys", "--type", "G2", "--emit", "h-dual")
    doc = json.loads(out)
    assert doc["h_dual"] == 4 and doc["minimal_orbit_dimension"] == 6


@pytest.mark.parametrize("label", ["G2", "B3", "E6", "A2xB2"])
def test_rootsys_emits_the_library_tables(capsys, label):
    rs = build_root_system(label)
    for emit, key, expected in [("roots", "roots", [list(r) for r in rs.roots]),
                                ("coroots", "coroots", [list(co) for co in rs.positive_coroots]),
                                ("fundamental-group", "fundamental_group", list(rs.fundamental_group()))]:
        code, out, _ = run(capsys, "rootsys", "--type", label, "--emit", emit)
        assert code == 0 and json.loads(out)[key] == expected


def test_schurweyl_emits_the_gram_matrices(capsys):
    code, out, _ = run(capsys, "schurweyl", "--d", "5", "--emit", "gram")
    assert code == 0
    grams = json.loads(out)["grams"]
    assert [tuple(g["partition"]) for g in grams] == schurweyl.partitions(5)
    for g in grams:
        form = schurweyl.specht_gram(tuple(g["partition"])).form
        assert g["size"] == form.size
        assert g["matrix"] == [list(row) for row in form.matrix]


def test_schurweyl_dims(capsys):
    code, out, _ = run(capsys, "schurweyl", "--d", "3", "--p", "2")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 2]


def test_schurweyl_builds_one_gram_per_p_regular_partition_with_k_above_one(capsys, monkeypatch):
    # k = v_2(det G^lambda) is 0, 1, 9 and 0 on the 2-regular partitions of 6;
    # k <= 1 gives the rank from f^lambda alone, so only (4, 2) is built
    built = []
    specht_gram = schurweyl.specht_gram

    def counted(lam, *args, **kwargs):
        built.append(lam)
        return specht_gram(lam, *args, **kwargs)

    monkeypatch.setattr(schurweyl, "specht_gram", counted)
    code, out, _ = run(capsys, "schurweyl", "--d", "6", "--p", "2")
    assert code == 0
    regular = [tuple(r["partition"]) for r in json.loads(out)["p_regular"]]
    assert regular == [(6,), (5, 1), (4, 2), (3, 2, 1)]
    assert built == [(4, 2)]


def test_closed_pipe_ends_quietly():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "liepar.cli", "rootsys", "--type", "E8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the command has written anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_nilpotent(capsys):
    code, out, _ = run(capsys, "nilpotent", "--partition", "2,1", "--n", "3")
    doc = json.loads(out)
    assert doc["dimension"] == 4 and doc["centralizer"] == "GL1 x GL1"


def test_toric_paving(capsys, tmp_path):
    fan = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "cones": [[0, 1], [1, 2]]}
    tau = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
    fan_path, tau_path = tmp_path / "fan.json", tmp_path / "tau.json"
    fan_path.write_text(json.dumps(fan))
    tau_path.write_text(json.dumps(tau))
    code, out, _ = run(capsys, "toric", "--fan", str(fan_path), "--tau", str(tau_path),
                       "--paving", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["poincare"] == [1, 0, 1]
    assert doc["even"] is True and doc["seed"] == 7


def test_toric_paving_cells_partition_the_relevant_cones(capsys, tmp_path):
    # the positive orthant star-subdivided along (1, 1, 1)
    fan = toricpave.star_subdivision(
        toricpave.Fan.from_dict({"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                 "cones": [[0, 1, 2]]}), (1, 1, 1))
    tau = {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "cones": [[0, 1, 2]]}
    fan_path = _write(tmp_path / "fan.json", fan.to_dict())
    tau_path = _write(tmp_path / "tau.json", tau)
    code, out, _ = run(capsys, "toric", "--fan", fan_path, "--tau", tau_path,
                       "--paving", "--emit", "cells")
    assert code == 0
    doc = json.loads(out)
    members = [tuple(m) for cell in doc["cells"] for m in cell["members"]]
    result = toricpave.paving(fan, toricpave.Fan.from_dict(tau))
    assert len(members) == len(set(members)) == doc["relevant_cone_count"]
    assert set(members) == set(result.relevant_cones)
    assert doc["cell_count"] == len(doc["cells"]) == len(fan.maximal_cones())
    assert doc["cells"] == result.cells  # the cells are the documents the CLI prints


def test_toric_paving_emit_poincare_is_the_default(capsys, tmp_path):
    # --emit has no default, so that it can be refused without --paving
    fan = _write(tmp_path / "fan.json", {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]], "cones": [[0, 1], [1, 2]]})
    tau = _write(tmp_path / "tau.json", QUADRANT)
    for fmt in ("json", "tsv", "text"):
        plain = run(capsys, "toric", "--fan", fan, "--tau", tau, "--paving", "--format", fmt)
        assert plain[0] == 0 and plain[1]
        assert run(capsys, "toric", "--fan", fan, "--tau", tau, "--paving", "--emit", "poincare",
                   "--format", fmt) == plain


@pytest.mark.parametrize("fan", [
    # the second cone reaches the ray (-1, 1) outside the quadrant
    {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 1]], "cones": [[0, 1], [1, 2]]},
    # the ray (0, 1) is a maximal cone of dimension 1
    {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]], "cones": [[0, 1], [2]]},
], ids=["ray-outside-tau", "lower-dimensional-cone"])
def test_toric_fan_that_does_not_refine_tau(capsys, tmp_path, fan):
    argv = ("toric", "--fan", _write(tmp_path / "fan.json", fan),
            "--tau", _write(tmp_path / "tau.json", QUADRANT))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["refines_tau"] is False
    code, out, err = run(capsys, *argv, "--paving")
    assert code == 1 and out == ""
    assert err == "error: fan does not refine tau with equal support\n"


@pytest.mark.parametrize("field,value,message", [
    ("source", None, "golden table torsion_primes is missing its source description"),
    ("id", "torsion", "golden table torsion_primes has mismatched id 'torsion'"),
    ("kind", "torsion", "unknown golden table kind 'torsion'"),
])
def test_golden_malformed_fixture_is_one_line_domain_error(capsys, tmp_path, field, value, message):
    for name in TABLE_NAMES:
        table = load_table(name)
        if name == "torsion_primes":  # the table replayed first
            table[field] = value
        _write(tmp_path / f"{name}.json", table)
    code, out, err = run(capsys, "golden", "--fixtures", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def _drop_rows(table):
    del table["rows"]


def _drop_primes(table):
    del table["rows"][1]["primes"]


def _drop_minuscule(table):
    del table["rows"][1]["minuscule"]


def _text_in_weight(table):
    table["rows"][0]["left"] = [1, "a"]


def _long_tensor_weight(table):
    table["rows"][0]["left"] = [1, 0, 0, 0, 0, 0, 0, 0]


def _long_exterior_weight(table):
    table["rows"][7]["weight"] = [1, 0, 0, 0, 0, 0, 3]


@pytest.mark.parametrize("name,tamper,message", [
    ("torsion_primes", _drop_rows, "golden table torsion_primes has no list of rows"),
    ("torsion_primes", _drop_primes, "golden table torsion_primes: rows[1] has no key 'primes'"),
    ("weights", _drop_minuscule, "golden table weights: rows[1] has no key 'minuscule'"),
    ("torsion_primes", lambda table: [table], "golden table torsion_primes is not a JSON object"),
    ("decompositions", _text_in_weight,
     "golden table decompositions: rows[0] is malformed: invalid literal for int() with base 10: 'a'"),
    ("decompositions", _long_tensor_weight, "golden table decompositions: rows[0] is malformed: "
     "weight [1, 0, 0, 0, 0, 0, 0, 0] does not have 7 coordinates, the rank of E7"),
    ("decompositions", _long_exterior_weight, "golden table decompositions: rows[7] is malformed: "
     "weight [1, 0, 0, 0, 0, 0, 3] does not have 6 coordinates, the rank of E6"),
], ids=["no-rows", "no-primes", "no-minuscule", "list-table", "text-in-weight",
        "long-tensor-weight", "long-exterior-weight"])
def test_golden_malformed_row_is_one_line_domain_error(capsys, tmp_path, name, tamper, message):
    for table_name in TABLE_NAMES:
        table = load_table(table_name)
        if table_name == name:
            table = tamper(table) or table  # a tamper edits the table or returns a new one
        _write(tmp_path / f"{table_name}.json", table)
    code, out, err = run(capsys, "golden", "--fixtures", str(tmp_path))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_golden_row_over_budget_is_not_malformed(capsys, monkeypatch):
    # the first decomposition row needs the 133-dimensional weight system of E7
    monkeypatch.setenv("LIEPAR_BUDGET", "10")
    code, out, err = run(capsys, "golden")
    assert code == 1 and out == ""
    assert err == "error: weight system of dimension 133 exceeds budget 10; set LIEPAR_BUDGET to raise it\n"


def test_intform_reads_forms_under_a_forms_key(capsys, tmp_path):
    forms = [{"label": "a", "n": 2, "rows": [[2, -1], [-1, 2]]}, {"label": "s", "n": 1, "rows": [[-2]]}]
    plain = run(capsys, "intform", "--in", _write(tmp_path / "list.json", forms), "--p", "3")
    wrapped = run(capsys, "intform", "--in", _write(tmp_path / "forms.json", {"forms": forms}), "--p", "3")
    assert plain[0] == 0 and json.loads(plain[1])["strata"]
    assert wrapped == plain


def test_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "rootsys", "--type", "E9")
    assert code == 1 and "error" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["rootsys", "--unknown-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-subcommand"])
    assert exc.value.code == 2


def test_byte_identical_output(capsys):
    _, first, _ = run(capsys, "char", "--type", "F4", "--exterior", "w4^2")
    _, second, _ = run(capsys, "char", "--type", "F4", "--exterior", "w4^2")
    assert first == second


def test_seed_in_header_for_every_subcommand(capsys):
    code, out, _ = run(capsys, "schurweyl", "--d", "2", "--p", "2")
    assert json.loads(out)["seed"] == 0


def test_doc_lint_subcommand_descriptions():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    expected_keywords = {
        "rootsys": "root",
        "weyl": "quotient",
        "torsion": "torsion",
        "char": "decomposition",
        "intform": "rank",
        "schurweyl": "Gram",
        "nilpotent": "orbit",
        "toric": "paving",
        "golden": "golden",
    }
    assert set(sub.choices) == set(expected_keywords)
    for name, p in sub.choices.items():
        assert p.description and expected_keywords[name] in p.description


def test_golden_suite_passes(capsys):
    code, out, _ = run(capsys, "golden")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["failures"] == []


def test_golden_corrupted_fixture_fails(tmp_path, capsys):
    import shutil
    from importlib import resources

    src = resources.files("liepar").joinpath("golden_data")
    for name in TABLE_NAMES:
        shutil.copy(str(src.joinpath(f"{name}.json")), tmp_path / f"{name}.json")
    doc = json.loads((tmp_path / "torsion_primes.json").read_text())
    for row in doc["rows"]:
        if row["type"] == "E8":
            row["primes"] = [2, 3, 7]
    (tmp_path / "torsion_primes.json").write_text(json.dumps(doc))
    code, out, err = run(capsys, "golden", "--fixtures", str(tmp_path))
    assert code == 1
    assert "MISMATCH" in err and "E8" in err


def test_golden_tables_have_sources():
    for name in TABLE_NAMES:
        table = load_table(name)
        assert table["source"]


def test_run_golden_report_shape():
    report = run_golden()
    assert report.passed
    assert len(report.outcomes) > 150


def _one_shot_weyl(label, I, J, emit, fmt):
    """The `weyl` document as the CLI wrote it before streaming: the whole
    list built, then one `_emit` call."""
    rs = build_root_system(label)
    reps = weyl.double_quotient_reps(rs, I, J)
    doc = cli._document("weyl", type=rs.type_name(),
                        I=sorted(i + 1 for i in I), J=sorted(j + 1 for j in J))
    word = lambda w: "-".join(str(i + 1) for i in w.word) or "e"
    if emit == "reps":
        doc["representatives"] = [{"word": [i + 1 for i in w.word], "length": w.length} for w in reps]
        rows = [(word(w), w.length) for w in reps]
    else:
        polys = [(w, weyl.stratum_poincare(rs, I, J, w.word)) for w in reps]
        doc["poincare"] = [{"word": [i + 1 for i in w.word], "polynomial": list(p.coeffs)}
                           for w, p in polys]
        rows = [(word(w), str(p)) for w, p in polys]
    return "".join(cli._emit(doc, fmt, rows)) + "\n"


def _index_sets(rank):
    last = rank - 1
    return sorted({((), ()), ((0,), ()), ((), (last,)), (tuple(range(last)), tuple({0, last}))})


@pytest.mark.parametrize("label,I,J", [
    (label, I, J)
    for label in ("A1", "A2", "A3", "A4", "A5", "B3", "C4", "D5", "F4", "G2")
    for I, J in _index_sets(build_root_system(label).rank)
] + [
    # ranks above 5: 27, 240 and 18 rows, the E8 words using letters up to 8
    ("E6", (), tuple(range(5))), ("E8", (), tuple(range(7))), ("D6", tuple(range(5)), (0, 5)),
    # 11 rows whose words use the two-digit letter 10
    ("A10", (), tuple(range(9))),
    # 132 rows, several words per level, using the two-digit letters 10 and 11
    ("A11", (), tuple(range(1, 10))),
    # levels with no representative: lengths 0-3 and 5-6, and no length 1
    ("B3", (0, 1), (0,)), ("A4", (0, 1, 2), (3,)),
])
def test_streamed_weyl_equals_one_shot_emit(capsys, label, I, J):
    argv = ["weyl", "--type", label,
            "--I", ",".join(str(i + 1) for i in I), "--J", ",".join(str(j + 1) for j in J)]
    for emit in ("reps", "poincare"):
        for fmt in ("json", "tsv", "text"):
            code, out, err = run(capsys, *argv, "--emit", emit, "--format", fmt)
            assert (code, err) == (0, "")
            assert out == _one_shot_weyl(label, I, J, emit, fmt), (emit, fmt)


def _alone(word, length):
    """The levels of `word` alone at its level, after `length` levels with no
    representative."""
    return [[] for _ in range(length)] + [[bytes(word)]]


def _words(seed, count, length, letters):
    """`count` seeded words of `length` letters drawn from `letters`."""
    rng = random.Random(seed)
    return [bytes(rng.choice(letters) for _ in range(length)) for _ in range(count)]


@pytest.mark.parametrize("rank,levels,coeffs", [
    pytest.param(8, _alone((), 0), (1,), id="identity"),
    pytest.param(8, _alone((0,), 1), (0, 1), id="letter-1"),
    pytest.param(8, _alone((7,), 1), (0, 1, 7), id="letter-8"),
    pytest.param(8, _alone((7, 6, 4, 3, 1, 0), 6), (0,) * 6 + (1, 7, 27, 106), id="length-6"),
    # 600 words of one length span more than two batches, after the identity
    # and five levels with no representative
    pytest.param(8, [[b""]] + [[]] * 5 + [_words(0, 600, 6, range(8))], (0, 1, 7), id="600-words"),
    # nine one-digit labels: every byte below nine is a letter
    pytest.param(9, _alone(range(9), 9) + [_words(1, 300, 10, range(9))], (0, 1), id="rank-9"),
    # labels up to "256": letters 9, 99, 124 ("|" as a byte) and 255, alone
    # and in a level of 600 words
    pytest.param(256, _alone((9, 99, 124, 255), 4) + [_words(2, 600, 5, (0, 8, 9, 98, 99, 124, 254, 255))],
                 (0, 0, 1), id="rank-256"),
])
def test_weyl_row_templates_match_json_dumps(rank, levels, coeffs):
    labels = [str(i + 1) for i in range(rank)]
    dumps = lambda row: json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")
    formats = {"json": (",\n    ", lambda d, letters: dumps({"word": letters, "length": d})),
               "tsv": ("\n", lambda d, letters: "%s\t%d" % ("-".join(map(str, letters)) or "e", d))}
    for fmt, (row_sep, row) in formats.items():
        # each chunk: the rows of up to _BATCH words of one length, joined as `_emit` joins rows
        chunks = [row_sep.join(row(d, [i + 1 for i in word]) for word in words[start:start + cli._BATCH])
                  for d, words in enumerate(levels) for start in range(0, len(words), cli._BATCH)]
        assert list(cli._reps_rows(levels, labels, fmt)) == chunks, fmt
    for d, words in enumerate(levels):
        for word in words:
            assert cli._poincare_row(labels, word, coeffs) == \
                dumps({"word": [i + 1 for i in word], "polynomial": list(coeffs)})


def test_reps_chunks_hold_at_most_a_batch():
    # the memory of `weyl` does not grow with its output: every chunk of the
    # 51,840 rows of W(E6) carries at most _BATCH rows, and some carry that many
    args = cli.build_parser().parse_args(["weyl", "--type", "E6", "--emit", "reps"])
    counts = [chunk.count('"length":') for chunk in args.func(args)]
    assert sum(counts) == 51840
    assert max(counts) == cli._BATCH


def test_streamed_rows_empty_list_matches_one_shot():
    doc = cli._document("weyl", type="A1")
    for fmt in ("json", "tsv", "text"):
        streamed = "".join(cli._emit(doc, fmt, [], "representatives"))
        assert streamed == "".join(cli._emit({**doc, "representatives": []}, fmt, []))


def test_reps_rows_build_no_elements(capsys, monkeypatch):
    # neither emit builds an element: reps rows and stratum polynomials read the walk's words
    argv = ("weyl", "--type", "E6", "--J", "1,2,3,4,5")
    expected = {(emit, fmt): _one_shot_weyl("E6", (), tuple(range(5)), emit, fmt)
                for emit in ("reps", "poincare") for fmt in ("json", "tsv")}

    def refuse(*args, **kwargs):
        raise AssertionError("WeylElement built")

    monkeypatch.setattr(weyl, "_new", refuse)  # every element is built through it
    for (emit, fmt), out in expected.items():
        assert run(capsys, *argv, "--emit", emit, "--format", fmt) == (0, out, ""), (emit, fmt)


def _env_without_budget():
    env = {k: v for k, v in os.environ.items() if k != "LIEPAR_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return env


def test_closed_pipe_mid_stream_ends_quietly():
    # all of W(E7) is 2,903,040 rows, about 1.2 GB: only a streamed document
    # can be cut short after its first 64 KiB
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "liepar.cli", "weyl", "--type", "E7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_without_budget())
    head = proc.stdout.read(64 * 1024)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    assert time.perf_counter() - start < 20
    assert head.startswith(b'{\n  "I": [],\n  "J": [],\n  "representatives": [\n')


def test_huge_root_system_is_refused_before_any_table():
    # the 100000 x 100000 Cartan matrix alone would not fit in a 1 GiB address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "liepar.cli", "rootsys", "--type", "A100000"],
                          capture_output=True, text=True, env=_env_without_budget(),
                          preexec_fn=limit_memory, timeout=60)
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("error: root table of A100000 (10000100000 roots x rank 100000) "
                           "exceeds budget 1000000; set LIEPAR_BUDGET to raise it\n")


def test_bad_budget_override_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("LIEPAR_BUDGET", "1e6")
    code, out, err = run(capsys, "rootsys", "--type", "A1")
    assert code == 2 and out == ""
    assert err == "error: LIEPAR_BUDGET must be a positive integer, got '1e6'\n"


def test_invariant_failure_mid_stream_exits_3(capsys, monkeypatch):
    stratum_poincare = weyl.stratum_poincare
    calls = []

    def failing(rs, I, J, w):
        calls.append(w)
        if len(calls) == 3:
            raise InvariantError("stratum check failed")
        return stratum_poincare(rs, I, J, w)

    monkeypatch.setattr(weyl, "stratum_poincare", failing)
    code, out, err = run(capsys, "weyl", "--type", "A3", "--emit", "poincare")
    assert code == 3
    assert err == "error: invariant failed: stratum check failed\n"
    assert out.startswith('{\n  "I": [],\n  "J": [],\n  "poincare": [\n')
    assert len(calls) == 3


def test_invariant_failure_exits_3(capsys, monkeypatch):
    from liepar import characters

    def failing(*args):
        raise InvariantError("Weyl dimension formula must give an integer")

    monkeypatch.setattr(characters, "weyl_dimension", failing)
    code, out, err = run(capsys, "char", "--type", "A2", "--tensor", "w1,w2")
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: invariant failed: ")



def test_paving_tie_at_the_generic_point_exits_3(capsys, monkeypatch, tmp_path):
    # the chain fan on (1, 0), (1, 1), (1, 2) refining the cone on (1, 0), (1, 2)
    fan = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "cones": [[0, 1], [1, 2]]}
    tau = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}
    # (1, 1) spans the wall between the two cones, where their covectors agree
    monkeypatch.setattr(toricpave, "_generic_point", lambda fan, pl, seed: (1, 1))
    with pytest.raises(InvariantError, match="^generic point produced a tie across a wall$"):
        toricpave.paving(toricpave.Fan.from_dict(fan), toricpave.Fan.from_dict(tau))
    code, out, err = run(capsys, "toric", "--fan", _write(tmp_path / "fan.json", fan),
                         "--tau", _write(tmp_path / "tau.json", tau), "--paving")
    assert (code, out) == (3, "")
    assert err == "error: invariant failed: generic point produced a tie across a wall\n"


SUBCOMMAND_MODULES = ("characters", "golden", "intform", "schurweyl", "torsion", "toricpave", "weyl")

# Prints, after each stage, those of the modules named in argv whose bodies
# have run.  A lazy module is of a subclass of ModuleType until the first
# read of one of its attributes, and the check reads none.
BODIES_RUN = """
import contextlib, io, json, sys, types
import liepar.cli

def ran():
    return [n for n in sys.argv[1:] if type(sys.modules.get("liepar." + n)) is types.ModuleType]

stages = {"import": ran()}
with contextlib.redirect_stdout(io.StringIO()):
    try:
        liepar.cli.main(["--help"])
    except SystemExit:
        pass
    stages["--help"] = ran()
    liepar.cli.main(["rootsys", "--type", "A1"])
    stages["rootsys"] = ran()
    liepar.cli.main(["torsion", "--type", "A1"])
    stages["torsion"] = ran()
print(json.dumps(stages))
"""


def test_subcommand_modules_run_only_when_their_subcommand_runs():
    proc = subprocess.run([sys.executable, "-c", BODIES_RUN, *SUBCOMMAND_MODULES], capture_output=True,
                          text=True, env=_env_without_budget(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages["import"] == stages["--help"] == stages["rootsys"] == []
    assert stages["torsion"] == ["torsion"]  # the check sees a body that has run


# argv: the module whose body a command runs, then the command; prints which
# of the two slow stdlib modules are loaded once the command has run
SLOW_MODULES_LOADED = """
import contextlib, io, sys, types
if sys.argv[2:]:
    import liepar.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert liepar.cli.main(sys.argv[2:]) == 0
    assert type(sys.modules["liepar." + sys.argv[1]]) is types.ModuleType  # its body has run
print(sorted({"dataclasses", "decimal", "fractions", "inspect"} & sys.modules.keys()))
"""

# one cheap job per subcommand, with the module that runs it
IMPORT_GUARD_JOBS = [
    ("rootsys", ("rootsys", "--type", "A1")),
    ("weyl", ("weyl", "--type", "B3", "--I", "1", "--J", "2", "--emit", "poincare")),
    ("torsion", ("torsion", "--type", "A2", "--method", "both", "--emit", "certificates")),
    ("characters", ("char", "--type", "G2", "--certify-generation")),
    ("intform", ("intform", "--in", "forms.json", "--p", "2")),
    ("schurweyl", ("schurweyl", "--d", "3", "--p", "2")),
    ("schurweyl", ("nilpotent", "--partition", "2,1", "--n", "3")),
    ("toricpave", ("toric", "--fan", "fan.json", "--tau", "tau.json", "--paving", "--emit", "cells")),
    ("golden", ("golden",)),
]


@pytest.mark.parametrize("module,argv", IMPORT_GUARD_JOBS, ids=[argv[0] for _, argv in IMPORT_GUARD_JOBS])
def test_command_does_not_import_slow_modules(tmp_path, module, argv):
    # `import dataclasses` costs every process that loads it about 12 ms, most
    # of it in `inspect`, which it imports; `fractions` loads `decimal`, and
    # no command needs a rational
    _write(tmp_path / "forms.json", [{"label": "s", "n": 1, "rows": [[-2]]}])
    _write(tmp_path / "fan.json", {"rank": 2, "rays": [[1, 0], [1, 1], [0, 1]], "cones": [[0, 1], [1, 2]]})
    _write(tmp_path / "tau.json", QUADRANT)

    def loaded(*args):
        proc = subprocess.run([sys.executable, "-c", SLOW_MODULES_LOADED, *args], capture_output=True,
                              text=True, env=_env_without_budget(), cwd=tmp_path, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split("\n")[0]

    if loaded() != "[]":
        pytest.skip("the bare interpreter already loads one of the modules checked")
    assert loaded(module, *argv) == "[]"


# argv: a module name, and which of it and liepar.cli is imported first
SAME_MODULE = """
import importlib, sys
name, first = sys.argv[1:]
if first == "module":
    module = importlib.import_module("liepar." + name)
    import liepar.cli
else:
    import liepar.cli
    module = importlib.import_module("liepar." + name)
import liepar
assert getattr(liepar.cli, name) is module is sys.modules["liepar." + name] is getattr(liepar, name)
vars(module)  # runs the body, in place
assert getattr(liepar.cli, name) is module is sys.modules["liepar." + name]
"""


@pytest.mark.parametrize("first", ["module", "cli"])
@pytest.mark.parametrize("name", SUBCOMMAND_MODULES)
def test_cli_binds_the_one_module_object(name, first):
    assert getattr(cli, name) is sys.modules[f"liepar.{name}"]
    proc = subprocess.run([sys.executable, "-c", SAME_MODULE, name, first], capture_output=True,
                          text=True, env=_env_without_budget(), timeout=60)
    assert proc.returncode == 0, proc.stderr
