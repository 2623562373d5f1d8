"""The benchmark's traced entry point must keep working.

`perfbench/tracing.py` wraps the names in its `WRAPPED` table by attribute
lookup when a traced job starts, so a refactor that drops or renames one,
or that leaves a wrapped module out of `sys.modules` after `import
liepar.cli`, would make every traced job fail; it fails here instead.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _wrapped_names():
    spec = importlib.util.spec_from_file_location("liepar_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.WRAPPED.items() for name in names]


@pytest.mark.parametrize("module,name", _wrapped_names())
def test_traced_name_is_callable(module, name):
    target = importlib.import_module(f"liepar.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


FAN = {"rank": 2, "rays": [[1, 0], [1, 1], [1, 2]], "cones": [[0, 1], [1, 2]]}
TAU = {"rank": 2, "rays": [[1, 0], [1, 2]], "cones": [[0, 1]]}

# one cheap job per subcommand, and a span its layer must record
TRACED_JOBS = [
    (("rootsys", "--type", "A1"), "rootsys.build"),
    (("weyl", "--type", "A2", "--emit", "poincare"), "weyl.stratum"),
    (("torsion", "--type", "A2"), "torsion.fast"),
    (("char", "--type", "A2", "--tensor", "w1,w2"), "characters.klimyk"),
    (("intform", "--in", "forms.json", "--p", "2"), "intform.rank"),
    (("schurweyl", "--d", "3", "--p", "2", "--emit", "gram"), "schurweyl.gram"),
    (("nilpotent", "--partition", "2,1", "--n", "3"), "schurweyl.nilpotent"),
    (("toric", "--fan", "fan.json", "--tau", "tau.json", "--paving"), "toricpave.paving"),
    (("golden",), "golden.replay"),
]


@pytest.mark.parametrize("argv,span", TRACED_JOBS, ids=[argv[0] for argv, _ in TRACED_JOBS])
def test_traced_job_runs_and_records_its_layer(tmp_path, argv, span):
    (tmp_path / "forms.json").write_text(json.dumps([{"label": "s", "n": 1, "rows": [[-2]]}]))
    (tmp_path / "fan.json").write_text(json.dumps(FAN))
    (tmp_path / "tau.json").write_text(json.dumps(TAU))
    env = {k: v for k, v in os.environ.items() if k != "LIEPAR_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(TRACING), str(spans), "job", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert span in json.loads(spans.read_text())["totals"]
