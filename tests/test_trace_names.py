"""Every function that the benchmark's traced pass wraps must exist.

`perfbench/tracing.py` wraps the names in its `WRAPPED` table by attribute
lookup when a traced job starts, so a refactor that drops or renames one
would make every traced job fail; it fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
