"""Every span the benchmark traces names a function that the package still has.

The benchmark's tracer (``perfbench/spans.py``) lists a missing hook and
drops its metrics, so a rename or deletion in ``src/`` would otherwise pass
unnoticed until the traced smoke test runs.  This reads the hook table by
path and runs no benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name, path", [hook[1:3] for hook in SPANS.HOOKS], ids=[hook[0] for hook in SPANS.HOOKS])
def test_every_benchmark_hook_resolves(module_name, path):
    module = importlib.import_module(f"{SPANS.PACKAGE}.{module_name}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(attr))
