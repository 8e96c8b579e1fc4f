"""perfbench's tracer replaces ganfault functions by name; each must exist.

The perfbench suite runs apart from these tests, so without this check a
renamed or deleted function would break only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.patch_table()
    assert table
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
