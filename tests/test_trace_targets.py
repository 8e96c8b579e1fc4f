"""perfbench's hooks into ganfault: the names it patches and what they return.

The perfbench suite runs apart from these tests, so without these checks a
renamed or deleted function, or a result it can no longer read, would
break only a benchmark run.
"""

import ast
import importlib.util
import json
from pathlib import Path

from ganfault import cli, emit
from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
from ganfault.netlist import serialize_netlist

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.patch_table()
    assert table
    for owner, attr, _, _ in table:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)


def test_every_name_perfbench_imports_exists():
    # perfbench imports ganfault names inside the functions that use them,
    # so a deleted or renamed one would otherwise fail only a benchmark run.
    imported = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ganfault"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.add((node.module, alias.name))
                    assert hasattr(module, alias.name) or importlib.util.find_spec(
                        f"{node.module}.{alias.name}"
                    ), (path.name, node.module, alias.name)
    assert {("ganfault.analysis", "analytic_mean_iterations"),
            ("ganfault.netlist", "serialize_netlist"),
            ("ganfault.circuit", "pair_layer")} <= imported


def test_dataset_results_read_as_perfbench_counts_them(tmp_path, monkeypatch):
    # perfbench wraps emit.run_experiment and counts each result's accepted
    # rows against the manifest; its tracer reads .iterations of every row.
    ckt = tmp_path / "andnot8.ckt"
    ckt.write_text(serialize_netlist(
        Circuit(8, [pair_layer(GateKind.AND, 8), unary_layer(GateKind.NOT, 8)])
    ))
    results = []
    original = emit.run_experiment

    def counted(cfg, **kwargs):
        samples = original(cfg, **kwargs)
        results.append(samples)
        return samples

    monkeypatch.setattr(emit, "run_experiment", counted)
    runs = ["clean=", "reverse=reverse:L1.S1", "missing=missing:L2.S1", "noisy=flip:0.1"]
    argv = ["dataset", "--ckt", str(ckt), "--eps", "0.125", "--trials", "200",
            "--max-iterations", "4", "--seed", "1", "--out", str(tmp_path / "out")]
    for run in runs:
        argv += ["--run", run]
    assert cli.main(argv) == 0
    entries = json.loads((tmp_path / "out" / "manifest.json").read_text())["entries"]
    assert len(results) == len(runs) == len(entries)
    for samples, entry in zip(results, entries):
        assert len(samples) == 200
        rows = list(samples)
        assert all(s.iterations >= 1 for s in rows)
        assert sum(1 for s in rows if s.accepted) == entry["samples"]
    assert any(0 < e["samples"] < 200 for e in entries)  # some trials censored
