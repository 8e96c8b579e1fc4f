import json
import random
import shutil
import subprocess
import sys

import pytest

from ganfault import analysis
from ganfault.circuit import BitVector, Circuit, GateKind, unary_layer
from ganfault.cli import (
    MAX_BINS,
    MAX_CANVAS,
    MAX_GRID_LEVELS,
    MAX_TRIALS,
    _grid,
    build_parser,
    main,
)
from ganfault.netlist import serialize_netlist
from ganfault.sampler import DeviationSample, ExperimentConfig, run_experiment

from conftest import src_env


@pytest.fixture
def not8_ckt(tmp_path):
    path = tmp_path / "not8.ckt"
    path.write_text(serialize_netlist(Circuit(8, [unary_layer(GateKind.NOT, 8)])))
    return path


@pytest.fixture
def not4_ckt(tmp_path):
    path = tmp_path / "not4.ckt"
    path.write_text(serialize_netlist(Circuit(4, [unary_layer(GateKind.NOT, 4)])))
    return path


def test_simulate_writes_outputs(not8_ckt, tmp_path, capsys):
    out = tmp_path / "run1"
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--fault", "swap:L1.S1:buffer",
        "--eps", "0.25", "--trials", "500", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    assert (out / "run.json").exists()
    assert (out / "samples.csv").exists()
    assert (out / "scatter.svg").exists()
    assert "500 trials" in capsys.readouterr().out
    rows = (out / "samples.csv").read_text().splitlines()
    assert len(rows) == 501


def test_simulate_missing_netlist(tmp_path, capsys):
    code = main([
        "simulate", "--ckt", str(tmp_path / "nope.ckt"),
        "--eps", "0.1", "--seed", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "nope.ckt" in capsys.readouterr().err


def test_simulate_epsilon_out_of_range(not8_ckt, tmp_path, capsys):
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--eps", "1.5",
        "--seed", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "epsilon out of range" in capsys.readouterr().err


def test_seed_is_required(not8_ckt, tmp_path, capsys):
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--eps", "0.1",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["simulate", "--frobnicate"]) == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_run_json_replay_reproduces_bytes(not8_ckt, tmp_path):
    first = tmp_path / "first"
    main([
        "simulate", "--ckt", str(not8_ckt), "--fault", "missing:L1.S1",
        "--eps", "0.25", "--trials", "400", "--seed", "11", "--out", str(first),
    ])
    second = tmp_path / "second"
    code = main([
        "simulate", "--config", str(first / "run.json"), "--out", str(second),
    ])
    assert code == 0
    assert (first / "samples.csv").read_bytes() == (second / "samples.csv").read_bytes()
    assert (first / "scatter.svg").read_bytes() == (second / "scatter.svg").read_bytes()


def test_old_run_json_with_memoize_false_replays(not8_ckt, tmp_path):
    fresh = tmp_path / "fresh"
    assert main([
        "simulate", "--ckt", str(not8_ckt), "--fault", "swap:L1.S1:buffer",
        "--mode", "target-search", "--eps", "0.25", "--trials", "300",
        "--seed", "11", "--out", str(fresh),
    ]) == 0
    doc = json.loads((fresh / "run.json").read_text())
    assert "memoize" not in doc
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**doc, "memoize": False, "workers": 1}))
    replayed = tmp_path / "replayed"
    assert main(["simulate", "--config", str(old), "--out", str(replayed)]) == 0
    assert (fresh / "samples.csv").read_bytes() == (replayed / "samples.csv").read_bytes()
    assert "memoize" not in json.loads((replayed / "run.json").read_text())


def test_run_json_with_memoize_true_exits_2(not8_ckt, tmp_path, capsys):
    config = tmp_path / "old.json"
    config.write_text(json.dumps(
        {"ckt": str(not8_ckt), "seed": 1, "trials": 10, "memoize": True}
    ))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert "'memoize' was removed" in capsys.readouterr().err
    assert not out.exists()


def test_memoize_flag_exits_2(not8_ckt, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "10",
        "--seed", "1", "--memoize", "--out", str(out),
    ])
    assert code == 2
    assert "--memoize" in capsys.readouterr().err
    assert not out.exists()


def test_workers_do_not_change_bytes(not8_ckt, tmp_path):
    outs = []
    for i, w in enumerate(("1", "8")):
        out = tmp_path / f"w{i}"
        main([
            "simulate", "--ckt", str(not8_ckt), "--fault", "flip:0.2",
            "--eps", "0.5", "--trials", "300", "--seed", "3",
            "--workers", w, "--out", str(out),
        ])
        outs.append(out)
    assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()


def test_sweep_fault_free_reports_no_transition(not8_ckt, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--ckt", str(not8_ckt), "--grid", "0:0.2:0.1",
        "--trials", "300", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "transition.json").read_text())
    assert doc["epsilon_star"] is None
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("epsilon,trials,accepted")
    assert "transition epsilon* = none" in capsys.readouterr().out


def test_sweep_finds_transition_for_interchanged_device(not8_ckt, tmp_path):
    out = tmp_path / "sweep2"
    code = main([
        "sweep", "--ckt", str(not8_ckt), "--fault", "swap:L1.S1:buffer",
        "--mode", "target-search", "--trials", "500", "--seed", "9",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "transition.json").read_text())
    # First grid level admitting one flipped bit out of 8 is 0.15.
    assert doc["epsilon_star"] == 0.15
    assert doc["tau"] == 0.05


def test_table1_report(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "AND-NOT vs NOT-AND" in out
    assert "0.500" in out and "0.625" in out
    assert "claim not reproduced" in out


def test_table1_json_output(tmp_path):
    out = tmp_path / "t1"
    assert main(["table1", "--out", str(out)]) == 0
    doc = json.loads((out / "table1.json").read_text())
    assert len(doc) == 5
    assert {e["computed"] for e in doc} == {0.5, 0.375, 0.625}
    assert (out / "run.json").exists()


def test_spectrum_exhaustive_small_width(not4_ckt, tmp_path):
    out = tmp_path / "spec"
    code = main([
        "spectrum", "--ckt", str(not4_ckt), "--fault", "flip:0.5",
        "--eps", "1.0", "--trials", "2000", "--seed", "13", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "spectrum.json").read_text())
    assert doc["width"] == 4 and doc["size"] == 2000
    assert [m["expected"] for m in doc["completeness"]] == [1, 4, 6, 4, 1]
    assert doc["complete"] is True
    degeneracies = {m["agreement_count"]: m["degeneracy"] for m in doc["manifolds"]}
    assert sum(degeneracies.values()) == 2000


def test_spectrum_empty_result_exits_3(not8_ckt, tmp_path, capsys):
    out = tmp_path / "spec3"
    code = main([
        "spectrum", "--ckt", str(not8_ckt), "--fault", "missing:L1.S1",
        "--eps", "0.0", "--trials", "100", "--max-iterations", "50",
        "--seed", "17", "--out", str(out),
    ])
    assert code == 3
    assert "no accepted samples" in capsys.readouterr().err


def test_cli_runs_build_no_deviation_sample(not8_ckt, tmp_path, monkeypatch):
    # Every artifact is read off the sampler's columns: a row is built only
    # when a caller reads one, and the spectrum reads agreement words, so no
    # BitVector is built either.
    built, vectors = [], []
    make, new = DeviationSample._make, DeviationSample.__new__
    monkeypatch.setattr(DeviationSample, "_make",
                        classmethod(lambda cls, fields: built.append(1) or make(fields)))
    monkeypatch.setattr(DeviationSample, "__new__",
                        lambda cls, *fields: built.append(1) or new(cls, *fields))
    check = BitVector.__post_init__
    monkeypatch.setattr(BitVector, "__post_init__", lambda v: vectors.append(1) or check(v))
    common = ["--ckt", str(not8_ckt), "--trials", "300", "--seed", "3",
              "--max-iterations", "50"]
    for argv in (
        ["simulate", "--fault", "missing:L1.S1,flip:0.1", "--eps", "0.25"],
        ["sweep", "--fault", "swap:L1.S1:buffer", "--mode", "target-search"],
        ["spectrum", "--fault", "flip:0.2", "--eps", "0.5"],
        ["dataset", "--eps", "0.25", "--run", "a=", "--run", "b=reverse:L1.S1"],
    ):
        assert main(argv + common + ["--out", str(tmp_path / argv[0])]) == 0, argv
    assert built == [] and vectors == []
    cfg = ExperimentConfig(circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
                           epsilon=0.25, trials=5, seed=3)
    assert len(list(run_experiment(cfg))) == 5
    DeviationSample(0, 0, 1, True, 0.0, "x")
    assert len(built) == 6  # the patches see rows built either way
    BitVector(8, 1)
    assert len(vectors) == 1


def test_dataset_labels_and_reruns(not8_ckt, tmp_path):
    args = [
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "300",
        "--seed", "19", "--max-iterations", "200",
        "--run", "missing=missing:L1.S1",
        "--run", "swap=swap:L1.S1:buffer",
        "--run", "reverse=reverse:L1.S1",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    files = [e["file"] for e in manifest["entries"]]
    assert files == ["missing.pgm", "swap.pgm", "reverse.pgm"]
    labels = [e["label"] for e in manifest["entries"]]
    assert labels == ["missing", "swap", "reverse"]
    for name in files + ["manifest.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_dataset_duplicate_labels(not8_ckt, tmp_path, capsys):
    out = tmp_path / "dup"
    code = main([
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "100",
        "--seed", "23", "--max-iterations", "100",
        "--run", "same=missing:L1.S1", "--run", "same=reverse:L1.S1",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["file"] for e in manifest["entries"]] == ["same.pgm", "same-2.pgm"]

    # "a-2" is also the suffixed name of the second "a": every image keeps a file.
    out = tmp_path / "collide"
    code = main([
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "100",
        "--seed", "23", "--max-iterations", "100",
        "--run", "a=", "--run", "a=", "--run", "a-2=flip:0.5", "--out", str(out),
    ])
    assert code == 0
    assert "dataset: 3 images" in capsys.readouterr().out
    files = [e["file"] for e in json.loads((out / "manifest.json").read_text())["entries"]]
    assert len(set(files)) == 3
    assert all((out / name).exists() for name in files)
    assert sorted(p.name for p in out.glob("*.pgm")) == sorted(files)


def test_dataset_requires_runs(not8_ckt, tmp_path, capsys):
    code = main([
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.1", "--trials", "10",
        "--seed", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "--run" in capsys.readouterr().err


def test_dataset_fault_in_config_exits_2(not8_ckt, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"fault": "missing:L1.S1", "run": ["a="]}))
    out = tmp_path / "o"
    code = main([
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.5", "--trials", "50",
        "--seed", "1", "--config", str(config), "--out", str(out),
    ])
    assert code == 2
    assert "from --run LABEL=FAULTSPECS, not --fault" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_help_names_run_as_the_source_of_faults(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["dataset", "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--fault" not in text
    assert "The faults of each image come from its --run LABEL=FAULTSPECS entry" in text
    assert "--run LABEL=FAULTSPECS the label and faults of one image" in text


def test_import_leaves_numpy_random_and_scipy_unloaded():
    # Each CLI call pays for what importing the CLI loads; numpy.random is
    # loaded at a run's first trial.  scipy is only a test extra, so a plain
    # install has none: the exact model, which the CLI loads, must not need it.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ganfault.cli; "
         "print('ganfault.exact' in sys.modules, sorted(m for m in sys.modules "
         "if m == 'scipy' or m.startswith(('numpy.random', 'scipy.'))))"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


def test_module_entry_point(not4_ckt):
    proc = subprocess.run(
        [sys.executable, "-m", "ganfault", "table1"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    assert "AND-XOR vs XOR-AND" in proc.stdout


def test_workers_below_one_exits_2(not8_ckt, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "10",
        "--seed", "1", "--workers", "0", "--out", str(out),
    ])
    assert code == 2
    assert "--workers must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_bins_above_maximum_exits_2(not8_ckt, tmp_path, capsys):
    code = main([
        "dataset", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "10",
        "--seed", "1", "--run", "clean=", "--bins", str(MAX_BINS + 1),
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"--bins must be in [1, {MAX_BINS}]" in capsys.readouterr().err


def test_canvas_above_maximum_exits_2(not8_ckt, tmp_path, capsys):
    code = main([
        "simulate", "--ckt", str(not8_ckt), "--eps", "0.25", "--trials", "10",
        "--seed", "1", "--canvas", str(MAX_CANVAS + 1), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"--canvas must be in [64, {MAX_CANVAS}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**12])
def test_trials_above_maximum_exits_2_before_out(
    command, source, trials, not8_ckt, tmp_path, capsys
):
    # A run allocates its columns for every trial before its first draw.
    out = tmp_path / "o"
    argv = [command, "--ckt", str(not8_ckt), "--seed", "1", "--out", str(out)]
    if source == "flag":
        argv += ["--trials", str(trials)]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"trials": trials}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert f"--trials must be <= {MAX_TRIALS}, got {trials}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_exits_2(not8_ckt, tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"ckt": str(not8_ckt), "seed": 1, "trails": 10}))
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key(s) 'trails'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--eps", "0.5"],
    ["sweep", "--grid", "0.5"],
    ["spectrum", "--eps", "0.5"],
    ["dataset", "--eps", "0.5", "--run", "clean="],
    ["table1"],
])
def test_every_run_json_replays(argv, not4_ckt, tmp_path):
    common = [] if argv[0] == "table1" else [
        "--ckt", str(not4_ckt), "--trials", "20", "--seed", "3",
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + common + ["--out", str(first)]) == 0
    replay = [argv[0], "--config", str(first / "run.json"), "--out", str(second)]
    assert main(replay) == 0


@pytest.mark.parametrize("command, key, value", [
    ("simulate", "trials", None),
    ("simulate", "eps", [0.1]),
    ("simulate", "ckt", 5),
    ("simulate", "memoize", "false"),
    ("simulate", "seed", 1.5),
    ("sweep", "grid", 5),
    ("sweep", "tau", None),
])
def test_wrongly_typed_config_value_exits_2(command, key, value, not8_ckt, tmp_path, capsys):
    config = tmp_path / "typed.json"
    doc = {"ckt": str(not8_ckt), "seed": 1, "trials": 10, key: value}
    config.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert f"{key!r} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0:inf:0.1", "0:0.5:nan", "nan:0.5:0.1", []])
def test_grid_without_valid_levels_exits_2(grid, not8_ckt, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"ckt": str(not8_ckt), "seed": 1, "grid": grid}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("grid, message", [
    ("nan:0.1:0.05", "grid start must be finite, got nan"),
    ("0:nan:0.1", "grid stop must be finite, got nan"),
    ("inf:1:0.1", "grid start must be finite, got inf"),
    ("0:1:inf", "grid step must be finite, got inf"),
    ("0:1:-0.1", "grid step must be positive, got -0.1"),
    ("0.5:0.1:0.1", "grid stop 0.1 is below its start 0.5"),
])
def test_malformed_grid_range_names_the_part_at_fault(grid, message, not4_ckt,
                                                      tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["sweep", "--ckt", str(not4_ckt), "--trials", "8", "--seed", "1",
            "--grid", grid, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, count", [
    ("0:1:1e-6", 1_000_001),
    ("0:1:1e-9", 1_000_000_002),  # counted, never built
    ("0:1:0.000999", 1002),
    (",".join(["0.5"] * 1002), 1002),
    ([0.5] * 1002, 1002),
])
def test_grid_with_too_many_levels_exits_2(grid, count, not8_ckt, tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"ckt": str(not8_ckt), "seed": 1, "grid": grid}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"grid holds {count} epsilon levels, more than {MAX_GRID_LEVELS}" in (
        capsys.readouterr().err
    )


def test_finest_allowed_grid():
    levels = _grid("0:1:0.001")
    assert len(levels) == MAX_GRID_LEVELS and levels[-1] == 1.0


@pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tau_exits_2(tau, not4_ckt, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([
        "sweep", "--ckt", str(not4_ckt), "--grid", "0.5", "--trials", "10",
        "--seed", "1", "--tau", tau, "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"tau must be positive and finite, got {float(tau)}" in err
    assert not (out / "transition.json").exists()


@pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
def test_bad_tau_exits_2_before_sampling(tau, not4_ckt, tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(analysis, "run_sweep", no_sampling)
    out = tmp_path / "o"
    code = main([
        "sweep", "--ckt", str(not4_ckt), "--grid", "0.5", "--trials", "10",
        "--seed", "1", "--tau", tau, "--out", str(out),
    ])
    assert code == 2
    assert "tau must be positive and finite" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command, extra, message", [
    ("simulate", ["--trials", "0"], "trials must be >= 1, got 0"),
    ("spectrum", ["--seed", "-1"], "seed must be a non-negative integer"),
    ("simulate", ["--max-iterations", "0"], "max iterations must be >= 1, got 0"),
    ("simulate", ["--mode", "target-search", "--eps", "0", "--max-iterations", str(1 << 63)],
     "max iterations must be <= 2**63 - 1, got 9223372036854775808"),
    ("sweep", ["--grid", "0.1,1.5"], "epsilon out of range [0, 1]: 1.5"),
    ("simulate", ["--fault", "missing:L9.S1"], "slot: layer 9 out of range"),
    ("dataset", ["--run", "bad"], "run entry must be LABEL=FAULTSPECS, got 'bad'"),
    ("dataset", ["--run", "a=swap:L1.S1:and"], "arity mismatch"),
    ("dataset", ["--fault", "missing:L1.S1", "--run", "a="],
     "from --run LABEL=FAULTSPECS, not --fault"),
    ("sweep", ["--min-samples", "-1"], "--min-samples must be >= 0, got -1"),
    ("simulate", ["--ckt", ""], "--ckt is required for simulate"),
])
def test_config_error_exits_2_before_writing(command, extra, message, not4_ckt,
                                             tmp_path, capsys):
    out = tmp_path / "o"
    argv = [command, "--ckt", str(not4_ckt), "--trials", "8", "--seed", "1",
            "--out", str(out)]
    argv += ["--grid", "0.5"] if command == "sweep" else ["--eps", "0.25"]
    assert main(argv + extra) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--eps", "0.25"],
    ["sweep", "--grid", "0.5"],
    ["spectrum", "--eps", "0.25"],
    ["dataset", "--eps", "0.25", "--run", "clean="],
], ids=["simulate", "sweep", "spectrum", "dataset"])
def test_empty_out_exits_2_without_writing(argv, not4_ckt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # an empty --out must not mean the working directory
    code = main(argv + ["--ckt", str(not4_ckt), "--trials", "8", "--seed", "0",
                        "--out", ""])
    assert code == 2
    assert f"--out is required for {argv[0]}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("run.json"))


def _flag(key, value) -> list[str]:
    name = "--" + key.replace("_", "-")
    if isinstance(value, list):
        return [token for item in value for token in (name, str(item))]
    return [name, str(value)]


def test_cli_and_config_fuzz_never_exits_1(not4_ckt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a fuzzed --out lands under tmp_path
    rng = random.Random(20261018)
    junk = [None, "", "x", -1, 0, 1.5, True, [], {}, "nan"]
    # Every integer is at most 64, so each accepted run takes milliseconds.
    valid = {
        "ckt": [str(not4_ckt)],
        "seed": [0, 7],
        "trials": [1, 8, 64],
        "eps": [0.0, 0.25, 1.0],
        "grid": ["0:0.5:0.25", "0.5", [0.0, 0.5]],
        "fault": ["", "flip:0.1", "swap:L1.S1:buffer", "missing:L1.S1"],
        "mode": ["fault-compare", "target-search"],
        "max_iterations": [1, 64],
        "memoize": [False],
        "workers": [1, 2],
        "tau": [0.05, 0.5],
        "min_samples": [0, 8],
        "bins": [1, 16],
        "canvas": [64],
        "run": [["a="], ["a=flip:0.1", "b=missing:L1.S1"]],
        "out": ["o"],
    }
    commands = ["simulate", "sweep", "spectrum", "dataset", "table1"]
    codes = []
    for case in range(300):
        # A configuration error must be caught before any file is written.
        shutil.rmtree(tmp_path / "o", ignore_errors=True)
        for stale in tmp_path.rglob("run.json"):
            stale.unlink()
        doc = {key: rng.choice(values) for key, values in valid.items()}
        argv = [rng.choice(commands)]
        for key in rng.sample(sorted(valid), rng.randint(1, 3)):
            value = rng.choice(junk + valid[key])
            if rng.random() < 0.5:
                doc[key] = value
            else:
                argv += _flag(key, value)
        config = tmp_path / f"case{case}.json"
        config.write_text(json.dumps(doc))
        code = main(argv + ["--config", str(config)])
        assert code in (0, 2, 3), (argv, doc, capsys.readouterr().err)
        if code == 2:
            assert not list(tmp_path.rglob("run.json")), (argv, doc)
        codes.append(code)
    assert {0, 2} <= set(codes)
