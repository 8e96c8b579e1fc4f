"""Command-line entry point.

Subcommands: ``simulate`` (one epsilon -> samples CSV + scatter SVG),
``sweep`` (epsilon grid -> per-level CSV + transition JSON), ``table1``
(exhaustive reversed-composition report), ``spectrum`` (pair-energy
spectrum of an experiment), ``dataset`` (labeled PGM histograms for
classifier training).

Every run writes ``run.json``, an echo of the resolved configuration;
feeding it back through ``--config`` reproduces all outputs byte-exactly.
This module only computes results: :mod:`ganfault.emit` turns every one
of them, run.json included, into the bytes of an artifact.  An empty
``--ckt`` or ``--out`` counts as missing; ``table1`` without ``--out``
only prints.
Exit codes: 0 success, 2 configuration/parse error, 3 empty result,
1 internal error.  Unknown ``--config`` keys, ``--config`` values of
another type than their flag produces, ``--workers`` below 1,
``--min-samples`` below 0, ``--trials`` above ``MAX_TRIALS``, ``--bins``
/ ``--canvas`` outside their stated ranges and a non-empty ``fault`` for
``dataset`` (whose faults come from ``--run``) are configuration errors.
Every configuration error is caught before ``--out`` is created: each
experiment (every grid level of a sweep, every ``--run`` of a dataset)
passes :meth:`ExperimentConfig.validate`, the one check of epsilon,
trials, iterations and seed, and has its faults injected once.
``--workers`` is accepted so that older run.json files replay; it has no
effect.  Older run.json files may also hold ``"memoize"``, the key of a
removed input-replay option: ``false`` is accepted and dropped, ``true``
is a configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import analysis, emit
from .faults import inject_all, parse_fault_list
from .hopfield import MAX_COMPLETENESS_WIDTH, completeness_check, ensemble_from_samples, spectrum
from .netlist import NetlistError, parse_netlist
from .sampler import ComparisonMode, ExperimentConfig, run_experiment


class EmptyResultError(RuntimeError):
    pass


_DEFAULTS = {
    "fault": "",
    "eps": 0.1,
    "grid": "0:0.5:0.05",
    "trials": 1000,
    "mode": "fault-compare",
    "max_iterations": 1_000_000,
    "workers": 1,
    "tau": analysis.DEFAULT_TAU,
    "min_samples": analysis.DEFAULT_MIN_SAMPLES,
    "bins": 64,
    "canvas": 480,
    "run": [],
}

MAX_BINS = 1024  # the dataset histogram holds bins**2 int64 counts
MAX_CANVAS = 8192
# A run holds 25 B per trial per distinct accept radius (25 MB a radius here),
# of which a sweep at width N has up to N + 1; spectrum adds 8 B per accepted trial.
MAX_TRIALS = 1_000_000
MAX_GRID_LEVELS = 1001  # bounds the grid list and sweep.csv, one row a level

# JSON yields exact int, float, str, bool and list objects, so exact type
# tests also keep true/false out of the integer and number keys.
_INT = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in (int, float), "a number")
_STR = (lambda v: type(v) is str, "a string")

#: Every key a subcommand can write into run.json, hence every key a
#: ``--config`` document may hold (besides "command"), with a test for the
#: type of value its flag produces.  "memoize" is no longer written; it is
#: kept so that older run.json files replay.
_CONFIG_TYPES = {
    "ckt": _STR, "fault": _STR, "mode": _STR, "out": _STR,
    "seed": _INT, "trials": _INT, "max_iterations": _INT, "workers": _INT,
    "min_samples": _INT, "bins": _INT, "canvas": _INT,
    "eps": _NUMBER, "tau": _NUMBER,
    "memoize": (lambda v: type(v) is bool, "true or false"),
    "grid": (lambda v: type(v) is str or type(v) is list and all(map(_NUMBER[0], v)),
             "a grid string or a list of numbers"),
    "run": (lambda v: type(v) is list and all(map(_STR[0], v)),
            "a list of LABEL=FAULTSPECS strings"),
}

#: Inclusive integer ranges checked before any work starts; None is no
#: bound.  Trials below 1 are left to :meth:`ExperimentConfig.validate`.
_RANGES = {
    "workers": (1, None), "min_samples": (0, None), "trials": (None, MAX_TRIALS),
    "bins": (1, MAX_BINS), "canvas": (64, MAX_CANVAS),
}


def _add_common(
    p: argparse.ArgumentParser, *, fault_help: str = "comma-separated fault specs"
) -> None:
    p.add_argument("--ckt", help="circuit netlist file (.ckt)")
    p.add_argument("--fault", help=fault_help)
    p.add_argument("--trials", type=int,
                   help=f"number of trials per experiment, 1..{MAX_TRIALS}")
    p.add_argument("--seed", type=int, help="base RNG seed (required)")
    p.add_argument("--mode", choices=["fault-compare", "target-search"])
    p.add_argument("--max-iterations", type=int, dest="max_iterations")
    p.add_argument("--workers", type=int,
                   help="accepted (at least 1) so older run.json files replay; "
                        "has no effect")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="JSON file with defaults for any option")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ganfault",
        description="Fault-tolerance estimation for logic circuits by "
                    "GAN-style rejection sampling.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("simulate", help="one experiment: samples CSV + scatter SVG")
    _add_common(p)
    p.add_argument("--eps", type=float, help="uncertainty level in [0, 1]")
    p.add_argument("--canvas", type=int,
                   help=f"scatter canvas size in pixels, 64..{MAX_CANVAS}")

    p = sub.add_parser("sweep", help="epsilon grid: sweep CSV + transition JSON")
    _add_common(p)
    p.add_argument("--grid", help="epsilon grid 'start:stop:step' or comma list")
    p.add_argument("--tau", type=float, help="nonlinearity threshold on rho")
    p.add_argument("--min-samples", type=int, dest="min_samples",
                   help="accepted samples needed before a level is trusted")

    p = sub.add_parser("table1", help="exhaustive reversed-composition deviations")
    p.add_argument("--out", help="optional output directory for the JSON report")
    p.add_argument("--config", help="JSON file with defaults for any option")

    p = sub.add_parser("spectrum", help="pair-energy spectrum of an experiment")
    _add_common(p)
    p.add_argument("--eps", type=float, help="uncertainty level in [0, 1]")

    p = sub.add_parser(
        "dataset", help="labeled PGM histograms + manifest",
        description="One labeled PGM histogram per --run.  The faults of each "
                    "image come from its --run LABEL=FAULTSPECS entry.",
    )
    # --fault stays accepted, and unlisted, so that a non-empty value gets the
    # clear error of cmd_dataset rather than argparse's.
    _add_common(p, fault_help=argparse.SUPPRESS)
    p.add_argument("--eps", type=float, help="uncertainty level in [0, 1]")
    p.add_argument("--bins", type=int, help=f"histogram grid size, 1..{MAX_BINS}")
    p.add_argument("--run", action="append", metavar="LABEL=FAULTSPECS",
                   help="the label and faults of one image; repeatable")

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values and explicit flags over the defaults."""
    resolved = dict(_DEFAULTS)
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        doc.pop("command", None)
        unknown = sorted(doc.keys() - _CONFIG_TYPES.keys())
        if unknown:
            raise ValueError(
                f"config {args.config}: unknown key(s) {', '.join(map(repr, unknown))}"
            )
        for key, value in sorted(doc.items()):
            valid, kind = _CONFIG_TYPES[key]
            if not valid(value):
                raise ValueError(
                    f"config {args.config}: {key!r} must be {kind}, got {value!r}"
                )
        if doc.pop("memoize", False):
            raise ValueError(
                f"config {args.config}: 'memoize' was removed; every trial now "
                "draws fresh inputs, so only \"memoize\": false replays"
            )
        resolved.update(doc)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        resolved[key] = value
    for key, (low, high) in _RANGES.items():
        value = resolved[key]
        if (low is not None and value < low) or (high is not None and value > high):
            bound = (f"<= {high}" if low is None else f">= {low}" if high is None
                     else f"in [{low}, {high}]")
            raise ValueError(f"--{key.replace('_', '-')} must be {bound}, got {value}")
    return resolved


def _require(cfg: dict, key: str, command: str):
    if cfg.get(key) in (None, ""):
        raise ValueError(f"--{key.replace('_', '-')} is required for {command}")
    return cfg[key]


def _check_level_count(count) -> None:
    if count > MAX_GRID_LEVELS:
        raise ValueError(
            f"grid holds {count} epsilon levels, more than {MAX_GRID_LEVELS}; "
            "the finest grid allowed over [0, 1] is 0:1:0.001"
        )


def _grid(spec) -> list[float]:
    if isinstance(spec, (list, tuple)):
        values = [float(v) for v in spec]
    elif ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        for name, value in (("start", start), ("stop", stop), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"grid {name} must be finite, got {value}")
        if not step > 0:
            raise ValueError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"grid stop {stop} is below its start {start}")
        span = (stop + 1e-9 - start) / step  # the loop yields floor(span) + 1 levels
        _check_level_count(math.floor(span) + 1 if math.isfinite(span) else span)
        values = []
        while (v := round(start + len(values) * step, 10)) <= stop + 1e-9:
            values.append(v)
    else:
        values = [float(v) for v in spec.split(",")]
    _check_level_count(len(values))
    analysis._check_grid(values)
    return values


def _experiment_config(cfg: dict, command: str, epsilon: float) -> ExperimentConfig:
    """The validated experiment of ``cfg``; its faults are known to inject."""
    ckt_path = _require(cfg, "ckt", command)
    circuit = parse_netlist(Path(ckt_path).read_text(encoding="utf-8"))
    exp = ExperimentConfig(
        circuit=circuit,
        epsilon=float(epsilon),
        trials=cfg["trials"],
        seed=_require(cfg, "seed", command),
        faults=parse_fault_list(cfg["fault"]),
        mode=ComparisonMode(cfg["mode"]),
        max_iterations=cfg["max_iterations"],
    )
    exp.validate()
    inject_all(circuit, exp.faults)
    return exp


def _out_dir(cfg: dict, command: str) -> Path:
    """Create ``--out`` holding run.json; called once every check has passed."""
    out = Path(_require(cfg, "out", command))
    out.mkdir(parents=True, exist_ok=True)
    emit.write_json(out / "run.json", {"command": command, **cfg})
    return out


def cmd_simulate(cfg: dict) -> int:
    exp = _experiment_config(cfg, "simulate", cfg["eps"])
    out = _out_dir(cfg, "simulate")
    samples = run_experiment(exp)
    emit.write_samples_csv(samples, out / "samples.csv")
    size = cfg["canvas"]
    svg = emit.render_scatter(samples, exp.width, canvas=(size, size))
    (out / "scatter.svg").write_text(svg, encoding="utf-8")
    accepted = int(samples.accepted.sum())
    print(f"simulate: {len(samples)} trials, {accepted} accepted -> {out}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    tau = analysis.check_tau(float(cfg["tau"]))
    grid = _grid(cfg["grid"])
    exp = _experiment_config(cfg, "sweep", grid[0])
    for eps in grid[1:]:
        replace(exp, epsilon=eps).validate()
    out = _out_dir(cfg, "sweep")
    sweep = analysis.run_sweep(exp, grid)
    estimate = analysis.detect_transition(
        sweep, tau=tau, min_samples=cfg["min_samples"]
    )
    (out / "sweep.csv").write_text(emit.sweep_to_csv(sweep.points), encoding="utf-8")
    emit.write_json(out / "transition.json", asdict(estimate))
    shown = "none" if estimate.epsilon_star is None else f"{estimate.epsilon_star}"
    print(f"sweep: {len(grid)} levels, transition epsilon* = {shown} -> {out}")
    return 0


def cmd_table1(cfg: dict) -> int:
    entries = analysis.table1_report()
    print(f"{'pair':28s} {'rows':>7s} {'computed':>9s} {'claimed':>8s}  note")
    for e in entries:
        note = "matches claim" if e.reproduced else "claim not reproduced by Hamming metric"
        print(
            f"{e.pair:28s} ({e.rows[0]},{e.rows[1]})  "
            f"{e.computed:8.3f} {e.claimed:8.2f}  {note}"
        )
    if cfg.get("out"):
        out = _out_dir(cfg, "table1")
        emit.write_json(out / "table1.json",
                        [dict(asdict(e), reproduced=e.reproduced) for e in entries])
    return 0


def cmd_spectrum(cfg: dict) -> int:
    exp = _experiment_config(cfg, "spectrum", cfg["eps"])
    out = _out_dir(cfg, "spectrum")
    samples = run_experiment(exp)
    ensemble = ensemble_from_samples(samples, exp.width)
    if len(ensemble) == 0:
        raise EmptyResultError("no accepted samples")
    spec = spectrum(ensemble, exp.width)
    doc = {
        "size": spec.size,
        "width": spec.width,
        "energy_floor": spec.energy_floor,
        "manifolds": [asdict(m) for _, m in sorted(spec.manifolds.items())],
    }
    if exp.width <= MAX_COMPLETENESS_WIDTH:
        report = completeness_check(exp.width, ensemble)
        doc["complete"] = report.complete
        doc["completeness"] = asdict(report)["manifolds"]
    emit.write_json(out / "spectrum.json", doc)
    print(f"spectrum: {spec.size} configurations, "
          f"{len(spec.manifolds)} manifolds -> {out}")
    return 0


def cmd_dataset(cfg: dict) -> int:
    if cfg["fault"]:
        raise ValueError("dataset takes its faults from --run LABEL=FAULTSPECS, not --fault")
    exp = _experiment_config(cfg, "dataset", cfg["eps"])
    runs_spec = cfg.get("run") or []
    if not runs_spec:
        raise ValueError("--run LABEL=FAULTSPECS is required for dataset")
    runs = []
    for entry in runs_spec:
        label, sep, fault_text = entry.partition("=")
        if not sep:
            raise ValueError(f"run entry must be LABEL=FAULTSPECS, got {entry!r}")
        run = replace(exp, faults=parse_fault_list(fault_text))
        inject_all(run.circuit, run.faults)
        runs.append((label, run))
    out = _out_dir(cfg, "dataset")
    manifest = emit.emit_dataset(runs, out, bins=cfg["bins"])
    print(f"dataset: {len(manifest.entries)} images -> {out}")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "table1": cmd_table1,
    "spectrum": cmd_spectrum,
    "dataset": cmd_dataset,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = _resolve(args)
        return _HANDLERS[args.command](cfg)
    except EmptyResultError as exc:
        print(f"ganfault {args.command}: {exc}", file=sys.stderr)
        return 3
    except (NetlistError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"ganfault {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"ganfault {args.command}: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
