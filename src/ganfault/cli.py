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
only prints.  Every option's ``--config`` type test, default, range and
argparse keywords come from one table, ``_OPTIONS``, and each subcommand
names the options it takes in ``_COMMANDS``: the parser, the defaults and
the type and range checks are all derived from them.  A process builds
its argument parser once, however often :func:`main` runs in it.
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
import functools
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
_GRID = (lambda v: type(v) is str or type(v) is list and all(map(_NUMBER[0], v)),
         "a grid string or a list of numbers")
_RUNS = (lambda v: type(v) is list and all(map(_STR[0], v)), "a list of LABEL=FAULTSPECS strings")

#: Every option, as (type test of its --config value, None if it is no
#: config key; default, None where run.json holds the option only when it
#: is given; inclusive (low, high) range, each end None for no bound;
#: argparse keywords, None if it has no flag).  The ranged rows come last,
#: in the order their bounds are checked, once config and flags are merged
#: and before any work starts; trials below 1 are left to
#: :meth:`ExperimentConfig.validate`.  "memoize" is no longer written; it is
#: kept so that older run.json files replay.
_OPTIONS = {
    "ckt": (_STR, None, None, dict(help="circuit netlist file (.ckt)")),
    "fault": (_STR, "", None, dict(help="comma-separated fault specs")),
    "seed": (_INT, None, None, dict(type=int, help="base RNG seed (required)")),
    "mode": (_STR, "fault-compare", None, dict(choices=["fault-compare", "target-search"])),
    "max_iterations": (_INT, 1_000_000, None, dict(type=int)),
    "out": (_STR, None, None, dict(help="output directory")),
    "config": (None, None, None, dict(help="JSON file with defaults for any option")),
    "eps": (_NUMBER, 0.1, None, dict(type=float, help="uncertainty level in [0, 1]")),
    "grid": (_GRID, "0:0.5:0.05", None, dict(help="epsilon grid 'start:stop:step' or comma list")),
    "tau": (_NUMBER, analysis.DEFAULT_TAU, None,
            dict(type=float, help="nonlinearity threshold on rho")),
    "run": (_RUNS, [], None, dict(action="append", metavar="LABEL=FAULTSPECS",
                                  help="the label and faults of one image; repeatable")),
    "memoize": ((lambda v: type(v) is bool, "true or false"), None, None, None),
    "workers": (_INT, 1, (1, None), dict(type=int, help="accepted (at least 1) so older "
                                         "run.json files replay; has no effect")),
    "min_samples": (_INT, analysis.DEFAULT_MIN_SAMPLES, (0, None),
                    dict(type=int, help="accepted samples needed before a level is trusted")),
    "trials": (_INT, 1000, (None, MAX_TRIALS),
               dict(type=int, help=f"number of trials per experiment, 1..{MAX_TRIALS}")),
    "bins": (_INT, 64, (1, MAX_BINS), dict(type=int, help=f"histogram grid size, 1..{MAX_BINS}")),
    "canvas": (_INT, 480, (64, MAX_CANVAS),
               dict(type=int, help=f"scatter canvas size in pixels, 64..{MAX_CANVAS}")),
}

_COMMON = ("ckt", "fault", "trials", "seed", "mode", "max_iterations", "workers", "out", "config")
#: Each subcommand's parser keywords and its options in --help order; a
#: (name, help) pair replaces the table's help of that option there.
_COMMANDS = {
    "simulate": (dict(help="one experiment: samples CSV + scatter SVG"),
                 (*_COMMON, "eps", "canvas")),
    "sweep": (dict(help="epsilon grid: sweep CSV + transition JSON"),
              (*_COMMON, "grid", "tau", "min_samples")),
    "table1": (dict(help="exhaustive reversed-composition deviations"),
               (("out", "optional output directory for the JSON report"), "config")),
    "spectrum": (dict(help="pair-energy spectrum of an experiment"), (*_COMMON, "eps")),
    # --fault stays accepted, and unlisted, so that a non-empty value gets the
    # clear error of cmd_dataset rather than argparse's.
    "dataset": (dict(help="labeled PGM histograms + manifest",
                     description="One labeled PGM histogram per --run.  The faults of "
                                 "each image come from its --run LABEL=FAULTSPECS entry."),
                ("ckt", ("fault", argparse.SUPPRESS), *_COMMON[2:], "eps", "bins", "run")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ganfault",
        description="Fault-tolerance estimation for logic circuits by "
                    "GAN-style rejection sampling.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, (keywords, names) in _COMMANDS.items():
        p = sub.add_parser(command, **keywords)
        for entry in names:
            name, override = (entry, None) if type(entry) is str else entry
            flag = _OPTIONS[name][3]
            p.add_argument("--" + name.replace("_", "-"),
                           **(flag if override is None else {**flag, "help": override}))
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Merge config-file values and explicit flags over the defaults."""
    resolved = {key: default for key, (_, default, _, _) in _OPTIONS.items()
                if default is not None}
    if args.config:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"config {args.config} must hold a JSON object")
        doc.pop("command", None)
        unknown = sorted(k for k in doc if k not in _OPTIONS or _OPTIONS[k][0] is None)
        if unknown:
            raise ValueError(
                f"config {args.config}: unknown key(s) {', '.join(map(repr, unknown))}"
            )
        for key, value in sorted(doc.items()):
            valid, kind = _OPTIONS[key][0]
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
    for key, (_, _, bounds, _) in _OPTIONS.items():
        if bounds is None:
            continue
        (low, high), value = bounds, resolved[key]
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
    # The count itself is not printed: a tiny step makes it absurd or inf.
    if count > MAX_GRID_LEVELS:
        raise ValueError(
            f"grid holds more than {MAX_GRID_LEVELS} epsilon levels; "
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
