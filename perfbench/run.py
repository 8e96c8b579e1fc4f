"""The ganfault benchmark: closed-loop CLI workloads, driven in-process.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload not16-sweep --seed 1 --seconds 30 --trace 0

Each rep calls ``ganfault.cli.main`` once per CLI command of the workload,
one call after the other, with ``--workers 1``.  Reps repeat until the next
one would end after ``--seconds``.  Every artifact of every rep is checked;
a call fails on a non-zero exit code or a failed check.

``--trace 0`` prints the end-to-end metrics: the median set-up time of a
fresh interpreter (``setup_s``), the median rep wall time and the peak
resident memory of this process.  ``--trace 1`` alternates untraced and
traced reps (see ``tracing.py``) and prints the per-layer metrics: medians
over the traced reps plus the tracing overhead.  Traced and untraced reps
must write byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics and
their units are those BENCHMARK.json lists.  See README.md in this
directory for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

GRID = tuple(round(0.05 * i, 2) for i in range(11))  # the CLI's default grid
SETUP_PROBES = 9

# --- Workloads ----------------------------------------------------------


Check = Callable[[Path, "RepState"], list[str]]


@dataclass(frozen=True)
class Call:
    """One CLI command of a workload; its artifacts land in out/<name>."""

    name: str
    argv: tuple[str, ...]
    trials: int
    checks: tuple[Check, ...]


@dataclass
class RepState:
    """What one rep observed besides its artifacts."""

    dataset_accepted: list[int] = field(default_factory=list)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep_rows(trials: int) -> Check:
    def check(out: Path, state: RepState) -> list[str]:
        rows = _read_csv(out / "sweep.csv")
        eps = tuple(float(r["epsilon"]) for r in rows)
        bad = [r["epsilon"] for r in rows if int(r["trials"]) != trials]
        errors = []
        if eps != GRID:
            errors.append(f"sweep.csv levels {eps} != grid {GRID}")
        if bad:
            errors.append(f"sweep.csv levels {bad} do not hold {trials} trials")
        return errors

    return check


def check_transition(lo: float, hi: float) -> Check:
    def check(out: Path, state: RepState) -> list[str]:
        star = json.loads((out / "transition.json").read_text())["epsilon_star"]
        if star is None or not lo <= star <= hi:
            return [f"epsilon* = {star} outside [{lo}, {hi}]"]
        return []

    return check


def check_rho_zero(out: Path, state: RepState) -> list[str]:
    row = _read_csv(out / "sweep.csv")[0]
    if row["rho"] == "" or float(row["rho"]) != 0.0:
        return [f"rho at epsilon 0 is {row['rho']!r}, expected 0"]
    return []


def check_simulate(trials: int) -> Check:
    def check(out: Path, state: RepState) -> list[str]:
        rows = _read_csv(out / "samples.csv")
        accepted = sum(r["accepted"] == "true" for r in rows)
        dots = (out / "scatter.svg").read_text().count("<circle ")
        errors = []
        if len(rows) != trials:
            errors.append(f"samples.csv has {len(rows)} rows, expected {trials}")
        if dots != accepted:
            errors.append(f"scatter.svg has {dots} points, {accepted} accepted")
        return errors

    return check


def _diagonal_only(pgm: str) -> bool:
    """True when every non-zero pixel lies on the rising identity diagonal."""
    lines = pgm.split("\n")
    cols, rows = (int(v) for v in lines[1].split())
    for i, line in enumerate(lines[3:3 + rows]):
        for c, value in enumerate(line.split()):
            if value != "0" and c != rows - 1 - i:
                return False
    return True


def check_dataset(labels: tuple[str, ...], trials: int) -> Check:
    def check(out: Path, state: RepState) -> list[str]:
        entries = json.loads((out / "manifest.json").read_text())["entries"]
        errors = []
        files = [e["file"] for e in entries]
        if files != [f"{label}.pgm" for label in labels]:
            errors.append(f"manifest files {files}")
        samples = [e["samples"] for e in entries]
        if samples != state.dataset_accepted:
            errors.append(
                f"manifest samples {samples} != accepted per run "
                f"{state.dataset_accepted}"
            )
        if entries and entries[0]["samples"] != trials:
            errors.append(f"clean run accepted {entries[0]['samples']} of {trials}")
        if not _diagonal_only((out / "clean.pgm").read_text()):
            errors.append("clean.pgm has pixels off the diagonal")
        return errors

    return check


def check_spectrum(out: Path, state: RepState) -> list[str]:
    doc = json.loads((out / "spectrum.json").read_text())
    errors = []
    if not isinstance(doc.get("complete"), bool):
        return ["spectrum.json reports no completeness"]
    rows = doc["completeness"]
    if doc["complete"] != all(m["observed"] == m["expected"] for m in rows):
        errors.append("spectrum.json 'complete' disagrees with its manifolds")
    for m in rows:
        if m["expected"] != math.comb(doc["width"], m["agreement_count"]):
            errors.append(f"manifold {m['agreement_count']} expects {m['expected']}")
        if not 0 <= m["observed"] <= m["expected"]:
            errors.append(f"manifold {m['agreement_count']} observed {m['observed']}")
    if sum(m["degeneracy"] for m in doc["manifolds"]) != doc["size"]:
        errors.append("manifold degeneracies do not add up to the ensemble size")
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    netlist: str        # file under in/ that set-up parses
    fault: str          # fault list that set-up parses and injects
    oracle: bool        # the uniform-map iteration oracle applies
    build: Callable[[int, bool], list[Call]]


def _not16_sweep(seed: int, tiny: bool) -> list[Call]:
    trials, budget = (20, 2000) if tiny else (1000, 500_000)
    checks = [check_sweep_rows(trials)]
    if not tiny:
        checks += [check_transition(0.05, 0.25), check_rho_zero]
    argv = ("sweep", "--ckt", "in/not16.ckt", "--fault", "swap:L1.S1:buffer",
            "--mode", "target-search", "--trials", str(trials),
            "--max-iterations", str(budget), "--seed", str(seed),
            "--workers", "1", "--out", "out/sweep")
    return [Call("sweep", argv, trials * len(GRID), tuple(checks))]


def _andnot16_sweep(seed: int, tiny: bool) -> list[Call]:
    trials, budget = (20, 500) if tiny else (400, 50_000)
    checks = [check_sweep_rows(trials)]
    if not tiny:
        checks.append(check_transition(0.10, 0.35))
    argv = ("sweep", "--ckt", "in/andnot16.ckt", "--fault", "reverse:L1.S1",
            "--mode", "target-search", "--trials", str(trials),
            "--max-iterations", str(budget), "--seed", str(seed),
            "--workers", "1", "--out", "out/sweep")
    return [Call("sweep", argv, trials * len(GRID), tuple(checks))]


DATASET_RUNS = (("clean", ""), ("reverse", "reverse:L1.S1"),
                ("missing", "missing:L2.S1"), ("noisy", "flip:0.1"))


def _cli_artifacts(seed: int, tiny: bool) -> list[Call]:
    sim_trials, trials = (40, 20) if tiny else (10_000, 5000)
    common = ("--ckt", "in/andnot16.ckt", "--eps", "0.375",
              "--max-iterations", "2000", "--seed", str(seed), "--workers", "1")
    runs = tuple(a for label, spec in DATASET_RUNS for a in ("--run", f"{label}={spec}"))
    labels = tuple(label for label, _ in DATASET_RUNS)
    return [
        Call("simulate",
             ("simulate", *common, "--fault", "reverse:L1.S1,flip:0.1",
              "--mode", "fault-compare", "--trials", str(sim_trials),
              "--out", "out/simulate"),
             sim_trials, (check_simulate(sim_trials),)),
        Call("dataset",
             ("dataset", *common, "--trials", str(trials), *runs,
              "--out", "out/dataset"),
             trials * len(DATASET_RUNS), (check_dataset(labels, trials),)),
        Call("spectrum",
             ("spectrum", *common, "--fault", "flip:0.1", "--trials", str(trials),
              "--out", "out/spectrum"),
             trials, (check_spectrum,)),
    ]


def _andnot16_cli(seed: int, tiny: bool) -> list[Call]:
    # The two workloads above back to back.  BENCHMARK.json gates this one
    # rather than each alone: fewer workloads leave room for longer runs,
    # and only long runs keep the median steady on a shared host.
    return _andnot16_sweep(seed, tiny) + _cli_artifacts(seed, tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("not16-sweep", "not16.ckt", "swap:L1.S1:buffer", True, _not16_sweep),
        Workload("andnot16-sweep", "andnot16.ckt", "reverse:L1.S1", False,
                 _andnot16_sweep),
        Workload("cli-artifacts", "andnot16.ckt", "reverse:L1.S1,flip:0.1", False,
                 _cli_artifacts),
        Workload("andnot16-cli", "andnot16.ckt", "reverse:L1.S1,flip:0.1", False,
                 _andnot16_cli),
    )
}


def write_netlists(directory: Path) -> None:
    from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
    from ganfault.netlist import serialize_netlist

    directory.mkdir(parents=True, exist_ok=True)
    circuits = {
        "not16.ckt": Circuit(16, [unary_layer(GateKind.NOT, 16)]),
        "andnot16.ckt": Circuit(
            16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)]
        ),
    }
    for name, circuit in circuits.items():
        (directory / name).write_text(serialize_netlist(circuit), encoding="utf-8")


# --- Reps ---------------------------------------------------------------


@dataclass
class Rep:
    wall_s: float
    trials: int
    failures: dict[str, list[str]]    # call name -> reasons it failed
    digests: dict[str, str]           # call name -> artifact digest
    bytes_written: int
    sys_s: float                      # kernel time of this process
    minor_faults: int


def _digest(directory: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()[:16], size


def run_rep(calls: list[Call], main) -> Rep:
    """Run the calls back to back, then check what they wrote."""
    from ganfault import emit

    shutil.rmtree("out", ignore_errors=True)
    state = RepState()
    original = emit.run_experiment

    def counted(cfg, **kwargs):
        samples = original(cfg, **kwargs)
        state.dataset_accepted.append(sum(1 for s in samples if s.accepted))
        return samples

    codes, logs = [], []
    emit.run_experiment = counted
    try:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for call in calls:
            log = io.StringIO()
            with redirect_stdout(log), redirect_stderr(log):
                codes.append(main(list(call.argv)))
            logs.append(log.getvalue())
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        emit.run_experiment = original

    failures, digests, total_bytes, trials = {}, {}, 0, 0
    for call, code, log in zip(calls, codes, logs):
        out = Path("out") / call.name
        errors = [] if code == 0 else [f"exit {code}: {log.strip()[-300:]}"]
        if code == 0:
            trials += call.trials
            for check in call.checks:
                try:
                    errors += check(out, state)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    errors.append(f"{check.__qualname__}: {exc!r}")
        if errors:
            failures[call.name] = errors
        digests[call.name], size = _digest(out) if out.is_dir() else ("-", 0)
        total_bytes += size
    return Rep(wall, trials, failures, digests, total_bytes,
               after.ru_stime - before.ru_stime, after.ru_minflt - before.ru_minflt)


def iter_oracle(sweep_csv: Path) -> tuple[float, int]:
    """Largest relative gap of observed mean iterations from the uniform-map
    oracle, over levels with censored fraction <= 10%; and how many levels."""
    from ganfault.analysis import analytic_mean_iterations

    worst, used = 0.0, 0
    for row in _read_csv(sweep_csv):
        if row["mean_iterations"] == "" or float(row["censored_fraction"]) > 0.10:
            continue
        expected = analytic_mean_iterations(16, float(row["epsilon"]))
        worst = max(worst, abs(float(row["mean_iterations"]) - expected) / expected)
        used += 1
    return worst, used


# --- Set-up -------------------------------------------------------------


def measure_setup(workload: Workload) -> list[float]:
    """Median-ready set-up times of fresh interpreters (one warm-up first)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           f"in/{workload.netlist}", workload.fault]
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
        "loadavg_1m": os.getloadavg()[0],
        "device": "cpu only",
        "pinning": "none",
        "scope": "measures only the benchmark's own processes",
    }


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- Driver -------------------------------------------------------------


def _record(reps: list[Rep], rep: Rep, reference: dict[str, str]) -> None:
    """Append a rep; a call whose digest differs from the first rep's fails."""
    for name, digest in rep.digests.items():
        if digest != reference.setdefault(name, digest):
            rep.failures.setdefault(name, []).append(
                f"artifact digest {digest} != first rep {reference[name]}"
            )
    reps.append(rep)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool) -> tuple[list[Rep], dict]:
    from ganfault import cli
    from tracing import Tracer, layer_metrics

    calls = workload.build(seed, tiny)
    run_rep(calls, cli.main)    # warm-up: first reps run slow; not counted
    reps: list[Rep] = []
    digests: dict[str, str] = {}
    if not trace:
        start = time.perf_counter()
        while not reps or (time.perf_counter() - start
                           + statistics.median(r.wall_s for r in reps)) <= seconds:
            _record(reps, run_rep(calls, cli.main), digests)
        return reps, {}

    # Untraced and traced reps alternate, each pair in the other order.
    plain, traced, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + statistics.median(p.wall_s + t.wall_s
                                             for p, t in zip(plain, traced))
                         ) <= seconds:
        for traced_turn in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if traced_turn:
                tracer = Tracer()
                with tracer:
                    rep = run_rep(calls, tracer.wrap("cli.main", cli.main))
                metrics = layer_metrics(tracer.spans, GRID)
                metrics["emit.bytes_written"] = rep.bytes_written
                err, levels = (iter_oracle(Path("out/sweep/sweep.csv"))
                               if workload.oracle else (0.0, 0))
                metrics["analysis.iter_oracle_max_rel_err"] = err
                metrics["analysis.iter_oracle_levels"] = levels
                layers.append(metrics)
                traced.append(rep)
            else:
                rep = run_rep(calls, cli.main)
                plain.append(rep)
            _record(reps, rep, digests)
    tracer.write(WORK / f"spans-{workload.name}.csv")
    summary = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    summary.update({
        "process.sys_s": statistics.median(r.sys_s for r in plain),
        "process.minor_faults": statistics.median(r.minor_faults for r in plain),
        "trace.overhead_fraction": (traced_wall - plain_wall) / plain_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.pairs": len(traced),
    })
    return reps, summary


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: smoke-test sizes; size-dependent checks are skipped")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ganfault" / "cli.py").is_file():
        print(f"perfbench: no ganfault sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workload = WORKLOADS[args.workload]
    env = environment()

    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(run_dir)    # relative paths keep run.json, and so digests, stable
    try:
        write_netlists(Path("in"))
        setup = [] if args.trace else measure_setup(workload)
        reps, layers = measure(workload, args.seed, args.seconds, bool(args.trace),
                               args.scale == "tiny")
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)

    calls = len(reps) * len(reps[0].digests)
    failed = sum(len(r.failures) for r in reps)
    for i, rep in enumerate(reps):
        for name, errors in rep.failures.items():
            for error in errors:
                print(f"FAIL rep {i} {name}: {error}")
    print("fingerprint " + " ".join(f"{k}={v}" for k, v in reps[0].digests.items()))
    print("environment " + json.dumps(env, sort_keys=True))
    if setup:
        print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup))

    walls = [r.wall_s for r in reps]
    if args.trace:
        values = layers
    else:
        wall = statistics.median(walls)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "trials_per_s": statistics.median(r.trials for r in reps) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_fraction": (calls - failed) / calls,
        }
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed["per_layer" if args.trace else "end_to_end"]}
    print(f"{args.workload}: {len(reps)} reps, {calls} CLI calls, {failed} failed "
          f"(failed_fraction {failed / calls:.4f}), wall_s samples "
          + " ".join(f"{w:.3f}" for w in walls))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": calls, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
