"""Span recording around ganfault's public functions, from outside the package.

A :class:`Tracer` replaces each function at the place its callers look it
up (``cli``, ``analysis`` and ``emit`` bind ``run_experiment`` by name;
``sampler`` looks up ``run_trial``, ``trial_rng`` and ``inject_all`` in its
own globals at call time; ``Circuit.evaluate_batch`` is a class attribute)
and records one span per call: name, start, end, parent and an optional
payload.  Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer figures and :meth:`Tracer.write` stores them when the run ends.

Everything is single-threaded, so a plain stack gives each span its parent.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path


def _experiment_payload(args, kwargs, result):
    return (args[0].epsilon, result)


def _batch_payload(args, kwargs, result):
    return len(args[1])


def patch_table():
    """(owner, attribute, span name, payload) for every traced function."""
    from ganfault import analysis, cli, emit, sampler
    from ganfault.circuit import Circuit

    return [
        (cli, "parse_netlist", "netlist.parse", None),
        (cli, "parse_fault_list", "faults.parse", None),
        (sampler, "inject_all", "faults.inject", None),
        (cli, "run_experiment", "sampler.run_experiment", _experiment_payload),
        (analysis, "run_experiment", "sampler.run_experiment", _experiment_payload),
        (emit, "run_experiment", "sampler.run_experiment", _experiment_payload),
        (sampler, "trial_rng", "sampler.trial_rng", None),
        (sampler, "run_trial", "sampler.run_trial", None),
        (Circuit, "evaluate_batch", "circuit.evaluate_batch", _batch_payload),
        (analysis, "summarize_point", "analysis.summarize", None),
        (analysis, "detect_transition", "analysis.detect_transition", None),
        (cli, "ensemble_from_samples", "hopfield.ensemble", None),
        (cli, "spectrum", "hopfield.spectrum", None),
        (cli, "completeness_check", "hopfield.completeness", None),
        (emit, "write_samples_csv", "emit.csv", None),
        (emit, "render_scatter", "emit.scatter", None),
        (emit, "histogram_counts", "emit.histogram", None),
        (emit, "counts_to_pgm", "emit.pgm", None),
    ]


class Tracer:
    """Records spans while installed; restores every original on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn, payload=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = payload(args, kwargs, result) if payload else None
            spans[index] = (name, start, end, parent, extra)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, payload in patch_table():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, payload))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Store the spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent}\n")


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list, grid: tuple[float, ...]) -> dict[str, float]:
    """Per-layer totals, self times, counts and ratios of one traced rep.

    Times are seconds unless the name says otherwise.  Every ratio comes
    with its base as a metric of its own (draws, trials, inputs).
    """
    total = defaultdict(int)
    self_ns = defaultdict(int)
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        self_ns[name] += end - start - child_ns[i]

    draws = censored_draws = trials = accepted = 0
    inputs = calls = 0
    level_ns = {eps: 0 for eps in grid}
    trial_us: list[float] = []
    rng_ns = 0
    for name, start, end, _, extra in spans:
        if name == "sampler.run_experiment":
            eps, samples = extra
            if eps in level_ns:
                level_ns[eps] += end - start
            for s in samples:
                draws += s.iterations
                if s.accepted:
                    accepted += 1
                else:
                    censored_draws += s.iterations
            trials += len(samples)
        elif name == "circuit.evaluate_batch":
            inputs += extra
            calls += 1
        elif name == "sampler.trial_rng":
            rng_ns = end - start
        elif name == "sampler.run_trial":
            # A trial's substream is built right before run_trial is entered.
            trial_us.append((end - start + rng_ns) / 1e3)
            rng_ns = 0

    def s(ns: int) -> float:
        return ns / 1e9

    experiment_ns = total["sampler.run_experiment"]
    batch_ns = total["circuit.evaluate_batch"]
    out = {
        "cli.main_s": s(total["cli.main"]),
        "cli.self_s": s(self_ns["cli.main"]),
        "netlist.parse_s": s(total["netlist.parse"]),
        "faults.parse_s": s(total["faults.parse"]),
        "faults.inject_s": s(total["faults.inject"]),
        "sampler.run_experiment_s": s(experiment_ns),
        "sampler.draws": draws,
        "sampler.ns_per_draw": experiment_ns / draws if draws else 0.0,
        "sampler.trials": trials,
        "sampler.accepted": accepted,
        "sampler.censored": trials - accepted,
        "sampler.censored_draw_share": censored_draws / draws if draws else 0.0,
        "sampler.trial_rng_s": s(total["sampler.trial_rng"]),
        "sampler.run_trial_self_s": s(self_ns["sampler.run_trial"]),
        "sampler.trial_p50_us": _quantile(trial_us, 50),
        "sampler.trial_p99_us": _quantile(trial_us, 99),
    }
    for eps in grid:
        out[level_metric(eps)] = s(level_ns[eps])
    out.update({
        "circuit.evaluate_batch_s": s(batch_ns),
        "circuit.evaluate_batch_calls": calls,
        "circuit.inputs_evaluated": inputs,
        "circuit.ns_per_input": batch_ns / inputs if inputs else 0.0,
        "circuit.evaluated_per_draw": inputs / draws if draws else 0.0,
        "analysis.summarize_s": s(total["analysis.summarize"]),
        "analysis.detect_transition_s": s(total["analysis.detect_transition"]),
        "hopfield.ensemble_s": s(total["hopfield.ensemble"]),
        "hopfield.spectrum_s": s(total["hopfield.spectrum"]),
        "hopfield.completeness_s": s(total["hopfield.completeness"]),
        "emit.csv_s": s(total["emit.csv"]),
        "emit.scatter_s": s(total["emit.scatter"]),
        "emit.histogram_s": s(total["emit.histogram"]),
        "emit.pgm_s": s(total["emit.pgm"]),
        "trace.spans": len(spans),
    })
    return out


def level_metric(eps: float) -> str:
    return f"sampler.level_{eps:.2f}_s"
