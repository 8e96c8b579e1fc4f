"""The generator / modulator / discriminator sampling loop.

Each trial draws random N-bit inputs, pushes them through the (possibly
faulty) circuit, and accepts the first draw whose output lies within the
uncertainty level epsilon of a reference signal.  Two comparison modes:

* ``FAULT_COMPARE`` - the reference is the ideal circuit's output on the
  same input, so the loop measures how visibly the fault manifests.
* ``TARGET_SEARCH`` - a reference target is drawn once per trial and the
  loop searches for an input whose modulated output approximates it.

Both modes share one candidate loop, and trials run one after the other
in the calling thread.

Unreachable targets are skipped.  Every gate acts inside one aligned bit
pair, inputs are uniform and flip noise keeps them uniform, so a target
can be accepted exactly when its distance to the nearest output of the
faulty circuit is within epsilon.  A target farther away is censored
before any candidate is drawn: its sample reports the full
``max_iterations`` and, as ``re``, that nearest output.  Circuits whose
every target is within epsilon of an output (``Circuit.covering_radius``)
skip the check.

Determinism contract: trial t draws from the substream
``SeedSequence(entropy=seed, spawn_key=(t,))`` and consumes it in a fixed
order (target first in TARGET_SEARCH, then candidate chunks of sizes 8,
64, 512, 4096, 8192, 8192, ...; each chunk draws its inputs, then one
block of width uniforms per perturbation fault).  A trial's result
therefore depends only on the configuration and its index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import BitVector, Circuit, encode_int
from .faults import (
    FaultSpec,
    InputPerturbation,
    format_fault_list,
    inject_all,
    perturbations,
)

_CHUNK_FIRST = 8
_CHUNK_GROWTH = 8
_CHUNK_MAX = 8192


class ComparisonMode(enum.Enum):
    FAULT_COMPARE = "fault-compare"
    TARGET_SEARCH = "target-search"


def relative_uncertainty(x: BitVector, y: BitVector) -> float:
    """Hamming distance between two equal-width vectors divided by width."""
    return x.hamming(y) / x.width


def deviation(modulated: BitVector, reference: BitVector) -> tuple[int, int]:
    """Complex deviation measure as (re, im) integer parts.

    The real part encodes the modulated output, the imaginary part the
    reference signal, both with weights 2**j for bit j.
    """
    if modulated.width != reference.width:
        raise ValueError(
            f"width mismatch: {modulated.width} vs {reference.width}"
        )
    return encode_int(modulated), encode_int(reference)


def max_acceptable_distance(width: int, epsilon: float) -> int:
    """Largest Hamming distance k with k/width <= epsilon."""
    k = 0
    for i in range(1, width + 1):
        if i / width <= epsilon:
            k = i
    return k


@dataclass(frozen=True)
class DeviationSample:
    """One trial outcome: a point of the complex deviation distribution."""

    re: int
    im: int
    iterations: int
    accepted: bool
    epsilon: float
    label: str


@dataclass
class ExperimentConfig:
    """Parameters of one sampling experiment.

    ``label`` defaults to the canonical fault-list string ("none" when no
    faults are injected).  ``seed`` is mandatory; there is no OS-entropy
    fallback.
    """

    circuit: Circuit
    epsilon: float
    trials: int
    seed: int
    faults: tuple[FaultSpec, ...] = ()
    mode: ComparisonMode = ComparisonMode.FAULT_COMPARE
    max_iterations: int = 1_000_000
    memoize: bool = False
    label: str | None = None

    @property
    def width(self) -> int:
        return self.circuit.width

    def validate(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of range [0, 1]: {self.epsilon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.max_iterations < 1:
            raise ValueError(f"max iterations must be >= 1, got {self.max_iterations}")
        if self.seed is None or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        for f in self.faults:
            if isinstance(f, InputPerturbation) and not 0.0 <= f.probability <= 1.0:
                raise ValueError(f"flip probability out of range: {f.probability}")

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        return format_fault_list(self.faults) or "none"

    def cache_key(self) -> tuple:
        return (self.circuit, self.faults, self.epsilon, self.mode, self.circuit.width)


class ModulatorCache:
    """Remembers generator inputs that satisfied each reference target.

    Entries are keyed by the packed reference value and replayed in
    insertion order before any fresh random draws.  The cache clears
    itself whenever it is bound to a different (circuit, faults, epsilon,
    mode) combination, which keeps every stored input valid under the
    configuration it is consulted for.
    """

    def __init__(self) -> None:
        self._key: tuple | None = None
        self._store: dict[int, list[int]] = {}

    def bind(self, key: tuple) -> None:
        if key != self._key:
            self._key = key
            self._store = {}

    def candidates(self, target: int) -> list[int]:
        return self._store.get(target, [])

    def remember(self, target: int, generator_input: int) -> None:
        hits = self._store.setdefault(target, [])
        if generator_input not in hits:
            hits.append(generator_input)

    def __len__(self) -> int:
        return sum(len(v) for v in self._store.values())


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The independent substream assigned to one trial index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _draw_inputs(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    if width == 64:
        high = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        low = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        return (high << np.uint64(32)) | low
    return rng.integers(0, 1 << width, size=n, dtype=np.uint64)


def _perturb_batch(
    rng: np.random.Generator, values: np.ndarray, width: int, probs: Sequence[float]
) -> np.ndarray:
    if not probs:
        return values
    weights = (np.uint64(1) << np.arange(width, dtype=np.uint64))
    for p in probs:
        draws = rng.random((values.shape[0], width))
        flips = ((draws < p) * weights).sum(axis=1, dtype=np.uint64)
        values = values ^ flips
    return values


def _candidate_batches(
    rng: np.random.Generator, replay: list[int], budget: int, width: int
):
    """Replayed inputs first, then fresh chunks that fill the rest of the budget."""
    if replay:
        yield np.array(replay, dtype=np.uint64)
    size, remaining = _CHUNK_FIRST, budget - len(replay)
    while remaining > 0:
        n = min(size, remaining)
        yield _draw_inputs(rng, n, width)
        remaining -= n
        size = min(size * _CHUNK_GROWTH, _CHUNK_MAX)


def _invariants(
    cfg: ExperimentConfig, faulty: Circuit
) -> tuple[int, tuple[float, ...], str, bool]:
    """What every trial of one experiment shares.

    The accept radius, the flip probabilities, the label, and whether a
    target search must screen its targets: it need not when every target
    lies within the accept radius of some output of ``faulty``.
    """
    k_allow = max_acceptable_distance(cfg.width, cfg.epsilon)
    screen = (
        cfg.mode is ComparisonMode.TARGET_SEARCH and faulty.covering_radius > k_allow
    )
    return k_allow, perturbations(cfg.faults), cfg.resolved_label(), screen


def run_trial(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    rng: np.random.Generator,
    cache: ModulatorCache | None = None,
    invariants: tuple[int, tuple[float, ...], str, bool] | None = None,
) -> DeviationSample:
    """Run one rejection-sampling trial and return its deviation sample.

    One loop serves both modes; only the reference differs: the drawn
    target, or ``ideal``'s output on the same inputs.  A ``cache`` is used
    in TARGET_SEARCH only: its inputs for the target are replayed first.

    Budget exhaustion is a data outcome: the sample of the last examined
    candidate is returned with ``accepted=False`` and the full iteration
    count.  A target that no output of ``faulty`` lies within epsilon of
    is censored at once, without drawing a candidate: its sample carries
    the nearest output (:meth:`Circuit.nearest`) as ``re`` and the full
    iteration count.  ``invariants`` lets :func:`run_experiment` derive the
    per-trial constants once; they are computed when omitted.
    """
    width = cfg.width
    k_allow, probs, label, screen = invariants or _invariants(cfg, faulty)
    budget = cfg.max_iterations
    target = None
    if cfg.mode is ComparisonMode.TARGET_SEARCH:
        target = int(_draw_inputs(rng, 1, width)[0])
        if screen:
            distance, nearest = faulty.nearest(target)
            if distance > k_allow:
                return DeviationSample(
                    nearest << 1, target << 1, budget, False, cfg.epsilon, label
                )
        reference = np.uint64(target)
    else:
        cache = None
    replay = cache.candidates(target)[:budget] if cache is not None else []

    used = 0
    re = im = 0
    accepted = False
    for gs in _candidate_batches(rng, replay, budget, width):
        modulated = faulty.evaluate_batch(_perturb_batch(rng, gs, width, probs))
        if target is None:
            reference = ideal.evaluate_batch(gs)
        hits = np.nonzero(np.bitwise_count(modulated ^ reference) <= k_allow)[0]
        accepted = hits.size > 0
        i = int(hits[0]) if accepted else len(gs) - 1
        used += i + 1
        re = int(modulated[i]) << 1
        im = (int(reference[i]) if target is None else target) << 1
        if accepted:
            if cache is not None:
                cache.remember(target, int(gs[i]))
            break
    return DeviationSample(re, im, used, accepted, cfg.epsilon, label)


def run_experiment(
    cfg: ExperimentConfig,
    workers: int = 1,
    cache: ModulatorCache | None = None,
) -> list[DeviationSample]:
    """Run ``cfg.trials`` trials in index order and return their samples.

    Trials run one after the other in the calling thread, so the result is
    a pure function of the configuration and cache updates apply in trial
    order.  ``workers`` has no effect; it is kept for existing callers.
    """
    cfg.validate()
    ideal = cfg.circuit
    faulty = inject_all(cfg.circuit, cfg.faults)
    invariants = _invariants(cfg, faulty)
    if cfg.memoize:
        if cache is None:
            cache = ModulatorCache()
        cache.bind(cfg.cache_key())
    else:
        cache = None
    return [
        run_trial(cfg, faulty, ideal, trial_rng(cfg.seed, t), cache, invariants)
        for t in range(cfg.trials)
    ]
