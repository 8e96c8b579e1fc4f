"""The generator / modulator / discriminator sampling loop.

Each trial draws random N-bit inputs, pushes them through the (possibly
faulty) circuit, and accepts the first draw whose output lies within the
uncertainty level epsilon of a reference signal.  Two comparison modes:

* ``FAULT_COMPARE`` - the reference is the ideal circuit's output on the
  same input, so the loop measures how visibly the fault manifests.
* ``TARGET_SEARCH`` - a reference target is drawn once per trial and the
  loop searches for an input whose modulated output approximates it.

Both modes share one candidate loop, and trials run in the calling
thread.  Every candidate is a fresh draw from the trial's own substream;
no input is carried from one trial to the next, so the samples of an
experiment are independent.

Round one of a trial is its target and its first chunk of candidates.
Wherever acceptance is likely, almost every trial accepts there, so
:func:`run_experiment` settles round one for a pass of trials at once:
it takes each trial's round-one draws as raw generator words, reads the
inputs and flip uniforms out of them exactly as numpy's ``integers`` and
``random`` would, and screens, evaluates and accepts in array operations.
A trial that round one leaves open (no accept, budget left, target
reachable) continues in the candidate loop of :func:`run_trial` from its
second chunk, on its own generator at the point round one left it.  Each
sample is therefore the one ``run_trial`` returns for that trial alone.

Unreachable targets are skipped.  Every gate acts inside one aligned bit
pair, inputs are uniform and flip noise keeps them uniform, so a target
can be accepted exactly when its distance to the nearest output of the
faulty circuit is within epsilon.  A target farther away is censored
before any candidate is drawn: its sample reports the full
``max_iterations`` and, as ``re``, that nearest output.  Circuits whose
every target is within epsilon of an output (``Circuit.covering_radius``)
skip the check.

Determinism contract: trial t draws from the substream
``default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`` and consumes
it in a fixed order (target first in TARGET_SEARCH, then candidate chunks
of sizes 8, 64, 512, 4096, 8192, 8192, ...; each chunk draws its inputs,
then one block of width uniforms per perturbation fault).  A trial's result
therefore depends only on the configuration and its index.  The seed
words of that substream are derived exactly as ``SeedSequence`` derives
them, but for an aligned block of trials at once (:func:`_seed_words`);
the tests check every word and the first draws against numpy's
``SeedSequence``.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import BitVector, Circuit, encode_int
from .faults import (
    FaultSpec,
    format_fault_list,
    inject_all,
    perturbations,
)

_CHUNK_FIRST = 8
_CHUNK_GROWTH = 8
_CHUNK_MAX = 8192
_FLIP_WEIGHTS = np.uint64(1) << np.arange(64, dtype=np.uint64)

# Trials whose seed words one vectorised pass derives.  A power of two
# below 2**32, so a block never straddles a multiple of 2**32: only the
# lowest word of its spawn keys varies.
_SEED_BLOCK = 1024
# Memory one pass of round one may hold: 8 bytes per raw word (2**15 words
# at most) plus each trial's generator, kept until the pass ends.
_PASS_BYTES = 1 << 18
_GENERATOR_BYTES = 800
# numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        return format_fault_list(self.faults) or "none"


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=2)
def _seed_words(seed: int, block: int) -> np.ndarray:
    """PCG64 seed words of every trial in one aligned block of trials.

    Row r holds ``SeedSequence(entropy=seed, spawn_key=(t,))
    .generate_state(4, np.uint64)`` for trial ``t = block * _SEED_BLOCK + r``.
    As in ``SeedSequence``, the run entropy is zero-padded to the pool size
    because a spawn key follows it; the pool is hashed in, mixed, fed any
    remaining words and hashed out.  Within the block only the spawn key's
    lowest word varies, so every other word is a one-element array that
    broadcasts.  The result is read-only: rows are handed out as they are.
    """
    spawn = _uint32_words(block * _SEED_BLOCK)
    run = _uint32_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.array([w], dtype=np.uint32) for w in run]
    entropy.append(np.arange(spawn[0], spawn[0] + _SEED_BLOCK, dtype=np.uint32))
    entropy += [np.array([w], dtype=np.uint32) for w in spawn[1:]]

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = np.empty((_SEED_BLOCK, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> 16)
    words = state.astype("<u4").view("<u8").astype(np.uint64)
    words.flags.writeable = False
    return words


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 one trial's derived seed words.

    Built on first use, because importing ``numpy.random`` adds about a
    fifth to the time ``import ganfault.cli`` takes; a run pays it at its
    first trial, as it did when each trial built a ``SeedSequence``.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            assert n_words == 4 and dtype is np.uint64, (n_words, dtype)
            return self._words

    return SeedWords


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The independent substream assigned to one trial index.

    Its state equals that of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(trial,)))``; each
    call returns a fresh generator.
    """
    block, row = divmod(trial, _SEED_BLOCK)
    words = _seed_words_type()(_seed_words(seed, block)[row])
    return np.random.Generator(np.random.PCG64(words))


def _draw_inputs(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    if width == 64:
        high = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        low = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        return (high << np.uint64(32)) | low
    return rng.integers(0, 1 << width, size=n, dtype=np.uint64)


def _flip_masks(below: np.ndarray) -> np.ndarray:
    """Flip masks from per-bit ``draw < p`` outcomes; the last axis is bit 0, 1, ..."""
    return (below * _FLIP_WEIGHTS[: below.shape[-1]]).sum(axis=-1, dtype=np.uint64)


def _perturb_batch(
    rng: np.random.Generator, values: np.ndarray, width: int, probs: Sequence[float]
) -> np.ndarray:
    for p in probs:
        values = values ^ _flip_masks(rng.random((values.shape[0], width)) < p)
    return values


def _candidate_batches(
    rng: np.random.Generator, budget: int, width: int, used: int = 0
):
    """Fresh chunks of growing size that together fill the budget.

    The chunks holding the first ``used`` candidates, which must end on a
    chunk boundary, were drawn before and are skipped.
    """
    size, drawn = _CHUNK_FIRST, 0
    while drawn < budget:
        n = min(size, budget - drawn)
        if drawn >= used:
            yield _draw_inputs(rng, n, width)
        drawn += n
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


def _round_one_words(cfg: ExperimentConfig) -> int:
    """Raw PCG64 words a trial's round one draws: target, first chunk, flips.

    An input of width w <= 32 takes one 32-bit half of a word, a wider one
    a whole word (two halves at w = 64), and each flip uniform a word.
    """
    m = min(_CHUNK_FIRST, cfg.max_iterations)
    inputs = m + (cfg.mode is ComparisonMode.TARGET_SEARCH)
    if cfg.width <= 32:
        inputs = (inputs + 1) // 2
    return inputs + len(perturbations(cfg.faults)) * m * cfg.width


def _pass_trials(words: int) -> int:
    """Trials per pass when each draws ``words`` raw words in round one."""
    return max(1, _PASS_BYTES // (8 * words + _GENERATOR_BYTES))


def _round_one_inputs(
    raw: np.ndarray, width: int, search: bool, m: int
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Targets, first-chunk candidates and buffered halves of round one.

    Row r of ``raw`` holds trial r's first words, read as numpy's
    ``integers`` draws them in :func:`_draw_inputs`: for w <= 32 a value is
    the top w bits of a 32-bit half, the low half of a word first, and an
    odd half out stays buffered for the next draw; for 33 <= w <= 63 it is
    the top w bits of a word; at w = 64 each call takes all its high
    halves, then all its low halves.  The targets are None in
    fault-compare, the buffered halves None when round one drew an even
    number of halves.
    """
    s = int(search)
    if 32 < width < 64:
        values = raw[:, : s + m] >> np.uint64(64 - width)
        return (values[:, 0] if search else None), values[:, s:], None
    words = raw[:, : s + m if width == 64 else (s + m + 1) // 2]
    halves = np.stack([words & _MASK32, words >> 32], axis=-1).reshape(len(raw), -1)
    if width == 64:
        target = (halves[:, 0] << 32) | halves[:, 1] if search else None
        s *= 2
        gs = (halves[:, s : s + m] << 32) | halves[:, s + m : s + 2 * m]
        return target, gs, None
    values = halves >> np.uint64(32 - width)
    buffered = halves[:, s + m] if (s + m) % 2 else None
    return (values[:, 0] if search else None), values[:, s : s + m], buffered


def _round_one_flips(
    raw: np.ndarray, values: np.ndarray, width: int, probs: Sequence[float]
) -> np.ndarray:
    """``values`` perturbed by the flip uniforms that end each row of ``raw``.

    ``random()`` is ``(raw >> 11) * 2**-53``: one word per uniform, drawn
    one block per flip fault, candidate by candidate and bit by bit.  The
    faults' masks commute, so they are applied in one xor.
    """
    rows, m = values.shape
    block = raw[:, raw.shape[1] - len(probs) * m * width :]
    uniforms = (block.reshape(rows, len(probs), m, width) >> np.uint64(11)) * 2.0**-53
    below = uniforms < np.array(probs).reshape(-1, 1, 1)
    return values ^ np.bitwise_xor.reduce(_flip_masks(below), axis=1)


def _nearest_arrays(faulty: Circuit) -> list[tuple[np.ndarray, np.ndarray]]:
    """``faulty``'s per-byte nearest-output tables as (distance, output) arrays."""
    return [
        (np.array([d for d, _ in table]),
         np.array([o for _, o in table], dtype=np.uint64))
        for table in faulty._nearest_tables
    ]


def _nearest_batch(
    tables: list[tuple[np.ndarray, np.ndarray]], targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Circuit.nearest` of every target: distances and nearest outputs."""
    distance = np.zeros(len(targets), dtype=np.int64)
    nearest = np.zeros_like(targets)
    for i, (dist, out) in enumerate(tables):
        byte = (targets >> np.uint64(8 * i)) & np.uint64(0xFF)
        distance += dist[byte]
        nearest |= out[byte] << np.uint64(8 * i)
    return distance, nearest


def _settle_round_one(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    invariants: tuple[int, tuple[float, ...], str, bool],
    tables: list[tuple[np.ndarray, np.ndarray]] | None,
    raw: np.ndarray,
) -> tuple[list[DeviationSample], list[tuple[int, int | None, int | None]]]:
    """Round one of every trial of a pass, as array operations.

    Row r of ``raw`` holds trial r's round-one words (:func:`_round_one_words`).
    Returns each trial's round-one sample and, for every trial round one
    leaves open, its row, its target (None in fault-compare) and the half
    its generator must hold buffered (None when there is none).  A trial is
    settled when a candidate is accepted, when its target is screened out
    as unreachable, or when the first chunk spends the whole budget.
    """
    k_allow, probs, label, screen = invariants
    eps, budget = cfg.epsilon, cfg.max_iterations
    search = cfg.mode is ComparisonMode.TARGET_SEARCH
    m = min(_CHUNK_FIRST, budget)
    target, gs, buffered = _round_one_inputs(raw, cfg.width, search, m)
    samples = [None] * len(raw)
    rows = np.arange(len(raw))
    if screen:
        distance, nearest = _nearest_batch(tables, target)
        far = distance > k_allow
        for r, t, o in zip(
            rows[far].tolist(), target[far].tolist(), nearest[far].tolist()
        ):
            samples[r] = DeviationSample(o << 1, t << 1, budget, False, eps, label)
        live = ~far
        rows, raw, target, gs = rows[live], raw[live], target[live], gs[live]
        buffered = None if buffered is None else buffered[live]

    modulated = faulty.evaluate_batch(
        _round_one_flips(raw, gs, cfg.width, probs).ravel()
    ).reshape(gs.shape)
    if search:
        reference = target[:, None]
    else:
        reference = ideal.evaluate_batch(gs.ravel()).reshape(gs.shape)
    hits = np.bitwise_count(modulated ^ reference) <= k_allow
    accepted = hits.any(axis=1)
    last = np.where(accepted, hits.argmax(axis=1), m - 1)
    pick = np.arange(len(gs)), last
    re = modulated[pick]
    im = target if search else reference[pick]
    for r, x, y, i, ok in zip(
        rows.tolist(), re.tolist(), im.tolist(), last.tolist(), accepted.tolist()
    ):
        samples[r] = DeviationSample(x << 1, y << 1, i + 1, ok, eps, label)
    if budget <= m:
        return samples, []
    rest = np.flatnonzero(~accepted)
    targets = target[rest].tolist() if search else [None] * len(rest)
    halves = [None] * len(rest) if buffered is None else buffered[rest].tolist()
    return samples, list(zip(rows[rest].tolist(), targets, halves))


def _buffer_half(rng: np.random.Generator, half: int) -> None:
    """Leave ``half`` in ``rng``'s 32-bit buffer, as an odd draw of halves would."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state


def run_trial(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    rng: np.random.Generator,
    invariants: tuple[int, tuple[float, ...], str, bool] | None = None,
    resume: tuple[int | None, int] | None = None,
) -> DeviationSample:
    """Run one rejection-sampling trial and return its deviation sample.

    One loop serves both modes; only the reference differs: the drawn
    target, or ``ideal``'s output on the same inputs.

    Budget exhaustion is a data outcome: the sample of the last examined
    candidate is returned with ``accepted=False`` and the full iteration
    count.  A target that no output of ``faulty`` lies within epsilon of
    is censored at once, without drawing a candidate: its sample carries
    the nearest output (:meth:`Circuit.nearest`) as ``re`` and the full
    iteration count.  ``invariants`` lets :func:`run_experiment` derive the
    per-trial constants once; they are computed when omitted.

    ``resume`` continues a trial whose first candidates were examined
    elsewhere without an accept: it is the trial's target (None in
    fault-compare) and the number of candidates examined, a whole number
    of chunks, and ``rng`` must stand where those draws left it.
    """
    width = cfg.width
    k_allow, probs, label, screen = invariants or _invariants(cfg, faulty)
    budget = cfg.max_iterations
    if resume is None:
        target, used = None, 0
        if cfg.mode is ComparisonMode.TARGET_SEARCH:
            target = int(_draw_inputs(rng, 1, width)[0])
            if screen:
                distance, nearest = faulty.nearest(target)
                if distance > k_allow:
                    return DeviationSample(
                        nearest << 1, target << 1, budget, False, cfg.epsilon, label
                    )
    else:
        target, used = resume
    if target is not None:
        reference = np.uint64(target)

    re = im = 0
    accepted = False
    for gs in _candidate_batches(rng, budget, width, used):
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
            break
    return DeviationSample(re, im, used, accepted, cfg.epsilon, label)


def run_experiment(cfg: ExperimentConfig) -> list[DeviationSample]:
    """Run ``cfg.trials`` trials in index order and return their samples.

    Every trial runs on its own substream (:func:`trial_rng`), so the result
    is a pure function of the configuration.  Trials go in passes that hold
    at most :data:`_PASS_BYTES` of raw words and generators.  A pass
    builds each trial's generator, takes its round one (target, first chunk
    and that chunk's flip uniforms) in one ``random_raw`` call, and settles
    round one of the whole pass in numpy (:func:`_settle_round_one`).  Each
    trial that round one leaves unsettled continues in :func:`run_trial`
    from its second chunk, on its own generator, so every sample is the one
    ``run_trial`` returns for the trial alone.
    """
    cfg.validate()
    ideal = cfg.circuit
    faulty = inject_all(cfg.circuit, cfg.faults)
    invariants = _invariants(cfg, faulty)
    tables = _nearest_arrays(faulty) if invariants[3] else None  # screening
    words = _round_one_words(cfg)
    per_pass = _pass_trials(words)
    samples: list[DeviationSample] = []
    for start in range(0, cfg.trials, per_pass):
        rngs = [trial_rng(cfg.seed, t)
                for t in range(start, min(start + per_pass, cfg.trials))]
        raw = np.stack([rng.bit_generator.random_raw(words) for rng in rngs])
        batch, unsettled = _settle_round_one(
            cfg, faulty, ideal, invariants, tables, raw
        )
        for j, target, half in unsettled:
            if half is not None:
                _buffer_half(rngs[j], half)
            batch[j] = run_trial(
                cfg, faulty, ideal, rngs[j], invariants, (target, _CHUNK_FIRST)
            )
        samples += batch
    return samples
