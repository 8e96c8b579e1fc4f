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

Trials run in passes of one aligned seed block (:func:`_seed_words`), and
the trials of a pass that its first candidate leaves open (see below) walk
the chunks of the determinism contract together.  For each chunk, each
open trial draws its words with the generator's ``random_raw``, a group
of trials at a time; the inputs and flip uniforms are read out of them
exactly as numpy's ``integers`` and ``random`` would draw them, and flips,
the unreachable-target screen, evaluation and the accept test run as
arrays over the group, whose raw words are then dropped.  A trial leaves
the pass once settled, so no trial continues on its own; :func:`run_trial`
is the same loop on one generator.

One walk serves every uncertainty level of a sweep (:func:`run_levels`).
Each level reuses trial t's stream, and its sample at accept radius K is
the first candidate within K of the reference, or the last one the budget
allows, so the loop takes the levels' distinct radii and settles each
radius at its own first hit.  A trial's open radii are a contiguous range:
a hit at distance d settles every open radius >= d, and the end of the
budget censors the rest.  A group whose only open radius is 0 keeps the
exact-match accept test, so the bulk draws at radius 0 pay nothing for the
others.  :func:`run_experiment` and :func:`run_trial` are the one-radius
case.  A settled trial is written into the run's columns (:func:`_columns`),
one row per radius, and each level's result is its radius's row as a
:class:`Samples`, which holds the level's epsilon and label once: the
columns are never turned into per-trial objects, levels that share a radius
share them, and a level costs the same few objects at any trial count.
A :class:`DeviationSample` is built only when a caller reads a row.

Most trials of a high-epsilon run accept their first candidate, so a pass
first settles those without a generator (:func:`_first_hits`).  numpy's
PCG64 seeding, jump-ahead and XSL-RR output are reproduced as uint64 arrays
(:func:`_stream_words`), next to ``SeedSequence``'s derivation of the seed
words, and give the words the first candidate reads straight from the seed
words.  A trial whose first candidate lies within the smallest radius is
settled there at every radius; only the trials left open get a generator
and walk the chunk loop from their first word.  The pass is skipped when a
candidate draws more than ``_FIRST_FLIP_WORDS`` flip uniforms, which cost
more to compute this way than the generator they would save.

Inputs narrower than 64 bits are not decoded.  An input of w <= 32 bits
is the top w bits of a 32-bit half of a raw word, one of 33..63 bits the
top w bits of a word, so each stays in that lane (:func:`_lane`),
``lane - w`` bits up, with random bits below it.  Every gate acts inside
one bit pair, so the circuit evaluates there with its masks moved up as
far (:meth:`Circuit.evaluate_batch`); the target and the flip masks move
up with them, a target search folds its target into the circuit's
constant term, and the accept test reads the lanes as they are.  Only
settled outputs and the first chunk's screen shift back down.  Width 64
fills its lane; its inputs are assembled from a high and a low half.

Unreachable targets are skipped, radius by radius.  Every gate acts
inside one aligned bit pair, inputs are uniform and flip noise keeps them
uniform, so a target can be accepted at radius K exactly when its distance
to the nearest output of the faulty circuit is within K.  At every radius
below that distance the target is censored before any candidate is
examined: its sample reports the full ``max_iterations`` and, as ``re``,
that nearest output; the trial keeps drawing for the larger radii.  A
radius that every target lies within of an output
(``Circuit.covering_radius``) needs no check.

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
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

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

# Trials whose seed words one vectorised call derives, and the trials of
# one pass of :func:`run_experiment`.  A power of two below 2**32, so a
# block never straddles a multiple of 2**32: only the lowest word of its
# spawn keys varies.
_SEED_BLOCK = 1024
# Raw words one group of trials holds at a time, in one ``random_raw`` call
# or in its two arrays of candidates (:func:`_layout`).
_GROUP_WORDS = 1 << 15
# Kinds of a chunk's draws besides flip uniforms, whose kind is a slice of
# the flip faults (:func:`_layout`).
_TARGET, _INPUTS = -2, -1
# numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG with XSL-RR output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# Flip uniforms one candidate may draw for the first-candidate pass to run
# (:func:`_first_hits`).  Each word costs the pass about 50-70 ns, so above
# this a trial's generator, about 4 us, is the cheaper way to its words.
_FIRST_FLIP_WORDS = 32
# Words one group of that pass computes.  Its uint64 temporaries then stay
# at 64 KiB, which the allocator reuses; at 2**15 words each was mapped and
# faulted in afresh (about 6000 page faults per ``andnot16-cli`` rep).
_FIRST_GROUP_WORDS = 1 << 13
# Where a run settles its trials (:func:`_columns`): one array per column,
# one row per accept radius and one column per trial.  The output and
# reference are shifted down but not doubled into re and im, which reach
# 2**65 - 2 at width 64.  A level's :class:`Samples` is its radius's row.
_COLUMNS = (("out", np.uint64), ("ref", np.uint64),
            ("iterations", np.int64), ("accepted", np.bool_))


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


class DeviationSample(NamedTuple):
    """One trial outcome: a point of the complex deviation distribution.

    The row view of :class:`Samples`; ``re`` and ``im`` are twice the
    modulated and reference outputs.
    """

    re: int
    im: int
    iterations: int
    accepted: bool
    epsilon: float
    label: str


class Samples(Sequence):
    """The samples of one level, as columns; its rows read as :class:`DeviationSample`.

    ``out`` and ``ref`` are the modulated and reference outputs (``uint64``),
    ``iterations`` (``int64``) and ``accepted`` (``bool``) each trial's
    outcome; the level's ``epsilon`` (a float) and ``label`` (a str) are
    held once and repeated in every row.  re and im are twice ``out`` and
    ``ref`` and reach 2**65 - 2 at width 64, so no column holds them:
    :attr:`re` and :attr:`im` are lists of Python ints.  An int index gives
    a row; a slice, index array or mask gives the selected samples.
    Samples equal any sequence of the same rows.
    """

    __slots__ = ("out", "ref", "iterations", "accepted", "epsilon", "label")
    __hash__ = None

    def __init__(self, out, ref, iterations, accepted, epsilon: float, label: str) -> None:
        self.out, self.ref = out, ref
        self.iterations, self.accepted = iterations, accepted
        self.epsilon, self.label = float(epsilon), label

    @classmethod
    def from_rows(cls, rows: Iterable[DeviationSample]) -> "Samples":
        """The samples of ``rows``, which must share one level.

        Their re and im must be even and in 0..2**65 - 2, their iterations
        in 0..2**63 - 1, their epsilon in [0, 1].  No rows give an empty
        level 0.0 labelled "".
        """
        re, im, iterations, accepted, epsilon, label = tuple(zip(*rows)) or ((),) * 6
        if bad := [e for e in epsilon if not 0.0 <= e <= 1.0]:
            raise ValueError(f"epsilon out of range [0, 1]: {bad[0]}")
        if any(v & 1 or not 0 <= v < 1 << 65 for v in re + im):
            raise ValueError("a deviation point has even re and im in 0..2**65 - 2")
        if any(not 0 <= v < 1 << 63 for v in iterations):
            raise ValueError("iterations must be in 0..2**63 - 1")
        levels = set(zip(epsilon, label)) or {(0.0, "")}
        if len(levels) > 1:
            raise ValueError(f"samples of one level expected, got {len(levels)} levels")
        return cls(
            np.array([v >> 1 for v in re], dtype=np.uint64),
            np.array([v >> 1 for v in im], dtype=np.uint64),
            np.array(iterations, dtype=np.int64),
            np.array(accepted, dtype=np.bool_),
            *levels.pop(),
        )

    @property
    def re(self) -> list[int]:
        return [v << 1 for v in self.out.tolist()]

    @property
    def im(self) -> list[int]:
        return [v << 1 for v in self.ref.tolist()]

    def __len__(self) -> int:
        return len(self.out)

    def __iter__(self):
        return map(DeviationSample._make, zip(
            self.re, self.im, self.iterations.tolist(), self.accepted.tolist(),
            itertools.repeat(self.epsilon), itertools.repeat(self.label),
        ))

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return Samples(self.out[index], self.ref[index], self.iterations[index],
                           self.accepted[index], self.epsilon, self.label)
        i = range(len(self))[index]
        return next(iter(self[i : i + 1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"<Samples: {len(self)} rows, {int(self.accepted.sum())} accepted>"


@dataclass
class ExperimentConfig:
    """Parameters of one sampling experiment; ``seed`` has no OS-entropy fallback."""

    circuit: Circuit
    epsilon: float
    trials: int
    seed: int
    faults: tuple[FaultSpec, ...] = ()
    mode: ComparisonMode = ComparisonMode.FAULT_COMPARE
    max_iterations: int = 1_000_000

    @property
    def width(self) -> int:
        return self.circuit.width

    def validate(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon out of range [0, 1]: {self.epsilon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 1 <= self.max_iterations < 1 << 63:  # the int64 iterations column's range
            bound = ">= 1" if self.max_iterations < 1 else "<= 2**63 - 1"
            raise ValueError(f"max iterations must be {bound}, got {self.max_iterations}")
        if self.seed is None or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def resolved_label(self) -> str:
        """The samples' label: the canonical fault list, or "none" without faults."""
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


def _limbs(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit constants as :func:`_mul128` takes them.

    Returns their high words, their low words and the low words' 32-bit
    halves, low half first, as uint64 arrays.
    """
    hi, lo = (np.array([v >> s & _MASK64 for v in values], dtype=np.uint64)
              for s in (64, 0))
    return hi, lo, lo & _MASK32, lo >> 32


@functools.lru_cache(maxsize=64)
def _jumps(index: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """The multiplier A and increment factor C of each stream word in ``index``.

    PCG64 seeding steps a zero state once, adds the seed state and steps
    again, and each draw steps once before its output.  So with x the seed
    state plus the increment, word k is the output of the state ``A * x +
    C * inc`` (mod 2**128), where ``A = M**(k+2)`` and ``C = 1 + M + ... +
    M**(k+1)``.  Both are returned as :func:`_limbs`.
    """
    steps = {k + 2 for k in index}
    a, c, at = 1, 0, {}
    for step in range(max(steps) + 1):
        if step in steps:
            at[step] = a, c
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    return tuple(_limbs([at[k + 2][i] for k in index]) for i in (0, 1))


def _mul128(k: tuple[np.ndarray, ...], hi: np.ndarray, lo: np.ndarray):
    """``k * (hi, lo)`` mod 2**128 as (high, low) words; ``k`` is :func:`_limbs`.

    numpy multiplies uint64 mod 2**64, so only the high word of the low
    words' product is assembled from 32-bit halves.
    """
    k_hi, k_lo, k0, k1 = k
    x0, x1 = lo & _MASK32, lo >> 32
    p00, p01, p10, p11 = k0 * x0, k0 * x1, k1 * x0, k1 * x1
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return carry + k_lo * hi + k_hi * lo, k_lo * lo


def _stream_words(seeds: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
    """Words ``index`` of each PCG64 stream, as ``random_raw`` draws them.

    Row r of ``seeds`` holds one stream's four seed words (:func:`_seed_words`);
    row r of the result holds that stream's words at the stream indices
    ``index``.  As numpy's ``PCG64`` does, the first two seed words are the
    state's high and low word and the last two give the increment ``(seq <<
    1) | 1``; each state jumps ahead to its words (:func:`_jumps`), and the
    output is XSL-RR: the state's two words XORed, rotated right by its top
    six bits.
    """
    a, c = _jumps(index)
    s_hi, s_lo, q_hi, q_lo = (seeds[:, i, None] for i in range(4))
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < s_lo)
    ax_hi, ax_lo = _mul128(a, x_hi, x_lo)
    ci_hi, ci_lo = _mul128(c, inc_hi, inc_lo)
    lo = ax_lo + ci_lo
    hi = ax_hi + ci_hi + (lo < ax_lo)
    value, rot = hi ^ lo, hi >> 58
    return (value >> rot) | (value << ((64 - rot) & 63))


def _flip_limits(probs: Sequence[float]) -> np.ndarray:
    """Each flip probability p as the limit ``ceil(p * 2**53)``.

    numpy's ``random()`` is ``(word >> 11) * 2**-53`` exactly, so a uniform
    is below p exactly when ``word >> 11`` is below the limit.
    """
    return np.array([math.ceil(p * 2.0**53) for p in probs], dtype=np.uint64)


def _lane(width: int) -> int:
    """Bits of the raw lane an input of ``width`` bits is drawn and evaluated in."""
    return 32 if width <= 32 else 64


def _flip_masks(
    raw: np.ndarray, width: int, limits: np.ndarray, shift: int
) -> np.ndarray:
    """The flip masks of a block of flip faults, from their uniforms' raw words.

    Row r of ``raw`` holds, fault by fault, m * width words, candidate by
    candidate and bit by bit.  The faults' masks commute, so they are
    returned combined, one per candidate, ``shift`` bits up.
    """
    words = raw.reshape(len(raw), len(limits), -1, width) >> np.uint64(11)
    masks = (words < limits[:, None, None]) @ _FLIP_WEIGHTS[shift : shift + width]
    return np.bitwise_xor.reduce(masks, axis=1)


def _inputs(
    raw: np.ndarray, width: int, n: int, half: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``n`` inputs per row of ``raw``, left-aligned in their lanes (:func:`_lane`).

    Returns the inputs, as numpy's ``integers`` draws them but ``lane -
    width`` bits up, and each row's 32-bit half left buffered (None when no
    half is left).  For w <= 32 an input is the top w bits of a 32-bit half,
    the low half of a word first, after ``half``, the half an earlier draw
    left buffered; the halves are read in place, or copied behind ``half``
    into a new array.  For 33 <= w <= 63 an input is the top
    w bits of a word; at w = 64 a draw takes n high halves, then n low halves.
    """
    if 32 < width < 64:
        return raw, None
    halves = raw.astype("<u8", copy=False).view("<u4")
    if width == 64:
        return (halves[:, :n].astype(np.uint64) << np.uint64(32)) | halves[:, n:], None
    if half is None:
        values = halves[:, :n]
    else:
        values = np.empty((len(raw), n), dtype=np.uint32)
        values[:, 0] = half
        values[:, 1:] = halves[:, : n - 1]
    left = halves[:, -1].copy() if halves.shape[1] > n - (half is not None) else None
    return values, left


@functools.lru_cache(maxsize=64)
def _layout(width: int, n: int, flips: int, target: bool, buffered: bool):
    """How each open trial draws one chunk of ``n`` candidates.

    Returns the ``random_raw`` calls, the open trials per group, and whether
    a 32-bit half is buffered afterwards (``buffered``: before).  A call is
    its length in words and its segments ``(kind, start, stop, lo, hi)``:
    words lo..hi hold the target (kind ``_TARGET``), the inputs
    (``_INPUTS``) or the uniforms of the flip faults in slice ``kind`` for
    candidates start..stop.  An input of width w <= 32 takes a 32-bit half,
    a wider one a word (two halves at w = 64), a flip uniform a word.  A
    call holds at most ``_GROUP_WORDS`` words, so a large chunk's flip
    uniforms come in pieces of whole candidates, and so does a group of
    trials: rows * max(call words, words of two arrays of n lanes) <=
    ``_GROUP_WORDS``, or one row.
    """
    piece = min(n, _GROUP_WORDS // width)  # candidates per flip segment
    per = _GROUP_WORDS // (piece * width)  # faults per flip segment
    draws = [(_TARGET, 0, 1)] if target else []
    draws.append((_INPUTS, 0, n))
    draws += [(slice(f, min(f + per, flips)), a, min(a + piece, n))
              for f in range(0, flips, per) for a in range(0, n, piece)]
    calls: list[list[tuple]] = []
    words = 0
    for kind, start, stop in draws:
        if isinstance(kind, slice):
            k = (kind.stop - kind.start) * (stop - start) * width
        elif width <= 32:
            k = (stop - buffered + 1) // 2
            buffered = (stop - buffered) % 2 == 1
        else:
            k = stop
        if not calls or words + k > _GROUP_WORDS:
            calls.append([])
            words = 0
        calls[-1].append((kind, start, stop, words, words + k))
        words += k
    sized = tuple((call[-1][4], tuple(call)) for call in calls)
    rows = _GROUP_WORDS // max(max(w for w, _ in sized), n * _lane(width) // 32)
    return sized, max(1, rows), buffered


def _take(arrays: tuple, index) -> tuple:
    """Each array's rows at ``index``; a None stays None."""
    return tuple(None if a is None else a[index] for a in arrays)


def _columns(radii: int, trials: int) -> dict[str, np.ndarray]:
    """Zeroed :data:`_COLUMNS` for ``radii`` accept radii and ``trials`` trials."""
    return {name: np.zeros((radii, trials), dtype) for name, dtype in _COLUMNS}


def _settle(cols: dict, at: tuple, out, ref, iterations, accepted) -> None:
    """Write settled trials into ``cols`` (:func:`_columns`) at (radii, trials) ``at``."""
    for (name, _), value in zip(_COLUMNS, (out, ref, iterations, accepted)):
        cols[name][at] = value


def _level(cols: dict, row: int, epsilon: float, label: str) -> Samples:
    """The samples of one level: radius row ``row`` of ``cols``, with its epsilon and label."""
    return Samples(*(cols[name][row] for name, _ in _COLUMNS), epsilon, label)


def _draw(
    rngs: Sequence[np.random.Generator],
    calls: tuple,
    width: int,
    n: int,
    limits: np.ndarray,
    target: np.ndarray | None,
    half: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """One chunk for a group of trials, drawn as :func:`_layout` lays it out.

    Each call's words are drawn with ``random_raw`` and read by
    :func:`_decode`, one call at a time.
    """
    raws = (
        np.concatenate([rng.bit_generator.random_raw(words) for rng in rngs])
        .reshape(len(rngs), words)
        for words, _ in calls
    )
    return _decode(raws, calls, width, n, limits, target, half)


def _decode(
    raws: Iterable[np.ndarray],
    calls: tuple,
    width: int,
    n: int,
    limits: np.ndarray,
    target: np.ndarray | None,
    half: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray, np.ndarray]:
    """The draws of one chunk, from each call's raw words in ``raws``.

    Returns each trial's target (drawn in this chunk or passed in), the
    32-bit half it leaves buffered, its candidates, and its candidates with
    its flips applied, all left-aligned in their lanes (:func:`_inputs`);
    only the target has its bits below cleared.
    """
    shift = _lane(width) - width
    for raw, (_, segments) in zip(raws, calls):
        for kind, start, stop, lo, hi in segments:
            if kind == _TARGET:
                target, half = _inputs(raw[:, lo:hi], width, 1, half)
                target = target[:, 0] >> shift << shift  # zeros below a reference
            elif kind == _INPUTS:
                gs, half = _inputs(raw[:, lo:hi], width, n, half)
                flipped = gs.copy() if len(limits) else gs
            else:
                flipped[:, start:stop] ^= _flip_masks(
                    raw[:, lo:hi], width, limits[kind], shift
                )
    return target, half, gs, flipped


def _run_trials(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    rngs: dict[int, np.random.Generator],
    radii: Sequence[int],
    cols: dict,
) -> None:
    """Settle each trial at each accept radius, one trial per fresh generator.

    ``rngs`` maps column t of ``cols`` (:func:`_columns`) to its trial's
    generator, columns in ascending order; ``radii`` are sorted and
    distinct, and the trial's sample at radius ``radii[j]`` is written to
    ``cols[j, t]``.  The trials walk the chunks together.  In each chunk
    every open trial draws its words with ``random_raw`` (:func:`_layout`),
    and a group of trials at a time is flipped, screened (first chunk
    only), evaluated and accepted as arrays, on the inputs left-aligned in
    their raw lanes: the circuits evaluate there (``shift``), a target
    search folds each target into the constant term, and only settled
    values are shifted back down.

    A trial's open radii are the range ``lo..hi``.  The screen raises
    ``lo`` past every radius below the target's distance to the nearest
    output, and censors those radii at once; a hit at distance d settles
    every open radius >= d at that candidate, which lowers ``hi``; at the
    end of the budget every open radius is censored at the last candidate.
    A trial leaves once its range is empty, so each trial's stream is walked
    once for every radius.  Open trials have drawn the same chunks, so they
    share each chunk's layout; only the value of a buffered half differs,
    and it is carried as an array.
    """
    width, budget = cfg.width, cfg.max_iterations
    search = cfg.mode is ComparisonMode.TARGET_SEARCH
    limits = _flip_limits(perturbations(cfg.faults))
    ks = np.array(radii, dtype=np.uint8)
    screen = search and faulty.covering_radius > radii[0]
    shift = _lane(width) - width
    trials, targets, halves = np.array(list(rngs), dtype=np.intp), None, None
    lo, hi = np.zeros_like(trials), np.full_like(trials, len(radii))
    drawn, size, buffered = 0, _CHUNK_FIRST, False
    while len(trials):
        n = min(size, budget - drawn)
        last = drawn + n == budget
        calls, rows, buffered = _layout(
            width, n, len(limits), search and not drawn, buffered
        )
        kept = []
        for g in range(0, len(trials), rows):
            ts, target, half, los, his = _take(
                (trials, targets, halves, lo, hi), slice(g, g + rows)
            )
            gens = [rngs[t] for t in ts.tolist()]
            target, half, gs, flipped = _draw(
                gens, calls, width, n, limits, target, half
            )
            if screen and not drawn:
                distance, nearest = faulty.nearest(target >> shift)
                los = np.searchsorted(ks, distance)
                rs, js = np.nonzero(np.arange(len(radii)) < los[:, None])
                _settle(cols, (js, ts[rs]), nearest[rs], target[rs] >> shift,
                        budget, False)
                ts, target, half, gs, flipped, los, his = _take(
                    (ts, target, half, gs, flipped, los, his), los < his
                )
                if not len(ts):
                    continue
            if search:
                diff = faulty.evaluate_batch(flipped.ravel(), shift, target)
            else:
                modulated = faulty.evaluate_batch(flipped.ravel(), shift).reshape(gs.shape)
                reference = ideal.evaluate_batch(gs.ravel(), shift).reshape(gs.shape)
                diff = modulated ^ reference
            # Row rs[i] settles radius js[i] at candidate first[i] if ok[i],
            # else, at the end of the budget, at the last candidate.  The
            # group's open radii are glo..ghi: lo is 0 unless screened, and
            # the first row has the largest hi.
            glo, ghi = los.min() if screen else 0, his[0]
            if ghi - glo == 1:
                # Every row has the one radius glo open.  A hit scores 0, so a
                # row's first minimum is its first hit if it has one.  At
                # radius 0 a hit is an exact match: the XOR scores.
                score = diff if radii[glo] == 0 else np.bitwise_count(diff) > ks[glo]
                first = score.argmin(axis=1)
                hit = score[np.arange(len(first)), first] == 0
                settled = hit | last
                rs, keep = np.flatnonzero(settled), ~settled
                js, ok, first = glo, hit[rs], first[rs]
            else:
                # Row r hits radius js[c] when its nearest candidate is
                # within it; only the rows that settle look for the first.
                js = np.arange(glo, ghi)
                dist = np.bitwise_count(diff)
                hit = dist.min(axis=1)[:, None] <= ks[js]
                open_ = (los[:, None] <= js) & (js < his[:, None])
                rs, cs = np.nonzero(open_ & (hit | last))
                js, ok = js[cs], hit[rs, cs]
                first = (dist[rs] <= ks[js, None]).argmax(axis=1)
                his = los + (open_ & ~hit).sum(axis=1)
                keep = (his > los) & (not last)
            if len(rs):
                at = np.where(ok, first, n - 1)
                if search:
                    im = target[rs]
                    re = diff[rs, at] ^ im
                else:
                    re, im = modulated[rs, at], reference[rs, at]
                _settle(cols, (js, ts[rs]), re >> shift, im >> shift, at + drawn + 1, ok)
                ts, target, half, los, his = _take((ts, target, half, los, his), keep)
            kept.append((ts, target, half, los, his))
        if not kept:  # every target was screened out
            break
        trials, targets, halves, lo, hi = (
            None if parts[0] is None else np.concatenate(parts) for parts in zip(*kept)
        )
        if len(radii) > 1:
            # Falling hi: a group's first row has its largest, and trials
            # left with one radius share groups.
            trials, targets, halves, lo, hi = _take(
                (trials, targets, halves, lo, hi), np.argsort(-hi, kind="stable")
            )
        drawn += n
        size = min(size * _CHUNK_GROWTH, _CHUNK_MAX)


@functools.lru_cache(maxsize=64)
def _first_layout(width: int, n: int, flips: int, target: bool):
    """The stream words a trial's first candidate reads, and their layout.

    These are the words that hold the first chunk's target and candidate 0's
    input (:func:`_layout`) and, for each flip fault, candidate 0's
    ``width`` uniforms.  An input of w <= 32 bits is a 32-bit half, and the
    target's and candidate 0's share word 0; one of 33..63 bits is a word,
    after the target's; at 64 bits candidate 0 is halves 0 and n of its
    segment, in its words 0 and n // 2, after the target's word.  Returns
    their stream indices, their positions in one call, and that call: the
    chunk's target and input segments as they are, whose other words stay
    zero and decode to candidates that are not evaluated, then one flip
    segment of every fault for candidate 0 alone.  At most
    ``_FIRST_FLIP_WORDS`` uniforms per candidate keep the chunk one call
    with one flip segment, which starts at candidate 0.
    """
    ((_, segments),), _, _ = _layout(width, n, flips, target, False)
    heads = tuple(s for s in segments if not isinstance(s[0], slice))
    start = int(target)  # the input segment's first word
    if width <= 32:
        index = [0]
    elif width < 64:
        index = list(range(start + 1))
    else:
        index = sorted({0, start, start + n // 2})
    size = heads[-1][4]
    total = size + flips * width
    pos = np.array(index + list(range(size, total)))
    pos.flags.writeable = False  # cached: every caller gets this array
    for _, _, stop, lo, _ in segments[len(heads):]:
        for word in range(lo, lo + flips * stop * width, stop * width):
            index += range(word, word + width)
    flip = ((slice(0, flips), 0, 1, size, total),) if flips else ()
    return tuple(index), pos, ((total, heads + flip),)


def _first_hits(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    seeds: np.ndarray,
    radius: int,
    cols: dict,
) -> np.ndarray:
    """Settle the trials whose first candidate lies within ``radius`` of its reference.

    Row r of ``seeds`` holds the seed words (:func:`_seed_words`) of the
    trial in column r of ``cols`` (:func:`_columns`).  The words the first
    candidate reads (:func:`_first_layout`) are computed from them
    (:func:`_stream_words`), a group of trials at a time, and decoded,
    flipped and evaluated as the chunk loop would, left-aligned in their
    lanes.  ``radius`` is the smallest of the rows' radii, so a hit settles
    its column in every row, after one iteration, accepted.  Returns which
    trials hit.  None hits when a candidate draws more than
    ``_FIRST_FLIP_WORDS`` flip uniforms: those trials' generators reach
    their words sooner.
    """
    width, search = cfg.width, cfg.mode is ComparisonMode.TARGET_SEARCH
    limits = _flip_limits(perturbations(cfg.faults))
    if len(limits) * width > _FIRST_FLIP_WORDS:
        return np.zeros(len(seeds), dtype=bool)
    n = min(_CHUNK_FIRST, cfg.max_iterations)
    index, pos, calls = _first_layout(width, n, len(limits), search)
    shift = _lane(width) - width
    rows = _FIRST_GROUP_WORDS // len(index)
    hits = []
    for g in range(0, len(seeds), rows):
        group = seeds[g : g + rows]
        raw = np.zeros((len(group), calls[0][0]), dtype=np.uint64)
        raw[:, pos] = _stream_words(group, index)
        target, _, gs, flipped = _decode((raw,), calls, width, n, limits, None, None)
        re = faulty.evaluate_batch(flipped[:, 0], shift)
        im = target if search else ideal.evaluate_batch(gs[:, 0], shift)
        hit = np.bitwise_count(re ^ im) <= radius
        at = (slice(None), g + np.flatnonzero(hit))
        _settle(cols, at, re[hit] >> shift, im[hit] >> shift, 1, True)
        hits.append(hit)
    return np.concatenate(hits)


def run_trial(
    cfg: ExperimentConfig,
    faulty: Circuit,
    ideal: Circuit,
    rng: np.random.Generator,
) -> DeviationSample:
    """Run one rejection-sampling trial and return its deviation sample.

    One loop serves both modes; only the reference differs: the drawn
    target, or ``ideal``'s output on the same inputs.  ``rng`` must hold no
    buffered 32-bit half, as a generator from :func:`trial_rng` does; the
    trial is :func:`run_experiment`'s loop on that one generator, so
    ``run_trial(cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t))`` is
    sample t of the experiment.

    Budget exhaustion is a data outcome: the sample of the last examined
    candidate is returned with ``accepted=False`` and the full iteration
    count.  A target that no output of ``faulty`` lies within epsilon of
    is censored at once, without examining a candidate: its sample carries
    the nearest output (:meth:`Circuit.nearest`) as ``re`` and the full
    iteration count.
    """
    cols = _columns(1, 1)
    radius = max_acceptable_distance(cfg.width, cfg.epsilon)
    _run_trials(cfg, faulty, ideal, {0: rng}, [radius], cols)
    return _level(cols, 0, cfg.epsilon, cfg.resolved_label())[0]


def run_levels(cfg: ExperimentConfig, epsilons: Sequence[float]) -> list[Samples]:
    """The samples of every uncertainty level, one :class:`Samples` per entry of ``epsilons``.

    Entry i equals ``run_experiment(replace(cfg, epsilon=epsilons[i]))``;
    ``cfg.epsilon`` itself is not used.  Every level is validated before
    the first draw.  Trials settle into the run's columns
    (:func:`_columns`), one row per distinct accept radius, in passes of
    one aligned seed block (:data:`_SEED_BLOCK`).  A pass first settles,
    from the block's seed words, every trial whose first candidate lies
    within the smallest radius, at every radius (:func:`_first_hits`).  It
    then builds a generator for each trial left open and walks its stream
    once, from its first word, in the chunk loop of :func:`_run_trials`,
    for every radius at once.  Raw words are drawn and dropped a group at a
    time, so a pass keeps only each open trial's generator, target,
    buffered half and open radii.  Each level is its radius's row of the
    columns with its own epsilon and label, held once (:func:`_level`):
    levels that share a radius share that row's arrays, so the run holds
    25 B per trial and distinct radius, however many levels map to them.
    """
    for eps in epsilons:
        replace(cfg, epsilon=eps).validate()
    ks = [max_acceptable_distance(cfg.width, eps) for eps in epsilons]
    radii = sorted(set(ks))
    ideal = cfg.circuit
    faulty = inject_all(cfg.circuit, cfg.faults)
    cols = _columns(len(radii), cfg.trials)
    for start in range(0, cfg.trials if radii else 0, _SEED_BLOCK):
        seeds = _seed_words(cfg.seed, start // _SEED_BLOCK)[: cfg.trials - start]
        block = {name: c[:, start : start + len(seeds)] for name, c in cols.items()}
        hit = _first_hits(cfg, faulty, ideal, seeds, radii[0], block)
        rngs = {r: trial_rng(cfg.seed, start + r) for r in np.flatnonzero(~hit).tolist()}
        _run_trials(cfg, faulty, ideal, rngs, radii, block)
    label = cfg.resolved_label()
    return [_level(cols, radii.index(k), eps, label) for eps, k in zip(epsilons, ks)]


def run_experiment(cfg: ExperimentConfig) -> Samples:
    """Run ``cfg.trials`` trials in index order and return their samples.

    Every trial runs on its own substream (:func:`trial_rng`), so the result
    is a pure function of the configuration.  This is :func:`run_levels` at
    the one level ``cfg.epsilon``.
    """
    return run_levels(cfg, (cfg.epsilon,))[0]
