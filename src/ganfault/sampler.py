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
the chunks of the determinism contract together.  In a target search each
of them first draws its target from one word of its stream, and the
unreachable-target screen (below) runs once over every target of the
walk, before the first chunk.  For each chunk, each open trial draws its
words with the generator's ``random_raw``, a group of trials at a time;
the inputs and flip uniforms are read out of them exactly as numpy's
``integers`` and ``random`` would draw them, and flips, evaluation and the
accept test run as arrays over the group, whose raw words are then
dropped.  Each open trial's target, buffered half and open radii live in
per-walk arrays indexed by its position in the walk, as settled results
live in the run's columns: a group reads and writes them at its
positions.  A trial leaves the walk once settled; :func:`run_trial` is the
same loop on one generator.

One kind of trial finishes on its own.  In this gate set a bijection is
``x ^ C0``: a binary gate writes one bit to both positions of its pair, so
no pair that holds one is injective, and unary gates only complement.  So
in a target search without flip faults on a bijection (covering radius 0),
a candidate lies at radius 0 exactly when its input is ``target ^ C0``.  A
trial whose only open radius is 0 there leaves the group walk after its
chunk and reads the rest of its stream alone (:func:`_walk_alone`),
comparing raw input lanes with that preimage and evaluating nothing.
Without flip uniforms between them, a stream's inputs follow each other
half by half or word by word, so which word becomes which candidate does
not depend on the chunk sizes, and the walk may draw in blocks of its own.
Widths below 14 keep the group walk: there a trial expects a hit within
fewer inputs than one block of the walk holds, and the group's next chunk
settles it for less.

One walk serves every uncertainty level of a sweep (:func:`run_levels`).
Each level reuses trial t's stream, and its sample at accept radius K is
the first candidate within K of the reference, or the last one the budget
allows, so the loop takes the levels' distinct radii and settles each
radius at its own first hit.  A trial's open radii are a contiguous range:
a hit at distance d settles every open radius >= d, and the end of the
budget censors the rest.  A group whose only open radius is 0 keeps the
exact-match accept test, so the bulk draws at radius 0 pay nothing for the
others; on a bijection its trials walk alone instead.  :func:`run_experiment`
and :func:`run_trial` are the one-radius case.  A settled trial is written
into the run's columns (:func:`_columns`), one row per radius, and each
level's result is its radius's row as a
:class:`Samples`, which holds the level's epsilon and label once: the
columns are never turned into per-trial objects, levels that share a radius
share them, and a level costs the same few objects at any trial count.
A :class:`DeviationSample` is built only when a caller reads a row.

A run decides once, before its first pass, how its trials are settled
(:func:`_plan`): whether the first-candidate pass runs (the plan's
``first``), whether targets are screened (``screen``) and whether trials
left with radius 0 walk alone (``alone``).  The pass and the walk read
those fields and decide nothing themselves; only which of a group's open
radii a chunk tests is walk state, read group by group.

Most trials of a high-epsilon run accept their first candidate, so a pass
first settles those without a generator (:func:`_first_hits`).  numpy's
PCG64 seeding, stepping, jump-ahead and XSL-RR output are reproduced as
uint64 arrays (:func:`_stream_words`), next to ``SeedSequence``'s
derivation of the seed words, and give the words the first candidate reads
straight from the seed words: the pass's 8192 streams step together, one
128-bit product per word, from each word it reads to the next.  A trial
whose first candidate lies within the smallest radius is settled there at
every radius; only the trials left open get a generator and walk the chunk
loop from their first word.  The pass is skipped when a candidate draws
more than ``_FIRST_FLIP_WORDS`` flip uniforms.

Inputs are not decoded.  At every width w, inputs and targets are what
numpy's ``integers(0, 2**w, dtype=np.uint64)`` draws: an input of w <= 32
bits is the top w bits of a 32-bit half of a raw word, a wider one the top
w bits of a word, so each stays in that lane (:func:`_lane`), ``lane - w``
bits up, with random bits below it.  Every gate acts inside one bit pair,
so the circuit evaluates there with its masks moved up as far
(:meth:`Circuit.evaluate_batch`); the target and the flip masks move up
with them, a target search folds its target into the circuit's constant
term, and the accept test reads the lanes as they are.  Only settled
outputs and the screened targets shift back down.

Unreachable targets are skipped, radius by radius.  Every gate acts
inside one aligned bit pair, inputs are uniform and flip noise keeps them
uniform, so a target can be accepted at radius K exactly when its distance
to the nearest output of the faulty circuit is within K.  So once the
targets are drawn, before the first chunk, every target is screened: at
every radius below that distance it is censored before any candidate is
examined, and its sample reports the full ``max_iterations`` and, as
``re``, that nearest output.  A trial keeps drawing for the larger radii;
one with no radius left draws no chunk, and its generator stands one word
on, past its target.  A radius that every target lies within of an output
(``Circuit.covering_radius``) needs no check.

Determinism contract: trial t draws from the substream
``default_rng(SeedSequence(entropy=seed, spawn_key=(t,)))`` and consumes
it in a fixed order (target first in TARGET_SEARCH, from one word, then
candidate chunks of sizes 8, 64, 512, 4096, 8192, 8192, ...; each chunk
draws its inputs, then one block of width uniforms per perturbation
fault).  A trial's result
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
# one pass of :func:`run_levels`.  A power of two below 2**32, so a block
# never straddles a multiple of 2**32: only the lowest word of its spawn
# keys varies.  The first-candidate pass steps its streams together as
# uint64 columns of this many rows (:func:`_stream_words`), 64 KiB each.
# Stepping pays only on wide columns: 10 000 trials of 17 words (width 16,
# one flip fault) took 4.1 ms in columns of 8192 rows, 10.5 ms of 1024 and
# 16.7 ms of 481, against 11.8 ms for jumping to each word 481 rows at a
# time (numpy 2.4.6, a shared 2-core host).  Seed words cost about 75 ns a
# trial in blocks of 8192, 200 ns in blocks of 1024.  A pass builds a
# generator, about 750 B, for each trial it leaves open.
_SEED_BLOCK = 1 << 13
# Raw words one group of trials holds at a time, in one ``random_raw`` call
# or in its two arrays of candidates (:func:`_layout`).
_GROUP_WORDS = 1 << 15
# The kind of a chunk's input segment; a flip segment's kind is a slice of
# the flip faults (:func:`_layout`).
_INPUTS = -1
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
# (:func:`_plan`).  Stepped, a word costs the pass about 35 ns, and a
# trial the pass settles saves its generator and first chunk, 10-16 us: on
# identity circuits at epsilon 1 (every trial settled by the pass, 8192
# trials) the pass took 0.8 us a trial at width 16 with one flip fault,
# 1.4 us at 32 words and 2.5 us at 64, and still beat the generator at 256
# words (6.6 against 19 us).  The bound holds the pass's stepped words,
# 64 KiB each, near 2 MB; when few trials hit, both are spent for nothing.
_FIRST_FLIP_WORDS = 32
# Words one group of that pass decodes, and one block of a lone walk draws
# (:func:`_walk_alone`).  Its uint64 temporaries then stay at 64 KiB, which
# the allocator reuses; at 2**15 words each was mapped and faulted in afresh
# (about 6000 page faults per ``andnot16-cli`` rep).
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
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
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


def _limbs(value: int) -> tuple[np.uint64, ...]:
    """A 128-bit constant as :func:`_mul128` takes it.

    Returns its high word, its low word and the low word's 32-bit halves,
    low half first.
    """
    hi, lo = value >> 64 & _MASK64, value & _MASK64
    return tuple(np.uint64(v) for v in (hi, lo, lo & _MASK32, lo >> 32))


_PCG_STEP = _limbs(_PCG_MULT)


@functools.lru_cache(maxsize=64)
def _jump(k: int) -> tuple[tuple[np.uint64, ...], tuple[np.uint64, ...]]:
    """The multiplier A and increment factor C of stream word ``k``.

    PCG64 seeding steps a zero state once, adds the seed state and steps
    again, and each draw steps once before its output.  So with x the seed
    state plus the increment, word k is the output of x stepped k + 2 times
    (``s <- M * s + inc``), the state ``A * x + C * inc`` (mod 2**128),
    where ``A = M**(k+2)`` and ``C = 1 + M + ... + M**(k+1)``.  The steps
    compose by squaring, as PCG's ``advance`` does: ``(a, c)`` is the
    affine map of 2**i steps, and applying it after ``(A, C)`` gives
    ``(a * A, a * C + c)``; it takes O(log k) products.  Both are returned
    as :func:`_limbs`.
    """
    big_a, big_c, a, c = 1, 0, _PCG_MULT, 1
    steps = k + 2
    while steps:
        if steps & 1:
            big_a, big_c = big_a * a & _MASK128, (big_c * a + c) & _MASK128
        a, c = a * a & _MASK128, c * (a + 1) & _MASK128
        steps >>= 1
    return _limbs(big_a), _limbs(big_c)


def _mul128(k: tuple[np.uint64, ...], hi: np.ndarray, lo: np.ndarray, scratch) -> None:
    """Set ``(hi, lo)`` to ``k * (hi, lo)`` mod 2**128, in place; ``k`` is :func:`_limbs`.

    numpy multiplies uint64 mod 2**64, so only the high word of the low
    words' product is assembled from 32-bit halves, in partial sums that
    stay below 2**64.  ``scratch`` is three arrays shaped as ``hi``.
    """
    k_hi, k_lo, k0, k1 = k
    x0, x1, t = scratch
    np.bitwise_and(lo, _MASK32, out=x0)
    np.right_shift(lo, 32, out=x1)
    hi *= k_lo
    hi += np.multiply(lo, k_hi, out=t)
    lo *= k_lo
    np.multiply(x0, k0, out=t)
    t >>= 32
    t += np.multiply(x0, k1, out=x0)
    hi += np.right_shift(t, 32, out=x0)
    t &= _MASK32
    t += np.multiply(x1, k0, out=x0)
    t >>= 32
    hi += t
    hi += np.multiply(x1, k1, out=x1)


def _add128(hi: np.ndarray, lo: np.ndarray, add_hi, add_lo) -> None:
    """Add ``(add_hi, add_lo)`` to ``(hi, lo)`` mod 2**128, in place."""
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo


def _stream_words(seeds: np.ndarray, index: tuple[int, ...]) -> np.ndarray:
    """Words ``index`` of each PCG64 stream, as ``random_raw`` draws them.

    Row r of ``seeds`` holds one stream's four seed words (:func:`_seed_words`);
    row r of the result holds that stream's words at the ascending stream
    indices ``index``.  As numpy's ``PCG64`` does, the first two seed words
    are the state's high and low word and the last two give the increment
    ``(seq << 1) | 1``.  The states advance together, one uint64 column per
    word of the state: from x (:func:`_jump`) to each word by stepping in
    place, one product by the constant M a step, or, where the next word
    is more than two steps on, by a jump from x, which takes two products.
    The output is XSL-RR: the state's two words XORed, rotated right by its
    top six bits.
    """
    s_hi, s_lo, q_hi, q_lo = (seeds[:, i] for i in range(4))
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < s_lo)
    hi, lo, at = x_hi.copy(), x_lo.copy(), -2
    scratch = [np.empty_like(lo) for _ in range(3)]
    rot, right = scratch[:2]
    words = np.empty((len(index), len(seeds)), dtype=np.uint64)
    for word, k in zip(words, index):
        if k - at > 2:
            a, c = _jump(k)
            np.copyto(hi, x_hi)
            np.copyto(lo, x_lo)
            _mul128(a, hi, lo, scratch)
            c_hi, c_lo = inc_hi.copy(), inc_lo.copy()
            _mul128(c, c_hi, c_lo, scratch)
            _add128(hi, lo, c_hi, c_lo)
        else:
            for _ in range(k - at):
                _mul128(_PCG_STEP, hi, lo, scratch)
                _add128(hi, lo, inc_hi, inc_lo)
        at = k
        np.bitwise_xor(hi, lo, out=word)
        np.right_shift(hi, 58, out=rot)
        np.right_shift(word, rot, out=right)
        np.subtract(64, rot, out=rot)
        rot &= 63
        word <<= rot
        word |= right
    return words.T


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
    into a new array.  For w > 32 an input is the top w bits of a word,
    read in place.
    """
    if width > 32:
        return raw, None
    halves = raw.astype("<u8", copy=False).view("<u4")
    if half is None:
        values = halves[:, :n]
    else:
        values = np.empty((len(raw), n), dtype=np.uint32)
        values[:, 0] = half
        values[:, 1:] = halves[:, : n - 1]
    left = halves[:, -1].copy() if halves.shape[1] > n - (half is not None) else None
    return values, left


def _targets(words: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Each trial's target, from the one stream word it is drawn from.

    The target is one input (:func:`_inputs`) with its bits below cleared,
    as a reference is compared; also returns the 32-bit half its word
    leaves buffered (None above 32 bits).
    """
    target, half = _inputs(words.reshape(-1, 1), width, 1, None)
    shift = _lane(width) - width
    return target[:, 0] >> shift << shift, half


@functools.lru_cache(maxsize=64)
def _layout(width: int, n: int, flips: int, buffered: bool):
    """How each open trial draws one chunk of ``n`` candidates.

    Returns the ``random_raw`` calls, the open trials per group, and whether
    a 32-bit half is buffered afterwards (``buffered``: before).  A call is
    its length in words and its segments ``(kind, start, stop, lo, hi)``:
    words lo..hi hold the inputs (kind ``_INPUTS``) or the uniforms of the
    flip faults in slice ``kind`` for candidates start..stop.  The first
    segment is the inputs.  An input of width w <= 32 takes a 32-bit half,
    a wider one a word, a flip uniform a word.  A call holds at most
    ``_GROUP_WORDS`` words, so a large chunk's flip uniforms come in pieces
    of whole candidates, and so does a group of trials: rows * max(call
    words, words of two arrays of n lanes) <= ``_GROUP_WORDS``, or one
    row.
    """
    piece = min(n, _GROUP_WORDS // width)  # candidates per flip segment
    per = _GROUP_WORDS // (piece * width)  # faults per flip segment
    draws = [(_INPUTS, 0, n)]
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
    half: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One chunk for a group of trials, drawn as :func:`_layout` lays it out.

    Each call's words are drawn with ``random_raw`` and read, one call at a
    time.  Returns each trial's 32-bit half left buffered after the chunk,
    its candidates, and its candidates with its flips applied, all
    left-aligned in their lanes (:func:`_inputs`).
    """
    shift = _lane(width) - width
    for words, segments in calls:
        raw = np.concatenate(
            [rng.bit_generator.random_raw(words) for rng in rngs]
        ).reshape(len(rngs), words)
        for kind, start, stop, lo, hi in segments:
            if kind == _INPUTS:
                gs, half = _inputs(raw[:, lo:hi], width, n, half)
                flipped = gs.copy() if len(limits) else gs
            else:
                flipped[:, start:stop] ^= _flip_masks(
                    raw[:, lo:hi], width, limits[kind], shift
                )
    return half, gs, flipped


def _walk_alone(
    rng: np.random.Generator, half: int | None, preimage: int, width: int, n: int
) -> tuple[int, int]:
    """The first of a trial's next ``n`` inputs equal to ``preimage``, or the n-th.

    A trial walks here where its run's plan has ``alone`` set (:func:`_plan`).
    Returns its index among the n and its value.  The inputs are read as
    :func:`_inputs` reads them, ``half`` (the buffered 32-bit half, or None)
    first; without flip uniforms between them, no chunk boundary moves one
    (see the module docstring).  They come in blocks of
    ``_FIRST_GROUP_WORDS`` words from ``random_raw``, read in place as
    32-bit halves (w <= 32) or words (w > 32), shifted down in place and
    compared with ``preimage``.
    """
    shift = _lane(width) - width
    start = 0
    if half is not None:
        value = half >> shift
        if value == preimage or n == 1:
            return 0, value
        start = 1
    per_word = 64 // _lane(width)
    while True:
        words = min(_FIRST_GROUP_WORDS, -((start - n) // per_word))
        raw = rng.bit_generator.random_raw(words)
        lanes = raw.astype("<u8", copy=False).view("<u4") if width <= 32 else raw
        if shift:
            lanes >>= shift
        hit = lanes[: n - start] == preimage
        i = int(hit.argmax())
        if hit[i]:
            return start + i, preimage
        start += len(hit)
        if start == n:
            return n - 1, int(lanes[len(hit) - 1])


class _Plan(NamedTuple):
    """How a run settles its trials, decided once, before its first pass (:func:`_plan`).

    The run's fixed inputs: the circuits, whether it is a target search,
    its sorted distinct accept radii, its budget of candidates per trial
    and the flip faults' limits (:func:`_flip_limits`).  Then what it does
    with them: ``first`` holds the stream indices the first-candidate pass
    reads (:func:`_first_layout`), or None where the pass is skipped;
    ``screen`` says whether the targets are screened, and ``alone`` whether
    a trial left with radius 0 alone walks alone (:func:`_walk_alone`).
    """

    faulty: Circuit
    ideal: Circuit
    search: bool
    radii: Sequence[int]
    budget: int
    limits: np.ndarray
    first: tuple[int, ...] | None
    screen: bool
    alone: bool


def _plan(cfg: ExperimentConfig, faulty: Circuit, ideal: Circuit, radii: Sequence[int]) -> _Plan:
    """The plan of a run of ``cfg`` at the sorted, distinct, non-empty ``radii``.

    The first-candidate pass runs unless a candidate draws more than
    ``_FIRST_FLIP_WORDS`` flip uniforms.  A target search screens its
    targets unless every target lies within the smallest radius of an
    output (``Circuit.covering_radius``).  A trial left with radius 0 alone
    walks alone in a target search without flips on a bijection (covering
    radius 0) of 14 bits or more.
    """
    width, search = cfg.width, cfg.mode is ComparisonMode.TARGET_SEARCH
    limits = _flip_limits(perturbations(cfg.faults))
    first = None
    if len(limits) * width <= _FIRST_FLIP_WORDS:
        first = _first_layout(width, min(_CHUNK_FIRST, cfg.max_iterations), len(limits), search)
    # A bijection is x ^ C0 here: a pair with a binary gate outputs (g, g).
    # At radius 0 it accepts one draw in 2**width, so a trial walks alone
    # only where it expects to read at least a block of inputs (w >= 14):
    # a narrower one is settled sooner by the group's next chunk.
    block = _FIRST_GROUP_WORDS * 64 // _lane(width)
    alone = (search and not len(limits) and radii[0] == 0 and 1 << width >= block
             and faulty.covering_radius == 0)
    return _Plan(faulty, ideal, search, radii, cfg.max_iterations, limits, first,
                 search and faulty.covering_radius > radii[0], alone)


def _run_trials(plan: _Plan, rngs: dict[int, np.random.Generator], cols: dict) -> None:
    """Settle each trial at each accept radius, one trial per fresh generator.

    ``rngs`` maps column t of ``cols`` (:func:`_columns`) to its trial's
    generator, columns in ascending order; the trial's sample at the
    plan's radius ``radii[j]`` is written to ``cols[j, t]``.  In a target
    search every trial first draws its target from one word
    (:func:`_targets`), and where the plan's ``screen`` is set every target
    is screened at once.  The trials then walk the chunks together.  In
    each chunk every open trial draws its words with ``random_raw``
    (:func:`_layout`), and a group of trials at a time is flipped,
    evaluated and accepted as arrays, on the inputs left-aligned in their
    raw lanes: the circuits evaluate there (``shift``), a target search
    folds each target into the constant term, and only settled values are
    shifted back down.

    A trial's open radii are the range ``lo..hi``.  The screen raises
    ``lo`` past every radius below the target's distance to the nearest
    output, and censors those radii at once; a hit at distance d settles
    every open radius >= d at that candidate, which lowers ``hi``; at the
    end of the budget every open radius is censored at the last candidate.
    A trial leaves once its range is empty, so each trial's stream is walked
    once for every radius.  Open trials have drawn the same chunks, so they
    share each chunk's layout; only the value of a buffered half differs.
    A trial's state lives in per-walk arrays indexed by its walk position:
    its column, generator, target, buffered half and ``lo``/``hi``; a group
    reads and writes them at its positions, and ``walking`` holds the
    positions still open.  Where the plan's ``alone`` is set, a trial left
    with radius 0 alone (``lo`` 0, ``hi`` 1) leaves after its chunk and
    finishes its stream in :func:`_walk_alone`, which looks for the
    preimage ``target ^ C0``.
    """
    faulty, ideal, search, radii, budget, limits = plan[:6]
    width = faulty.width
    ks = np.array(radii, dtype=np.uint8)
    c0 = faulty._form[1]
    shift = _lane(width) - width
    trials, gens = np.array(list(rngs), dtype=np.intp), list(rngs.values())
    lo, hi = np.zeros_like(trials), np.full_like(trials, len(radii))
    targets, halves = None, np.zeros(len(trials), dtype=np.uint32)
    buffered = False
    if search:
        words = np.fromiter(
            (rng.bit_generator.random_raw() for rng in gens), np.uint64, len(gens)
        )
        targets, half = _targets(words, width)
        if half is not None:
            halves, buffered = half, True
        if plan.screen:
            distance, nearest = faulty.nearest(targets >> shift)
            lo = np.searchsorted(ks, distance)
            rs, js = np.nonzero(np.arange(len(radii)) < lo[:, None])
            _settle(cols, (js, trials[rs]), nearest[rs], targets[rs] >> shift,
                    budget, False)
    walking = np.flatnonzero(lo < hi)
    drawn, size = 0, _CHUNK_FIRST
    while len(walking):
        n = min(size, budget - drawn)
        last = drawn + n == budget
        calls, rows, left = _layout(width, n, len(limits), buffered)
        for g in range(0, len(walking), rows):
            at = walking[g : g + rows]
            los, his = lo[at], hi[at]
            half, gs, flipped = _draw([gens[p] for p in at.tolist()], calls, width,
                                      n, limits, halves[at] if buffered else None)
            if left:
                halves[at] = half
            if search:
                target = targets[at]
                diff = faulty.evaluate_batch(flipped.ravel(), shift, target)
            else:
                modulated = faulty.evaluate_batch(flipped.ravel(), shift).reshape(gs.shape)
                reference = ideal.evaluate_batch(gs.ravel(), shift).reshape(gs.shape)
                diff = modulated ^ reference
            # Row rs[i] settles radius js[i] at candidate first[i] if ok[i],
            # else, at the end of the budget, at the last candidate.  The
            # group's open radii are glo..ghi; the first row has the
            # largest hi.
            glo, ghi = los.min(), his[0]
            if ghi - glo == 1:
                # Every row has the one radius glo open.  A hit scores 0, so a
                # row's first minimum is its first hit if it has one.  At
                # radius 0 a hit is an exact match: the XOR scores.
                score = diff if radii[glo] == 0 else np.bitwise_count(diff) > ks[glo]
                first = score.argmin(axis=1)
                hit = score[np.arange(len(first)), first] == 0
                rs = np.flatnonzero(hit | last)
                js, ok, first = glo, hit[rs], first[rs]
                hi[at[rs]] = glo
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
                hi[at] = los if last else los + (open_ & ~hit).sum(axis=1)
            if len(rs):
                i = np.where(ok, first, n - 1)
                if search:
                    im = target[rs]
                    re = diff[rs, i] ^ im
                else:
                    re, im = modulated[rs, i], reference[rs, i]
                _settle(cols, (js, trials[at[rs]]), re >> shift, im >> shift,
                        i + drawn + 1, ok)
            if plan.alone:
                # Trials whose only open radius is 0 finish their streams alone.
                for p in at[hi[at] == 1].tolist():
                    t, im = int(trials[p]), int(targets[p]) >> shift
                    i, value = _walk_alone(gens[p], int(halves[p]) if left else None,
                                           im ^ c0, width, budget - drawn - n)
                    _settle(cols, (0, t), value ^ c0, im, drawn + n + i + 1,
                            value ^ c0 == im)
                    hi[p] = 0
        buffered = left
        walking = walking[lo[walking] < hi[walking]]
        if len(radii) > 1:
            # Falling hi: a group's first row has its largest, and trials
            # left with one radius share groups.
            walking = walking[np.argsort(-hi[walking], kind="stable")]
        drawn += n
        size = min(size * _CHUNK_GROWTH, _CHUNK_MAX)


def _first_layout(width: int, n: int, flips: int, target: bool) -> tuple[int, ...]:
    """The stream indices of the words a trial's first candidate reads.

    These are, in a target search, the target's word (word 0,
    :func:`_targets`), then the words of the first chunk (:func:`_layout`)
    that hold candidate 0's input and, for each flip fault, its ``width``
    uniforms.  An input of w <= 32 bits is a 32-bit half: after a target it
    is the half the target's word left buffered, which takes no word of the
    chunk, and otherwise the chunk's word 0 holds it.  A wider input is the
    chunk's word 0.  At most ``_FIRST_FLIP_WORDS`` uniforms per candidate
    keep the chunk one call, whose flip uniforms follow its inputs fault by
    fault, n candidates of ``width`` words each.
    """
    start = int(target)  # the chunk's first stream word
    buffered = target and width <= 32
    ((_, (inputs, *_)),), _, _ = _layout(width, n, flips, buffered)
    index = [] if buffered else [0]
    index += (inputs[4] + f * n * width + b for f in range(flips) for b in range(width))
    return (*[0] * start, *(start + w for w in index))


def _first_hits(plan: _Plan, seeds: np.ndarray, cols: dict) -> np.ndarray:
    """Settle the trials whose first candidate lies within the plan's first radius.

    Row r of ``seeds`` holds the seed words (:func:`_seed_words`) of the
    trial in column r of ``cols`` (:func:`_columns`), at most a seed block
    of them.  The words the first candidate reads, the plan's ``first``,
    are computed from them for every row at once, by stepping the streams
    together (:func:`_stream_words`).  Candidate 0 is read from them as
    the chunk loop would read it (:func:`_inputs`, after the half the
    target's word left buffered), flipped by the uniforms' columns
    (:func:`_flip_masks`) and evaluated, left-aligned in its lane, a group
    of ``_FIRST_GROUP_WORDS`` words at a time, so that the temporaries stay
    small.  That radius is the smallest of the rows' radii, so a hit
    settles its column in every row, after one iteration, accepted.
    Returns which trials hit.  None hits where ``first`` is None.
    """
    if plan.first is None:
        return np.zeros(len(seeds), dtype=bool)
    faulty, search, limits, index = plan.faulty, plan.search, plan.limits, plan.first
    width = faulty.width
    uniforms = len(index) - len(limits) * width  # column of the first flip uniform
    shift = _lane(width) - width
    words = _stream_words(seeds, index)
    rows = _FIRST_GROUP_WORDS // len(index)
    hits = []
    for g in range(0, len(seeds), rows):
        group = words[g : g + rows]
        target, half = _targets(group[:, 0], width) if search else (None, None)
        gs = _inputs(group[:, int(search) : uniforms], width, 1, half)[0][:, 0]
        flipped = gs
        if len(limits):
            flipped = gs ^ _flip_masks(group[:, uniforms:], width, limits, shift)[:, 0]
        re = faulty.evaluate_batch(flipped, shift)
        im = target if search else plan.ideal.evaluate_batch(gs, shift)
        hit = np.bitwise_count(re ^ im) <= plan.radii[0]
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
    iteration count, and ``rng`` is left one word on, past the target.
    """
    cols = _columns(1, 1)
    radius = max_acceptable_distance(cfg.width, cfg.epsilon)
    _run_trials(_plan(cfg, faulty, ideal, [radius]), {0: rng}, cols)
    return _level(cols, 0, cfg.epsilon, cfg.resolved_label())[0]


def run_levels(cfg: ExperimentConfig, epsilons: Sequence[float]) -> list[Samples]:
    """The samples of every uncertainty level, one :class:`Samples` per entry of ``epsilons``.

    Entry i equals ``run_experiment(replace(cfg, epsilon=epsilons[i]))``;
    ``cfg.epsilon`` itself is not used.  Every level is validated before
    the first draw, and the run's plan (:func:`_plan`) is made once, before
    the first pass.  Trials settle into the run's columns
    (:func:`_columns`), one row per distinct accept radius, in passes of
    one aligned seed block of 8192 trials (:data:`_SEED_BLOCK`).  Where the
    plan's ``first`` is set, a pass first settles, from the block's seed
    words, every trial whose first candidate lies within the smallest
    radius, at every radius: its 8192 streams step together through the
    words that candidate reads (:func:`_first_hits`).  It then builds a
    generator for each trial left open and walks its stream once, from its
    first word, in the chunk loop of :func:`_run_trials`, for every radius
    at once; where the plan's ``alone`` is set, a trial left with radius 0
    alone finishes its stream by itself, comparing raw inputs with the
    target's preimage (:func:`_walk_alone`).  Raw words are drawn and
    dropped a group or a block at a time, so a pass keeps only each open
    trial's generator, target, buffered half and open radii, in per-walk
    arrays.  Each level is its radius's row of the columns with its own
    epsilon and label, held once (:func:`_level`): levels that share a
    radius share that row's arrays, so the run holds 25 B per trial and
    distinct radius, however many levels map to them.
    """
    for eps in epsilons:
        replace(cfg, epsilon=eps).validate()
    ks = [max_acceptable_distance(cfg.width, eps) for eps in epsilons]
    radii = sorted(set(ks))
    if not radii:
        return []
    plan = _plan(cfg, inject_all(cfg.circuit, cfg.faults), cfg.circuit, radii)
    cols = _columns(len(radii), cfg.trials)
    for start in range(0, cfg.trials, _SEED_BLOCK):
        seeds = _seed_words(cfg.seed, start // _SEED_BLOCK)[: cfg.trials - start]
        block = {name: c[:, start : start + len(seeds)] for name, c in cols.items()}
        hit = _first_hits(plan, seeds, block)
        # A pass's generators are dropped before the next pass builds its own.
        _run_trials(plan, {r: trial_rng(cfg.seed, start + r)
                           for r in np.flatnonzero(~hit).tolist()}, block)
    label = cfg.resolved_label()
    return [_level(cols, radii.index(k), eps, label) for eps, k in zip(epsilons, ks)]


def run_experiment(cfg: ExperimentConfig) -> Samples:
    """Run ``cfg.trials`` trials in index order and return their samples.

    Every trial runs on its own substream (:func:`trial_rng`), so the result
    is a pure function of the configuration.  This is :func:`run_levels` at
    the one level ``cfg.epsilon``.
    """
    return run_levels(cfg, (cfg.epsilon,))[0]
