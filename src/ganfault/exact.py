"""The exact law of one candidate draw, read pair by pair off the circuit.

Uniform inputs and per-bit flips keep a draw's aligned bit pairs independent,
so its Hamming distance from the reference (the ideal circuit on the unflipped
input, or the target) sums per-pair distances 0..2 read off
:attr:`Circuit.pair_table`, whose repeated columns at odd width need no care.
"""

import math

import numpy as np

from .circuit import Circuit

_VALUES = np.arange(4, dtype=np.uint8)


def distance_law(faulty: Circuit, reference, flips=()) -> np.ndarray:
    """P(distance = d), d = 0..N, from the ideal :class:`Circuit` ``reference``,
    or one row each from an int or ``uint64`` array of targets."""
    q = (1 - math.prod(1 - 2 * p for p in flips)) / 2  # the flip faults' p together
    chance = np.outer([1 - q, q], [1 - q, q]).ravel() / 4  # of each input and flip mask
    pairs = np.arange(len(faulty.pair_table))
    if isinstance(reference, Circuit):
        refs, index = reference.pair_table[:, None, :, None], 0
    else:  # every value a target's pair may hold, at every input
        refs = _VALUES[:, None, None]
        index = np.asarray(reference, np.uint64)[..., None] >> 2 * pairs.astype(np.uint64) & 3
    distance = np.bitwise_count(faulty.pair_table[:, None, _VALUES[:, None] ^ _VALUES] ^ refs)
    laws = np.stack([(chance * (distance == d)).sum(axis=(2, 3)) for d in range(3)], axis=-1)
    laws = laws[pairs, np.asarray(index, np.intp)]  # ([target,] pair, distance)
    law = np.zeros(laws.shape[:-2] + (2 * len(pairs) + 1,))
    law[..., 0] = 1
    for pair in np.moveaxis(laws, -2, 0):  # convolve with the next pair's law
        law = sum(np.roll(law, d, axis=-1) * pair[..., d, None] for d in range(3))
    return law[..., : faulty.width + 1]


def acceptance(law: np.ndarray, radius: int):
    """p = P(distance <= radius), the chance that one draw is accepted."""
    return np.minimum(law[..., : radius + 1].sum(axis=-1), 1.0)


def censored_chance(p, budget):
    """(1 - p)**budget, the chance that a trial spends its budget unaccepted."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, np.exp(budget * np.log1p(-np.asarray(p, float))), 1.0)[()]


def expected_iterations(p, budget):
    """E[min(G, budget)] = (1 - (1 - p)**budget) / p, G geometric; ``budget`` at p = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rejected = budget * np.log1p(-np.asarray(p, float))
        return np.where(p > 0, -np.expm1(rejected) / p, budget)[()]
