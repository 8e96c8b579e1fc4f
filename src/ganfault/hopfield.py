"""Agreement variables and the pair-energy spectrum of sampled ensembles.

For a pair of simulated/expected signals, the agreement word holds xi_j = 1
at bit j - 1 where the signals match and 0 where they deviate.  An ensemble
of P configurations is a ``uint64`` array of such words plus their width N,
indexed by position.  The pair energy of configuration mu and bit components
(i, j) is

    E^mu_ij = -(1 / 2N) * sum_nu (xi^mu_i * xi^nu_j)^2
            = -(1 / 2N) * xi^mu_i * S_j,      S_j = sum_nu xi^nu_j,

the squared form collapsing because xi is binary.  Energies lie in
[-P/(2N), 0]; full agreement is the most negative (most stable) state.
Configurations sharing an agreement count k (the popcount of their word)
form a manifold of constant relative uncertainty 1 - k/N; an ensemble is
complete when every manifold holds all C(N, k) distinct words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import MAX_WIDTH, BitVector
from .sampler import Samples

#: Widest ensemble whose per-manifold completeness rows spectrum.json holds.
MAX_COMPLETENESS_WIDTH = 16


def _agreement(x, y, width: int):
    """The agreement word of ints, or ``uint64`` arrays, x and y."""
    return ~(x ^ y) & (1 << width) - 1


def agreement_vector(simulated: BitVector, expected: BitVector) -> BitVector:
    """xi_j = 1 iff simulated and expected agree at position j."""
    if simulated.width != expected.width:
        raise ValueError(f"width mismatch: {simulated.width} vs {expected.width}")
    return BitVector(simulated.width, _agreement(simulated.value, expected.value, simulated.width))


def ensemble_from_samples(samples: Samples, width: int) -> np.ndarray:
    """Agreement words of the accepted samples, in sample order."""
    return _agreement(samples.out[samples.accepted], samples.ref[samples.accepted], width)


def _check(words, width: int, widest: int = MAX_WIDTH) -> np.ndarray:
    """``words`` as a ``uint64`` array of agreement words of ``width`` bits."""
    if not 1 <= width <= widest:
        raise ValueError(f"width must be in [1, {widest}], got {width}")
    words = np.asarray(words, dtype=np.uint64)
    if int(words.max(initial=0)) >> width:
        raise ValueError(f"agreement word {int(words.max())} does not fit in width {width}")
    return words


def _per_manifold(words: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Numbers of words, and of distinct words, of each agreement count k = 0..width."""
    distinct, counts = np.unique(words, return_counts=True)
    ones = np.bitwise_count(distinct)
    return np.bincount(ones, counts, width + 1), np.bincount(ones, minlength=width + 1)


def pair_energy(words, width: int, mu: int, i: int, j: int) -> float:
    """Pair energy of configuration mu and components (i, j), 1-based i, j."""
    words = _check(words, width)
    if not 0 <= mu < len(words):
        raise ValueError(f"index mu={mu} out of range 0..{len(words) - 1}")
    if not (1 <= i <= width and 1 <= j <= width):
        raise ValueError(f"index (i={i}, j={j}) out of range 1..{width}")
    total = int(np.count_nonzero(words & np.uint64(1 << j - 1)))
    return -(int(words[mu]) >> i - 1 & 1) * total / (2 * width)


@dataclass(frozen=True)
class ManifoldStats:
    """One constant-uncertainty manifold: its size and energy spread."""

    agreement_count: int
    degeneracy: int
    distinct_patterns: int
    min_energy: float
    max_energy: float
    mean_energy: float


@dataclass
class EnergySpectrum:
    """All pair energies of an ensemble, grouped into manifolds."""

    size: int
    width: int
    manifolds: dict[int, ManifoldStats]

    @property
    def energy_floor(self) -> float:
        """Lower bound -P/(2N) attained by full-agreement ensembles."""
        return -self.size / (2 * self.width)


def spectrum(words, width: int) -> EnergySpectrum:
    """Group an ensemble into manifolds and summarize their pair energies."""
    words = _check(words, width)
    if not len(words):
        raise ValueError("ensemble is empty")
    col_sums = [int(np.count_nonzero(words & np.uint64(1 << j))) for j in range(width)]
    sum_all, max_col, min_col = sum(col_sums), max(col_sums), min(col_sums)
    denom = 2 * width
    members, distinct = _per_manifold(words, width)

    manifolds: dict[int, ManifoldStats] = {}
    for k in np.flatnonzero(members).tolist():
        if k == 0:
            min_e = max_e = mean_e = 0.0
        else:
            min_e = -max_col / denom
            max_e = 0.0 if k < width else -min_col / denom
            mean_e = -(k * sum_all) / (width * width * denom)
        manifolds[k] = ManifoldStats(
            agreement_count=k,
            degeneracy=int(members[k]),
            distinct_patterns=int(distinct[k]),
            min_energy=min_e,
            max_energy=max_e,
            mean_energy=mean_e,
        )
    return EnergySpectrum(len(words), width, manifolds)


@dataclass(frozen=True)
class ManifoldCompleteness:
    agreement_count: int
    observed: int
    expected: int

    @property
    def complete(self) -> bool:
        return self.observed == self.expected


@dataclass(frozen=True)
class CompletenessReport:
    width: int
    manifolds: tuple[ManifoldCompleteness, ...]

    @property
    def complete(self) -> bool:
        return all(m.complete for m in self.manifolds)


def completeness_check(width: int, words) -> CompletenessReport:
    """Compare observed distinct words per manifold against C(N, k).

    Widths outside 1..MAX_COMPLETENESS_WIDTH raise ValueError.
    """
    distinct = _per_manifold(_check(words, width, MAX_COMPLETENESS_WIDTH), width)[1]
    rows = tuple(
        ManifoldCompleteness(k, int(distinct[k]), math.comb(width, k))
        for k in range(width + 1)
    )
    return CompletenessReport(width, rows)
