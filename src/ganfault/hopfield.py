"""Agreement variables and the pair-energy spectrum of sampled ensembles.

For a pair of simulated/expected signals, the agreement vector is the
:class:`BitVector` whose bit j is xi_j = 1 where the signals match and 0
where they deviate; an ensemble is a sequence of them, indexed by list
position.  Over an ensemble of P configurations the pair energy of
configuration mu and bit components (i, j) is

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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import BitVector
from .sampler import DeviationSample

#: Widest ensemble whose per-manifold completeness rows spectrum.json holds.
MAX_COMPLETENESS_WIDTH = 16


def agreement_vector(simulated: BitVector, expected: BitVector) -> BitVector:
    """xi_j = 1 iff simulated and expected agree at position j."""
    if simulated.width != expected.width:
        raise ValueError(f"width mismatch: {simulated.width} vs {expected.width}")
    return agreement_from_deviation(
        simulated.value << 1, expected.value << 1, simulated.width
    )


def agreement_from_deviation(re: int, im: int, width: int) -> BitVector:
    """Agreement vector recovered from an encoded (re, im) deviation point."""
    return BitVector(width, ~(re ^ im) >> 1 & ((1 << width) - 1))


def ensemble_from_samples(
    samples: Iterable[DeviationSample], width: int
) -> list[BitVector]:
    """Agreement vectors of the accepted samples, in sample order."""
    return [agreement_from_deviation(s.re, s.im, width) for s in samples if s.accepted]


def _check_ensemble(ensemble: Sequence[BitVector]) -> int:
    if not ensemble:
        raise ValueError("ensemble is empty")
    width = ensemble[0].width
    if any(a.width != width for a in ensemble):
        raise ValueError("width mismatch inside ensemble")
    return width


def _distinct_per_manifold(ensemble: Sequence[BitVector]) -> Counter:
    """Number of distinct words of each agreement count k."""
    return Counter(v.bit_count() for v in {a.value for a in ensemble})


def pair_energy(
    ensemble: Sequence[BitVector], mu: int, i: int, j: int
) -> float:
    """Pair energy of configuration mu and components (i, j), 1-based i, j."""
    width = _check_ensemble(ensemble)
    if not 0 <= mu < len(ensemble):
        raise ValueError(f"index mu={mu} out of range 0..{len(ensemble) - 1}")
    if not (1 <= i <= width and 1 <= j <= width):
        raise ValueError(f"index (i={i}, j={j}) out of range 1..{width}")
    total = sum(a.bit(j) for a in ensemble)
    return -(ensemble[mu].bit(i) * total) / (2 * width)


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


def spectrum(ensemble: Sequence[BitVector]) -> EnergySpectrum:
    """Group an ensemble into manifolds and summarize their pair energies."""
    width = _check_ensemble(ensemble)
    words = np.array([a.value for a in ensemble], dtype=np.uint64)
    bits = words[:, None] >> np.arange(width, dtype=np.uint64)
    bits &= 1
    col_sums = bits.sum(axis=0)
    sum_all = int(col_sums.sum())
    max_col = int(col_sums.max())
    min_col = int(col_sums.min())
    denom = 2 * width
    members = Counter(a.popcount() for a in ensemble)
    distinct = _distinct_per_manifold(ensemble)

    manifolds: dict[int, ManifoldStats] = {}
    for k in sorted(members):
        if k == 0:
            min_e = max_e = mean_e = 0.0
        else:
            min_e = -max_col / denom
            max_e = 0.0 if k < width else -min_col / denom
            mean_e = -(k * sum_all) / (width * width * denom)
        manifolds[k] = ManifoldStats(
            agreement_count=k,
            degeneracy=members[k],
            distinct_patterns=distinct[k],
            min_energy=min_e,
            max_energy=max_e,
            mean_energy=mean_e,
        )
    return EnergySpectrum(len(ensemble), width, manifolds)


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


def completeness_check(
    width: int, ensemble: Sequence[BitVector]
) -> CompletenessReport:
    """Compare observed distinct words per manifold against C(N, k).

    Widths outside 1..MAX_COMPLETENESS_WIDTH raise ValueError.
    """
    if not 1 <= width <= MAX_COMPLETENESS_WIDTH:
        raise ValueError(
            f"completeness width must be in [1, {MAX_COMPLETENESS_WIDTH}], got {width}"
        )
    if ensemble:
        found = _check_ensemble(ensemble)
        if found != width:
            raise ValueError(f"width mismatch: ensemble has {found}, expected {width}")
    distinct = _distinct_per_manifold(ensemble)
    rows = tuple(
        ManifoldCompleteness(k, distinct[k], math.comb(width, k))
        for k in range(width + 1)
    )
    return CompletenessReport(width, rows)
