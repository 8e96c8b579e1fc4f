"""Agreement variables and the pair-energy spectrum of sampled ensembles.

For a pair of simulated/expected signals, the agreement vector has
xi_j = 1 where the bits match and 0 where they deviate.  Over an ensemble
of P configurations the pair energy of configuration mu and bit
components (i, j) is

    E^mu_ij = -(1 / 2N) * sum_nu (xi^mu_i * xi^nu_j)^2
            = -(1 / 2N) * xi^mu_i * S_j,      S_j = sum_nu xi^nu_j,

the squared form collapsing because xi is binary.  Energies lie in
[-P/(2N), 0]; full agreement is the most negative (most stable) state.
Configurations sharing an agreement count k form a manifold of constant
relative uncertainty 1 - k/N; an ensemble is complete when every manifold
holds all C(N, k) distinct patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .circuit import BitVector
from .sampler import DeviationSample

#: The completeness check enumerates every manifold, so it stops at 16 bits.
MAX_COMPLETENESS_WIDTH = 16


@dataclass(frozen=True)
class AgreementVector:
    """Per-bit agreement indicators for one configuration of the ensemble."""

    width: int
    xi: tuple[int, ...]
    index: int = 0

    def __post_init__(self) -> None:
        if len(self.xi) != self.width:
            raise ValueError(f"width mismatch: {len(self.xi)} bits vs width {self.width}")
        if any(x not in (0, 1) for x in self.xi):
            raise ValueError("agreement values must be 0 or 1")

    @property
    def agreement_count(self) -> int:
        return sum(self.xi)

    @property
    def relative_uncertainty(self) -> float:
        return 1.0 - self.agreement_count / self.width


def agreement_vector(
    simulated: BitVector, expected: BitVector, index: int = 0
) -> AgreementVector:
    """xi_j = 1 iff simulated and expected agree at position j."""
    if simulated.width != expected.width:
        raise ValueError(f"width mismatch: {simulated.width} vs {expected.width}")
    return agreement_from_deviation(
        simulated.value << 1, expected.value << 1, simulated.width, index
    )


def agreement_from_deviation(re: int, im: int, width: int, index: int = 0) -> AgreementVector:
    """Agreement vector recovered from an encoded (re, im) deviation point."""
    agree = ~(re ^ im)
    xi = tuple((agree >> j) & 1 for j in range(1, width + 1))
    return AgreementVector(width, xi, index)


def ensemble_from_samples(
    samples: Iterable[DeviationSample], width: int
) -> list[AgreementVector]:
    """Agreement vectors of the accepted samples, indexed in sample order."""
    out = []
    for sample in samples:
        if sample.accepted:
            out.append(agreement_from_deviation(sample.re, sample.im, width, len(out)))
    return out


def _check_ensemble(ensemble: Sequence[AgreementVector]) -> int:
    if not ensemble:
        raise ValueError("ensemble is empty")
    width = ensemble[0].width
    if any(a.width != width for a in ensemble):
        raise ValueError("width mismatch inside ensemble")
    return width


def pair_energy(
    ensemble: Sequence[AgreementVector], mu: int, i: int, j: int
) -> float:
    """Pair energy of configuration mu and components (i, j), 1-based i, j."""
    width = _check_ensemble(ensemble)
    if not 0 <= mu < len(ensemble):
        raise ValueError(f"index mu={mu} out of range 0..{len(ensemble) - 1}")
    if not (1 <= i <= width and 1 <= j <= width):
        raise ValueError(f"index (i={i}, j={j}) out of range 1..{width}")
    total = sum(a.xi[j - 1] for a in ensemble)
    return -(ensemble[mu].xi[i - 1] * total) / (2 * width)


@dataclass(frozen=True)
class ManifoldStats:
    """One constant-uncertainty manifold: members and energy spread."""

    agreement_count: int
    members: tuple[int, ...]
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


def spectrum(ensemble: Sequence[AgreementVector]) -> EnergySpectrum:
    """Group an ensemble into manifolds and summarize their pair energies."""
    width = _check_ensemble(ensemble)
    size = len(ensemble)
    xi = np.array([a.xi for a in ensemble], dtype=np.int64)
    col_sums = xi.sum(axis=0)
    counts = xi.sum(axis=1)
    sum_all = int(col_sums.sum())
    max_col = int(col_sums.max())
    min_col = int(col_sums.min())
    denom = 2 * width

    manifolds: dict[int, ManifoldStats] = {}
    for k in sorted(set(int(c) for c in counts)):
        members = tuple(int(m) for m in np.nonzero(counts == k)[0])
        patterns = {tuple(int(b) for b in xi[m]) for m in members}
        if k == 0:
            min_e = max_e = mean_e = 0.0
        else:
            min_e = -max_col / denom
            max_e = 0.0 if k < width else -min_col / denom
            mean_e = -(k * sum_all) / (width * width * denom)
        manifolds[k] = ManifoldStats(
            agreement_count=k,
            members=members,
            degeneracy=len(members),
            distinct_patterns=len(patterns),
            min_energy=min_e,
            max_energy=max_e,
            mean_energy=mean_e,
        )
    return EnergySpectrum(size, width, manifolds)


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
    width: int, ensemble: Sequence[AgreementVector]
) -> CompletenessReport:
    """Compare observed distinct patterns per manifold against C(N, k).

    Exhaustive by construction, so widths above MAX_COMPLETENESS_WIDTH fail.
    """
    if width > MAX_COMPLETENESS_WIDTH:
        raise ValueError(
            f"completeness check is exhaustive; width {width} > {MAX_COMPLETENESS_WIDTH}"
        )
    if ensemble:
        found = _check_ensemble(ensemble)
        if found != width:
            raise ValueError(f"width mismatch: ensemble has {found}, expected {width}")
    seen: dict[int, set[tuple[int, ...]]] = {k: set() for k in range(width + 1)}
    for a in ensemble:
        seen[a.agreement_count].add(a.xi)
    rows = tuple(
        ManifoldCompleteness(k, len(seen[k]), math.comb(width, k))
        for k in range(width + 1)
    )
    return CompletenessReport(width, rows)
