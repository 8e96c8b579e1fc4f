"""Deviation-scatter fits, transition detection, and the composition table.

The linear fit regresses re on im by ordinary least squares and reports a
scale-free nonlinearity statistic rho = RMS residual / (2**(N+1) - 2).
A sweep runs one experiment per uncertainty level; the transition point
eps* is the smallest grid level whose rho exceeds the threshold tau among
levels with enough accepted samples.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Sequence

from .circuit import GateKind, eval_gate
from .sampler import (
    DeviationSample,
    ExperimentConfig,
    max_acceptable_distance,
    run_experiment,
)

DEFAULT_TAU = 0.05
DEFAULT_MIN_SAMPLES = 200
DEFAULT_EPSILON_GRID = tuple(round(0.05 * i, 2) for i in range(11))
UNRELIABLE_CENSORED_FRACTION = 0.10


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    rho: float


def full_scale(width: int) -> int:
    """Largest encodable value for the given width: 2**(N+1) - 2."""
    return (1 << (width + 1)) - 2


def _least_squares(
    xs: Sequence[float], ys: Sequence[float], degenerate: str
) -> tuple[float, float, float, float]:
    """Ordinary least squares y = slope * x + intercept.

    Returns (slope, intercept, r_squared, ss_res); raises ``ValueError``
    with the message ``degenerate`` when all x values are equal.
    """
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError(degenerate)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_squared, ss_res


def fit_linear(samples: Sequence[DeviationSample], width: int) -> LinearFit:
    """Least-squares line re = slope * im + intercept over the samples."""
    n = len(samples)
    if n < 2:
        raise ValueError("degenerate abscissa: need at least two samples")
    slope, intercept, r_squared, ss_res = _least_squares(
        [s.im for s in samples], [s.re for s in samples],
        "degenerate abscissa: all im values equal",
    )
    rho = math.sqrt(ss_res / n) / full_scale(width)
    return LinearFit(slope, intercept, r_squared, rho)


@dataclass
class SweepPoint:
    """Per-epsilon results of a sweep."""

    epsilon: float
    samples: list[DeviationSample]
    accepted_count: int
    fit: LinearFit | None
    mean_iterations: float | None
    median_iterations: float | None
    censored_fraction: float

    @property
    def rho(self) -> float | None:
        return self.fit.rho if self.fit is not None else None


@dataclass
class SweepResult:
    width: int
    points: list[SweepPoint]

    def __post_init__(self) -> None:
        if self.points:
            _check_grid([p.epsilon for p in self.points])


def _check_grid(epsilons: Sequence[float]) -> None:
    """Raise ``ValueError`` unless the grid is non-empty and strictly increasing."""
    if not epsilons:
        raise ValueError("epsilon grid holds no level")
    if any(b <= a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilon grid must be strictly increasing")


def summarize_point(
    epsilon: float, samples: list[DeviationSample], width: int
) -> SweepPoint:
    accepted = [s for s in samples if s.accepted]
    fit = None
    if len(accepted) >= 2:
        try:
            fit = fit_linear(accepted, width)
        except ValueError:
            fit = None
    iters = [s.iterations for s in accepted]
    return SweepPoint(
        epsilon=epsilon,
        samples=samples,
        accepted_count=len(accepted),
        fit=fit,
        mean_iterations=sum(iters) / len(iters) if iters else None,
        median_iterations=statistics.median(iters) if iters else None,
        censored_fraction=1.0 - len(accepted) / len(samples) if samples else 0.0,
    )


def run_sweep(
    cfg: ExperimentConfig,
    epsilons: Sequence[float] = DEFAULT_EPSILON_GRID,
) -> SweepResult:
    """Run one experiment per uncertainty level and summarize each.

    Every level reuses the base seed, so trial t sees the same generator
    stream at each epsilon (paired sampling across the grid).  The grid
    is checked before the first level runs.
    """
    _check_grid(epsilons)
    points = []
    for eps in epsilons:
        samples = run_experiment(replace(cfg, epsilon=eps))
        points.append(summarize_point(eps, samples, cfg.width))
    return SweepResult(cfg.width, points)


@dataclass(frozen=True)
class TransitionEstimate:
    """First grid level whose nonlinearity statistic exceeds tau, if any."""

    epsilon_star: float | None
    tau: float
    min_samples: int


def check_tau(tau: float) -> float:
    """Return ``tau`` if it is a usable threshold: positive and finite."""
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def detect_transition(
    sweep: SweepResult,
    tau: float = DEFAULT_TAU,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> TransitionEstimate:
    """Smallest epsilon with rho > tau among sufficiently sampled points."""
    if not sweep.points:
        raise ValueError("sweep is empty")
    check_tau(tau)
    for point in sweep.points:
        if point.accepted_count < min_samples or point.rho is None:
            continue
        if point.rho > tau:
            return TransitionEstimate(point.epsilon, tau, min_samples)
    return TransitionEstimate(None, tau, min_samples)


def hamming_ball_volume(width: int, radius: int) -> int:
    return sum(math.comb(width, i) for i in range(radius + 1))


def analytic_mean_iterations(width: int, epsilon: float) -> float:
    """Expected draws for TARGET_SEARCH on an unbiased (uniform-output) map.

    A uniform output hits the Hamming ball of the target with probability
    ball/2**N, so the iteration count is geometric with mean 2**N / ball.
    """
    ball = hamming_ball_volume(width, max_acceptable_distance(width, epsilon))
    return (1 << width) / ball


@dataclass(frozen=True)
class IterationScalingFit:
    """log mean iterations regressed on the log analytic ball prediction."""

    rate: float
    prefactor: float
    r_squared: float
    points_used: int


def fit_iteration_scaling(sweep: SweepResult) -> IterationScalingFit:
    """Fit exponential iteration scaling across the sweep's epsilon grid.

    Uses points with accepted samples and censored fraction at most 10%
    (budget exhaustion biases the mean downward); needs at least three.
    """
    xs, ys = [], []
    for p in sweep.points:
        if p.mean_iterations is None or p.mean_iterations <= 0:
            continue
        if p.censored_fraction > UNRELIABLE_CENSORED_FRACTION:
            continue
        xs.append(math.log(analytic_mean_iterations(sweep.width, p.epsilon)))
        ys.append(math.log(p.mean_iterations))
    n = len(xs)
    if n < 3:
        raise ValueError(f"underdetermined: {n} usable sweep points, need 3")
    rate, intercept, r_squared, _ = _least_squares(
        xs, ys, "underdetermined: all predictor values equal"
    )
    return IterationScalingFit(rate, math.exp(intercept), r_squared, n)


# --- Two-stage gate compositions (the reversed-operation table) ----------


@dataclass(frozen=True)
class GateComposition:
    """Apply ``first`` to the raw inputs, then ``second`` to its outputs.

    ``first`` runs on consecutive groups of ``first.arity`` inputs and
    ``second`` on the results: binary-then-unary and unary-then-binary
    take two inputs (A, B); binary-then-binary takes four (A, B, C, D)
    with the first stage evaluated on (A, B) and (C, D).
    """

    first: GateKind
    second: GateKind

    @property
    def arity(self) -> int:
        return self.first.arity * self.second.arity

    @property
    def name(self) -> str:
        return f"{self.first.value.upper()}-{self.second.value.upper()}"

    def interchanged(self) -> "GateComposition":
        """The composition with the two device stages swapped."""
        return GateComposition(self.second, self.first)

    def evaluate(self, bits: Sequence[int]) -> int:
        if len(bits) != self.arity:
            raise ValueError(
                f"gate arity: {self.name} takes {self.arity} inputs, got {len(bits)}"
            )
        n = self.first.arity
        return eval_gate(self.second, *(
            eval_gate(self.first, *bits[i:i + n]) for i in range(0, len(bits), n)
        ))


def table1_deviation(first: GateComposition, second: GateComposition) -> float:
    """Fraction of input assignments on which two compositions disagree.

    Exhausts all 2**arity assignments; symmetric in its arguments and zero
    when both compositions compute the same function.
    """
    if first.arity != second.arity:
        raise ValueError(
            f"gate arity: cannot compare {first.name} ({first.arity} inputs) "
            f"with {second.name} ({second.arity} inputs)"
        )
    mismatches = 0
    total = 1 << first.arity
    for bits in product((0, 1), repeat=first.arity):
        if first.evaluate(bits) != second.evaluate(bits):
            mismatches += 1
    return mismatches / total


@dataclass(frozen=True)
class Table1Row:
    number: int
    composition: GateComposition
    expression: Callable[..., int]
    expression_text: str

    @property
    def name(self) -> str:
        return self.composition.name


def _and_not(a, b):
    return 1 - (a & b)


def _and_or(a, b, c, d):
    return (a & b) | (c & d)


def _and_nand(a, b, c, d):
    return 1 - ((a & b) & (c & d))


def _and_nor(a, b, c, d):
    return 1 - ((a & b) | (c & d))


def _and_xor(a, b, c, d):
    return (a & b) ^ (c & d)


def _not_and(a, b):
    return (1 - a) & (1 - b)


def _or_and(a, b, c, d):
    return (a | b) & (c | d)


def _nand_and(a, b, c, d):
    return (1 - (a & b)) & (1 - (c & d))


def _nor_and(a, b, c, d):
    return (1 - (a | b)) & (1 - (c | d))


def _xor_and(a, b, c, d):
    return (a ^ b) & (c ^ d)


TABLE1_ROWS: tuple[Table1Row, ...] = (
    Table1Row(1, GateComposition(GateKind.AND, GateKind.NOT), _and_not, "NOT(A*B)"),
    Table1Row(2, GateComposition(GateKind.AND, GateKind.OR), _and_or, "A*B + C*D"),
    Table1Row(3, GateComposition(GateKind.AND, GateKind.NAND), _and_nand, "NOT((A*B)*(C*D))"),
    Table1Row(4, GateComposition(GateKind.AND, GateKind.NOR), _and_nor, "NOT(A*B + C*D)"),
    Table1Row(5, GateComposition(GateKind.AND, GateKind.XOR), _and_xor, "A*B XOR C*D"),
    Table1Row(6, GateComposition(GateKind.NOT, GateKind.AND), _not_and, "NOT(A)*NOT(B)"),
    Table1Row(7, GateComposition(GateKind.OR, GateKind.AND), _or_and, "(A+B)*(C+D)"),
    Table1Row(8, GateComposition(GateKind.NAND, GateKind.AND), _nand_and, "NOT(A*B)*NOT(C*D)"),
    Table1Row(9, GateComposition(GateKind.NOR, GateKind.AND), _nor_and, "NOT(A+B)*NOT(C+D)"),
    Table1Row(10, GateComposition(GateKind.XOR, GateKind.AND), _xor_and, "(A XOR B)*(C XOR D)"),
)

#: Interchange pairs (row, reversed row) with the claimed deviation bound.
TABLE1_PAIRS: tuple[tuple[int, int, float], ...] = (
    (1, 6, 0.50),
    (2, 7, 0.70),
    (3, 8, 0.70),
    (4, 9, 0.50),
    (5, 10, 0.70),
)


@dataclass(frozen=True)
class Table1Entry:
    pair: str
    rows: tuple[int, int]
    computed: float
    claimed: float

    @property
    def reproduced(self) -> bool:
        return abs(self.computed - self.claimed) < 1e-9


def table1_row(number: int) -> Table1Row:
    return TABLE1_ROWS[number - 1]


def table1_report() -> list[Table1Entry]:
    """Exhaustive interchange deviations next to the claimed bounds."""
    entries = []
    for a, b, claimed in TABLE1_PAIRS:
        row_a, row_b = table1_row(a), table1_row(b)
        computed = table1_deviation(row_a.composition, row_b.composition)
        entries.append(
            Table1Entry(
                pair=f"{row_a.name} vs {row_b.name}",
                rows=(a, b),
                computed=computed,
                claimed=claimed,
            )
        )
    return entries
