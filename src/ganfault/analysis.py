"""Deviation-scatter fits, transition detection, and the composition table.

The linear fit regresses re on im by ordinary least squares and reports a
scale-free nonlinearity statistic rho = RMS residual / (2**(N+1) - 2).  It
is computed from exact integer moments, so it prints the same digits on
every Python version.
A sweep samples every uncertainty level in one walk of each trial's
stream (:func:`ganfault.sampler.run_levels`); the transition point
eps* is the smallest grid level whose rho exceeds the threshold tau among
levels with enough accepted samples.  Expected iteration counts come from
the exact model of one draw (:mod:`ganfault.exact`); its identity-map case
is :func:`analytic_mean_iterations`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Sequence

from . import exact
from .circuit import GateKind, eval_gate, identity_circuit
from .sampler import (
    ExperimentConfig,
    Samples,
    max_acceptable_distance,
    run_experiment,  # unused here; perfbench's tracer patches this name
    run_levels,
)

DEFAULT_TAU = 0.05
DEFAULT_MIN_SAMPLES = 200
DEFAULT_EPSILON_GRID = tuple(round(0.05 * i, 2) for i in range(11))


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    rho: float


def full_scale(width: int) -> int:
    """Largest encodable value for the given width: 2**(N+1) - 2."""
    return (1 << (width + 1)) - 2


def fit_linear(samples: Samples, width: int) -> LinearFit:
    """Least-squares line re = slope * im + intercept over the samples.

    The moments n, Σx, Σy, Σx², Σxy and Σy² of x = im and y = re are exact
    Python ints, and so are N = nΣxy − ΣxΣy, D = nΣx² − (Σx)² and
    T = nΣy² − (Σy)².  slope = N/D, intercept = (Σy·D − N·Σx)/(n·D) and
    r² = N²/(D·T) (1.0 when every y is equal) are each one correctly rounded
    int division; rho is the square root of the mean squared residual
    (T·D − N²)/(n²·D), also one such division, over the full scale.  No
    float is summed and no libm ``pow`` is called, so every cell reads the
    same on every Python version and platform.
    """
    n = len(samples)
    if n < 2:
        raise ValueError("degenerate abscissa: need at least two samples")
    xs, ys = samples.im, samples.re
    sx, sy = sum(xs), sum(ys)
    d = n * sum(map(operator.mul, xs, xs)) - sx * sx
    if d == 0:
        raise ValueError("degenerate abscissa: all im values equal")
    num = n * sum(map(operator.mul, xs, ys)) - sx * sy
    t = n * sum(map(operator.mul, ys, ys)) - sy * sy
    return LinearFit(
        slope=num / d,
        intercept=(sy * d - num * sx) / (n * d),
        r_squared=1.0 if t == 0 else num * num / (d * t),
        rho=math.sqrt((t * d - num * num) / (n * n * d)) / full_scale(width),
    )


@dataclass
class SweepPoint:
    """Per-epsilon results of a sweep."""

    epsilon: float
    samples: Samples
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


def summarize_point(epsilon: float, samples: Samples, width: int) -> SweepPoint:
    accepted = samples[samples.accepted]
    fit = None
    if len(accepted) >= 2:
        try:
            fit = fit_linear(accepted, width)
        except ValueError:
            fit = None
    iters = sorted(accepted.iterations.tolist())
    mid = len(iters) // 2
    return SweepPoint(
        epsilon=epsilon,
        samples=samples,
        accepted_count=len(accepted),
        fit=fit,
        mean_iterations=sum(iters) / len(iters) if iters else None,
        median_iterations=(None if not iters else iters[mid] if len(iters) % 2
                           else (iters[mid - 1] + iters[mid]) / 2),
        censored_fraction=1.0 - len(accepted) / len(samples) if samples else 0.0,
    )


def run_sweep(
    cfg: ExperimentConfig,
    epsilons: Sequence[float] = DEFAULT_EPSILON_GRID,
) -> SweepResult:
    """Sample every uncertainty level and summarize each.

    Every level reuses the base seed, so trial t sees the same generator
    stream at each epsilon (paired sampling across the grid), and
    :func:`run_levels` walks that stream once for every level's accept
    radius: the sweep costs about as much as its lowest level.  Levels
    that share a radius share their columns, and are adjacent in the
    increasing grid, so each radius is summarized once and its further
    levels take that summary with their own epsilon and samples.  The grid
    and every level's configuration are checked before the first draw.
    """
    _check_grid(epsilons)
    points, last = [], None
    for eps, samples in zip(epsilons, run_levels(cfg, epsilons)):
        radius = max_acceptable_distance(cfg.width, eps)
        if radius == last:
            points.append(replace(points[-1], epsilon=eps, samples=samples))
        else:
            points.append(summarize_point(eps, samples, cfg.width))
        last = radius
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


def analytic_mean_iterations(width: int, epsilon: float) -> float:
    """Expected TARGET_SEARCH draws on the identity map, without a budget: 2**N / ball."""
    law = exact.distance_law(identity_circuit(width), 0)
    p = exact.acceptance(law, max_acceptable_distance(width, epsilon))
    return float(exact.expected_iterations(p, math.inf))


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
