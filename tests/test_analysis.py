import math
import statistics
from fractions import Fraction
from itertools import product

import pytest
import scipy.stats

from ganfault import analysis, exact, sampler
from ganfault.analysis import (
    DEFAULT_EPSILON_GRID,
    GateComposition,
    LinearFit,
    SweepPoint,
    SweepResult,
    TABLE1_PAIRS,
    TABLE1_ROWS,
    analytic_mean_iterations,
    detect_transition,
    fit_linear,
    full_scale,
    run_sweep,
    summarize_point,
    table1_deviation,
    table1_report,
    table1_row,
)
from ganfault.circuit import GateKind, identity_circuit, unary_layer, Circuit
from ganfault.faults import InputPerturbation, Missing
from ganfault.sampler import (
    ComparisonMode,
    DeviationSample,
    ExperimentConfig,
    Samples,
    max_acceptable_distance,
)


def _samples(points, eps=0.1):
    return Samples.from_rows(
        DeviationSample(re=r, im=i, iterations=1, accepted=True, epsilon=eps, label="x")
        for i, r in points
    )


def test_fit_linear_diagonal():
    fit = fit_linear(_samples([(0, 0), (10, 10), (30, 30)]), width=4)
    assert fit.slope == 1.0 and fit.intercept == 0.0
    assert fit.r_squared == 1.0 and fit.rho == 0.0


def test_fit_linear_exact_affine():
    pts = [(x, 2 * x + 6) for x in (0, 4, 10, 14)]
    fit = fit_linear(_samples(pts), width=4)
    assert math.isclose(fit.slope, 2.0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 6.0, abs_tol=1e-12)
    assert fit.rho < 1e-12


def _fraction_fit(points, width):
    """The fit's cells, correctly rounded, from exact rational normal equations
    and explicit residuals."""
    n = len(points)
    ims, res = ([Fraction(v) for v in column] for column in zip(*points))
    mean_x, mean_y = sum(ims) / n, sum(res) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(ims, res))
             / sum((x - mean_x) ** 2 for x in ims))
    intercept = mean_y - slope * mean_x
    ssr = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(ims, res))
    sst = sum((y - mean_y) ** 2 for y in res)
    r_squared = 1.0 if sst == 0 else float(1 - ssr / sst)
    return LinearFit(float(slope), float(intercept), r_squared,
                     math.sqrt(ssr / n) / full_scale(width))


def test_fit_linear_outlier_matches_hand_ols():
    # Diagonal data plus one point displaced by the full scale (30 at N=4);
    # every cell equals the exact rational fit, correctly rounded.
    points = list(zip([0, 8, 16, 24, 30], [0, 8, 16, 24, 60]))
    fit = fit_linear(_samples(points), width=4)
    assert fit == _fraction_fit(points, width=4)
    assert 0 < fit.r_squared < 1 and fit.rho > 0


_TOP = (1 << 65) - 2  # the largest re or im, at width 64


@pytest.mark.parametrize("width, points", [
    (1, [(0, 0), (2, 0), (2, 2), (0, 2), (2, 2), (0, 0), (2, 2)]),
    (64, [(_TOP, _TOP), (_TOP - 2, _TOP - 4), (_TOP - 6, _TOP), (_TOP - 4, _TOP - 2),
          (_TOP - 2, _TOP - 2), (_TOP - 8, 0)]),
    (64, [(0, _TOP), (_TOP, 0), (_TOP - 2, _TOP), (2, 2)]),
    # Dividing the mean squared residual in two steps rounds rho differently.
    (3, [(8, 0), (6, 6), (2, 10), (12, 8), (6, 2)]),
])
def test_fit_linear_equals_the_fraction_reference(width, points):
    assert fit_linear(_samples(points), width) == _fraction_fit(points, width)


def test_fit_linear_constant_y_is_a_perfect_flat_fit():
    fit = fit_linear(_samples([(0, 6), (4, 6), (10, 6), (_TOP, 6)]), width=64)
    assert fit == LinearFit(0.0, 6.0, 1.0, 0.0)


def test_fit_linear_degenerate():
    with pytest.raises(ValueError, match="degenerate abscissa"):
        fit_linear(_samples([(6, 2), (6, 4), (6, 6)]), width=4)
    with pytest.raises(ValueError, match="degenerate abscissa"):
        fit_linear(_samples([(_TOP, 2), (_TOP, _TOP)]), width=64)
    with pytest.raises(ValueError, match="degenerate abscissa"):
        fit_linear(_samples([(6, 2)]), width=4)


@pytest.mark.parametrize("iterations", [
    [], [7], [5, 1], [3, 9, 1], [4, 1, 8, 2], [1 << 62, (1 << 62) + 1], [2, 2, 3, 3, 3, 9],
])
def test_median_iterations_is_statistics_median_of_the_accepted(iterations):
    # A rejected row's count must not enter the median; an odd count gives
    # the middle int and an even one the float mean of the middle two.
    rows = [(k, True) for k in iterations] + [((1 << 63) - 1, False)]
    samples = Samples.from_rows(
        DeviationSample(re=0, im=0, iterations=k, accepted=a, epsilon=0.1, label="x")
        for k, a in rows
    )
    median = summarize_point(0.1, samples, width=4).median_iterations
    expected = statistics.median(iterations) if iterations else None
    assert median == expected and type(median) is type(expected)


def _synthetic_sweep(rhos, grid, accepted=1000):
    points = [
        SweepPoint(
            epsilon=e,
            samples=[],
            accepted_count=accepted,
            fit=LinearFit(1.0, 0.0, 1.0, rho),
            mean_iterations=1.0,
            median_iterations=1.0,
            censored_fraction=0.0,
        )
        for e, rho in zip(grid, rhos)
    ]
    return SweepResult(width=8, points=points)


def test_detect_transition_first_exceedance():
    sweep = _synthetic_sweep((0.00, 0.01, 0.08, 0.20), (0.1, 0.2, 0.3, 0.4))
    est = detect_transition(sweep, tau=0.05)
    assert est.epsilon_star == 0.3
    assert est.tau == 0.05


def test_detect_transition_none_when_flat():
    sweep = _synthetic_sweep((0.0, 0.0, 0.0), (0.1, 0.2, 0.3))
    assert detect_transition(sweep, tau=0.05).epsilon_star is None


def test_detect_transition_monotone_in_tau():
    sweep = _synthetic_sweep((0.00, 0.01, 0.08, 0.20), (0.1, 0.2, 0.3, 0.4))
    stars = [
        detect_transition(sweep, tau=t).epsilon_star
        for t in (0.005, 0.05, 0.1)
    ]
    assert stars == [0.2, 0.3, 0.4]
    assert detect_transition(sweep, tau=0.25).epsilon_star is None


def test_detect_transition_respects_min_samples():
    sweep = _synthetic_sweep((0.2, 0.2), (0.1, 0.2), accepted=50)
    assert detect_transition(sweep, tau=0.05, min_samples=200).epsilon_star is None
    assert detect_transition(sweep, tau=0.05, min_samples=10).epsilon_star == 0.1


def test_default_grid():
    assert DEFAULT_EPSILON_GRID[0] == 0.0
    assert DEFAULT_EPSILON_GRID[-1] == 0.5
    assert len(DEFAULT_EPSILON_GRID) == 11


def test_analytic_mean_iterations():
    assert analytic_mean_iterations(8, 0.0) == 256.0
    assert math.isclose(analytic_mean_iterations(8, 1 / 8), 256 / 9)
    assert math.isclose(analytic_mean_iterations(8, 2 / 8), 256 / 37)
    assert analytic_mean_iterations(8, 1.0) == 1.0


def test_analytic_mean_iterations_is_two_to_the_n_over_the_ball():
    # The uniform-map formula 2**N / ball: bit for bit at N = 8 and 16, where
    # every per-pair law and partial sum of the model is an exact binary fraction.
    for width in range(1, 65):
        for radius in range(width + 1):
            ball = sum(math.comb(width, i) for i in range(radius + 1))
            got = analytic_mean_iterations(width, radius / width)
            if width in (8, 16):
                assert got == (1 << width) / ball, (width, radius)
            assert math.isclose(got, (1 << width) / ball, rel_tol=1e-12), (width, radius)


def test_identity_search_sweep_means_match_the_exact_iterations():
    # Every trial accepts within its budget, so the mean over accepted trials
    # is the mean of min(G, B), which lies within the CLT bound of the exact
    # value, tail 1e-6 a side (tests/test_exact.py states the bound).
    trials, grid = 2000, (0.0, 1 / 8, 2 / 8, 3 / 8)
    cfg = ExperimentConfig(
        circuit=identity_circuit(8),
        epsilon=0.0,
        trials=trials,
        seed=3,
        mode=ComparisonMode.TARGET_SEARCH,
    )
    law = exact.distance_law(cfg.circuit, 0)
    chances = [exact.acceptance(law, max_acceptable_distance(8, eps)) for eps in grid]
    want = [exact.expected_iterations(p, cfg.max_iterations) for p in chances]
    assert all(b < a for a, b in zip(want, want[1:]))
    z = scipy.stats.norm.isf(1e-6)
    for point, p, mean in zip(run_sweep(cfg, grid).points, chances, want):
        assert point.accepted_count == trials
        bound = z * math.sqrt(1 - p) / p / math.sqrt(trials)
        assert abs(point.mean_iterations - mean) <= bound, (point.epsilon, mean)


def test_fault_free_sweep_is_diagonal_everywhere():
    cfg = ExperimentConfig(
        circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
        epsilon=0.0,
        trials=300,
        seed=8,
    )
    sweep = run_sweep(cfg, (0.0, 0.1, 0.2))
    for p in sweep.points:
        assert p.accepted_count == 300
        assert all(s.re == s.im for s in p.samples)
        assert p.fit is not None and p.fit.rho == 0.0
    assert detect_transition(sweep, min_samples=100).epsilon_star is None


@pytest.mark.parametrize(
    "grid, message",
    [([0.5, 0.25, 0.1], "epsilon grid"), ([], "epsilon grid"),
     ((0.0, 1.5), "epsilon out of range")],
    ids=["decreasing", "empty", "out-of-range"],
)
def test_run_sweep_checks_grid_before_sampling(grid, message, monkeypatch):
    def no_sampling(seed, trial):
        raise AssertionError("trial_rng called")

    monkeypatch.setattr(sampler, "trial_rng", no_sampling)
    cfg = ExperimentConfig(circuit=identity_circuit(4), epsilon=0.0, trials=4, seed=1)
    with pytest.raises(ValueError, match=message):
        run_sweep(cfg, grid)


def test_run_sweep_walks_each_trial_stream_once(monkeypatch):
    # Every level reuses trial t's stream, so one walk serves them all: a
    # sweep builds a trial's generator at most once, not once per level.  A
    # trial whose first candidate lies within the lowest level's radius is
    # settled from its seed words and builds none, unless a candidate draws
    # more flip uniforms than that pass computes (three flip faults at width
    # 16).  A sample at a larger radius is the first candidate within it, so
    # per trial the iteration count never grows with epsilon.
    search = ExperimentConfig(
        circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
        epsilon=0.0,
        trials=300,
        seed=3,
        faults=(Missing(1, 1),),
        mode=ComparisonMode.TARGET_SEARCH,
        max_iterations=200,
    )
    flips = ExperimentConfig(
        circuit=Circuit(16, [unary_layer(GateKind.NOT, 16)]),
        epsilon=0.0,
        trials=300,
        seed=3,
        faults=(InputPerturbation(0.01),) * 3,
        max_iterations=200,
    )
    calls = []
    trial_rng = sampler.trial_rng

    def counting(seed, trial):
        calls.append(trial)
        return trial_rng(seed, trial)

    monkeypatch.setattr(sampler, "trial_rng", counting)
    for cfg, grid in ((search, DEFAULT_EPSILON_GRID), (flips, (0.25, 0.5))):
        calls.clear()
        sweep = run_sweep(cfg, grid)
        assert [p.epsilon for p in sweep.points] == list(grid)
        first = [(s.iterations, s.accepted) == (1, True) for s in sweep.points[0].samples]
        if cfg is flips:
            assert all(first) and calls == list(range(cfg.trials))
        else:
            assert any(first) and not all(first)
            assert calls == [t for t, hit in enumerate(first) if not hit]
        for trial in zip(*(p.samples for p in sweep.points)):
            iterations = [s.iterations for s in trial]
            assert all(b <= a for a, b in zip(iterations, iterations[1:]))


def test_run_sweep_summarizes_each_accept_radius_once(monkeypatch):
    # Levels that share an accept radius share their columns, so the 101
    # levels of 0:1:0.01 at width 16 (17 radii) take 17 summaries, and each
    # point still equals its own level's summary.
    cfg = ExperimentConfig(
        circuit=Circuit(16, [unary_layer(GateKind.NOT, 16)]),
        epsilon=0.0,
        trials=200,
        seed=5,
        faults=(InputPerturbation(0.05),),
        max_iterations=100,
    )
    grid = [round(0.01 * i, 2) for i in range(101)]
    calls = []

    def counting(epsilon, samples, width):
        calls.append(epsilon)
        return summarize_point(epsilon, samples, width)

    monkeypatch.setattr(analysis, "summarize_point", counting)
    sweep = run_sweep(cfg, grid)
    assert len(calls) == len({max_acceptable_distance(16, eps) for eps in grid}) == 17
    levels = sampler.run_levels(cfg, grid)
    assert len(sweep.points) == len(levels) == 101
    for eps, samples, point in zip(grid, levels, sweep.points):
        assert point == summarize_point(eps, samples, 16), eps
        assert point.samples.epsilon == eps and point.fit is not None


# --- reversed-composition table ------------------------------------------


def test_compositions_match_expressions_exhaustively():
    for row in TABLE1_ROWS:
        comp = row.composition
        for bits in product((0, 1), repeat=comp.arity):
            assert comp.evaluate(bits) == row.expression(*bits), row.name


def test_nand_row_de_morgan_equivalence():
    comp = table1_row(3).composition
    for a, b, c, d in product((0, 1), repeat=4):
        lhs = comp.evaluate((a, b, c, d))
        rhs = (1 - (a & b)) | (1 - (c & d))
        assert lhs == rhs


def test_interchange_produces_mirror_rows():
    for a, b, _ in TABLE1_PAIRS:
        first = table1_row(a).composition
        mirror = table1_row(b)
        assert first.interchanged() == mirror.composition
        # The interchanged device order reproduces the mirrored Boolean
        # expression on every assignment.
        for bits in product((0, 1), repeat=first.arity):
            assert first.interchanged().evaluate(bits) == mirror.expression(*bits)


def test_table1_deviation_values():
    dev = lambda a, b: table1_deviation(
        table1_row(a).composition, table1_row(b).composition
    )
    assert dev(1, 6) == 0.50
    assert dev(2, 7) == 0.375
    assert dev(3, 8) == 0.375
    assert dev(4, 9) == 0.50
    assert dev(5, 10) == 0.625


def test_table1_deviation_symmetric_and_reflexive():
    for a, b, _ in TABLE1_PAIRS:
        ca, cb = table1_row(a).composition, table1_row(b).composition
        assert table1_deviation(ca, cb) == table1_deviation(cb, ca)
        assert table1_deviation(ca, ca) == 0.0
    with pytest.raises(ValueError, match="arity"):
        table1_deviation(table1_row(1).composition, table1_row(2).composition)


def test_table1_report_flags_unreproduced_claims():
    report = table1_report()
    by_rows = {e.rows: e for e in report}
    assert by_rows[(1, 6)].reproduced
    assert by_rows[(4, 9)].reproduced
    for rows in ((2, 7), (3, 8), (5, 10)):
        assert not by_rows[rows].reproduced
        assert by_rows[rows].claimed == 0.70


def test_full_scale():
    assert full_scale(4) == 30
    assert full_scale(16) == (1 << 17) - 2
