import math
from fractions import Fraction
from itertools import product

import pytest

from ganfault import analysis
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
    fit_iteration_scaling,
    fit_linear,
    full_scale,
    run_sweep,
    table1_deviation,
    table1_report,
    table1_row,
)
from ganfault.circuit import GateKind, identity_circuit, unary_layer, Circuit
from ganfault.sampler import ComparisonMode, DeviationSample, ExperimentConfig


def _samples(points, eps=0.1):
    return [
        DeviationSample(re=r, im=i, iterations=1, accepted=True, epsilon=eps, label="x")
        for i, r in points
    ]


def test_fit_linear_diagonal():
    fit = fit_linear(_samples([(0, 0), (10, 10), (30, 30)]), width=4)
    assert fit.slope == 1.0 and fit.intercept == 0.0
    assert fit.r_squared == 1.0 and fit.rho == 0.0


def test_fit_linear_exact_affine():
    pts = [(x, 2 * x + 6) for x in (0, 5, 11, 14)]
    fit = fit_linear(_samples(pts), width=4)
    assert math.isclose(fit.slope, 2.0, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 6.0, abs_tol=1e-12)
    assert fit.rho < 1e-12


def test_fit_linear_outlier_matches_hand_ols():
    # Diagonal data plus one point displaced by the full scale (30 at N=4);
    # expected rho computed independently via exact rational normal
    # equations.
    ims = [0, 8, 16, 24, 30]
    res = [0, 8, 16, 24, 60]
    n = len(ims)
    sx = Fraction(sum(ims))
    sy = Fraction(sum(res))
    sxx = Fraction(sum(x * x for x in ims))
    sxy = Fraction(sum(x * y for x, y in zip(ims, res)))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ssr = sum((Fraction(y) - (slope * x + intercept)) ** 2 for x, y in zip(ims, res))
    rho_expected = math.sqrt(ssr / n) / 30

    fit = fit_linear(_samples(list(zip(ims, res))), width=4)
    assert math.isclose(fit.slope, float(slope), rel_tol=1e-12)
    assert math.isclose(fit.intercept, float(intercept), rel_tol=1e-12)
    assert math.isclose(fit.rho, rho_expected, rel_tol=1e-12)
    assert fit.rho > 0


def test_fit_linear_degenerate():
    with pytest.raises(ValueError, match="degenerate abscissa"):
        fit_linear(_samples([(5, 1), (5, 2), (5, 3)]), width=4)
    with pytest.raises(ValueError, match="degenerate abscissa"):
        fit_linear(_samples([(5, 1)]), width=4)


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


def test_fit_iteration_scaling_on_identity_search():
    cfg = ExperimentConfig(
        circuit=identity_circuit(8),
        epsilon=0.0,
        trials=2000,
        seed=3,
        mode=ComparisonMode.TARGET_SEARCH,
    )
    sweep = run_sweep(cfg, (0.0, 1 / 8, 2 / 8, 3 / 8))
    fit = fit_iteration_scaling(sweep)
    assert fit.points_used == 4
    assert math.isclose(fit.rate, 1.0, rel_tol=0.1)
    assert math.isclose(fit.prefactor, 1.0, rel_tol=0.35)
    assert fit.r_squared > 0.99
    means = [p.mean_iterations for p in sweep.points]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_fit_iteration_scaling_underdetermined():
    sweep = _synthetic_sweep((0.0,), (0.1,))
    with pytest.raises(ValueError, match="underdetermined"):
        fit_iteration_scaling(sweep)
    censored = _synthetic_sweep((0.0, 0.0, 0.0), (0.1, 0.2, 0.3))
    for p in censored.points:
        p.censored_fraction = 0.5
    with pytest.raises(ValueError, match="underdetermined"):
        fit_iteration_scaling(censored)


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


@pytest.mark.parametrize("grid", [[0.5, 0.25, 0.1], []], ids=["decreasing", "empty"])
def test_run_sweep_checks_grid_before_sampling(grid, monkeypatch):
    def no_sampling(cfg):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(analysis, "run_experiment", no_sampling)
    cfg = ExperimentConfig(circuit=identity_circuit(4), epsilon=0.0, trials=4, seed=1)
    with pytest.raises(ValueError, match="epsilon grid"):
        run_sweep(cfg, grid)


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
