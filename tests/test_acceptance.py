"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The module takes a few seconds; the parser fuzz (criterion 8) and
the transition-reproduction sweeps (criterion 5) take most of it.
"""

import math
import random
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
import scipy.stats

from ganfault.analysis import (
    TABLE1_PAIRS,
    TABLE1_ROWS,
    analytic_mean_iterations,
    detect_transition,
    run_sweep,
    table1_deviation,
    table1_report,
    table1_row,
)
from ganfault.circuit import (
    BitVector,
    Circuit,
    GateKind,
    identity_circuit,
    pair_layer,
    unary_layer,
)
from ganfault import exact
from ganfault.cli import main as cli_main
from ganfault.faults import InputPerturbation, ReversedPolarity, Swap
from ganfault.hopfield import pair_energy, spectrum
from ganfault.netlist import NetlistError, parse_netlist, serialize_netlist
from ganfault.sampler import (
    ComparisonMode,
    ExperimentConfig,
    max_acceptable_distance,
    run_experiment,
)

from conftest import random_circuit


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {title}")
        raise
    print(f"criterion {number}: PASS - {title}")


def test_criterion_1_composition_expression_equivalence():
    with criterion(1, "gate networks equal their Boolean expressions exactly"):
        for row in TABLE1_ROWS:
            comp = row.composition
            for bits in product((0, 1), repeat=comp.arity):
                assert comp.evaluate(bits) == row.expression(*bits), (
                    f"row {row.number} ({row.name}) differs at {bits}"
                )


def test_criterion_2_table1_deviation_oracle():
    with criterion(2, "interchange deviations match the exhaustive oracle"):
        values = {
            (1, 6): 0.50,
            (2, 7): 0.375,
            (3, 8): 0.375,
            (4, 9): 0.50,
            (5, 10): 0.625,
        }
        for (a, b), expected in values.items():
            got = table1_deviation(table1_row(a).composition, table1_row(b).composition)
            assert got == expected, f"rows ({a},{b}): {got} != {expected}"
        report = {e.rows: e for e in table1_report()}
        # The fifty-per-cent claims are reproduced exactly.
        assert report[(1, 6)].reproduced and report[(4, 9)].reproduced
        # The seventy-per-cent claims are not reproduced by the Hamming
        # metric and must be flagged as such.
        for rows in ((2, 7), (3, 8), (5, 10)):
            assert report[rows].claimed == 0.70
            assert not report[rows].reproduced


def test_criterion_3_iteration_scaling_oracle():
    with criterion(3, "mean iterations within 5% of the ball oracle, and of the exact model"):
        grid = (0.0, 1 / 8, 2 / 8)
        cfg = ExperimentConfig(
            circuit=identity_circuit(8),
            epsilon=0.0,
            trials=10_000,
            seed=101,
            mode=ComparisonMode.TARGET_SEARCH,
        )
        means = []
        for eps in grid:
            samples = run_experiment(
                ExperimentConfig(
                    circuit=cfg.circuit, epsilon=eps, trials=cfg.trials,
                    seed=cfg.seed, mode=cfg.mode,
                )
            )
            assert all(s.accepted for s in samples)
            means.append(sum(s.iterations for s in samples) / len(samples))
        expected = [analytic_mean_iterations(8, eps) for eps in grid]
        assert expected[0] == 256.0
        for got, want in zip(means, expected):
            assert abs(got - want) / want <= 0.05, f"{got} vs {want}"
        logs = [math.log(m) for m in means]
        assert logs[0] > logs[1] > logs[2]
        # The exact E[min(G, B)] of the budgeted trials: min(G, B) is
        # 1-Lipschitz in the geometric G, so its sd is at most sqrt(1 - p) / p,
        # and each mean lies within the CLT bound, tail 1e-6 a side.
        law = exact.distance_law(cfg.circuit, 0)
        for eps, got in zip(grid, means):
            p = exact.acceptance(law, max_acceptable_distance(8, eps))
            want = exact.expected_iterations(p, cfg.max_iterations)
            bound = scipy.stats.norm.isf(1e-6) * math.sqrt(1 - p) / p / math.sqrt(cfg.trials)
            assert abs(got - want) <= bound, f"eps {eps}: {got} vs {want} +- {bound}"


def test_criterion_4_diagonal_invariant():
    with criterion(4, "fault-free comparisons sit on the diagonal at every eps"):
        cfg = ExperimentConfig(
            circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
            epsilon=0.0,
            trials=500,
            seed=202,
            mode=ComparisonMode.FAULT_COMPARE,
        )
        sweep = run_sweep(cfg)
        for point in sweep.points:
            assert point.accepted_count == 500
            assert all(s.re == s.im for s in point.samples), point.epsilon
            assert point.fit is None or point.fit.rho == 0.0
        assert detect_transition(sweep).epsilon_star is None


@pytest.fixture(scope="module")
def transition_sweeps():
    sweeps = {}

    not16 = Circuit(16, [unary_layer(GateKind.NOT, 16)])
    sweeps["not16"] = run_sweep(
        ExperimentConfig(
            circuit=not16,
            epsilon=0.0,
            trials=2500,
            seed=303,
            faults=(Swap(1, 1, GateKind.BUFFER),),
            mode=ComparisonMode.TARGET_SEARCH,
            max_iterations=500_000,
        )
    )

    def and_not(width: int, budget: int, seed: int):
        circuit = Circuit(
            width, [pair_layer(GateKind.AND, width), unary_layer(GateKind.NOT, width)]
        )
        return run_sweep(
            ExperimentConfig(
                circuit=circuit,
                epsilon=0.0,
                trials=2500,
                seed=seed,
                faults=(ReversedPolarity(1, 1),),
                mode=ComparisonMode.TARGET_SEARCH,
                max_iterations=budget,
            )
        )

    sweeps["andnot8"] = and_not(8, 10_000, 404)
    sweeps["andnot16"] = and_not(16, 50_000, 505)
    return sweeps


def test_criterion_5_transition_bands(transition_sweeps):
    with criterion(5, "transition levels land inside the acceptance bands"):
        not16 = transition_sweeps["not16"]
        # The interchanged-NOT circuit stays bijective, so acceptance is
        # never reachability-limited and every level collects the full
        # 2500-trial sample volume.
        for point in not16.points:
            assert point.accepted_count >= 2000, (point.epsilon, point.accepted_count)
        star = detect_transition(not16, tau=0.05).epsilon_star
        assert star is not None and 0.05 <= star <= 0.25, star
        print(f"  not16: epsilon* = {star}")

        for key in ("andnot8", "andnot16"):
            sweep = transition_sweeps[key]
            assert sweep.points[-1].accepted_count >= 2000, key
            star = detect_transition(sweep, tau=0.05).epsilon_star
            assert star is not None and 0.10 <= star <= 0.35, (key, star)
            print(f"  {key}: epsilon* = {star}")


def test_criterion_6_hopfield_properties():
    with criterion(6, "pair energies bounded, binary-equal, and complete at N=4"):
        rng = random.Random(60)
        # Eq.-style quadratic form vs the simplified product, recomputed
        # here with numpy as the independent route, on 1000 ensembles.
        for _ in range(1000):
            n = rng.randint(1, 6)
            p = rng.randint(1, 8)
            xi = np.array(
                [[rng.randint(0, 1) for _ in range(n)] for _ in range(p)],
                dtype=np.int64,
            )
            quadratic = ((xi[:, :, None, None] * xi[None, None, :, :]) ** 2).sum(axis=2)
            simplified = xi[:, :, None] * xi.sum(axis=0)[None, None, :]
            assert (quadratic == simplified).all()
            floor = -p / (2 * n)
            ens = [BitVector.from_bits(int(b) for b in row) for row in xi]
            mu = rng.randrange(p)
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            e = pair_energy(ens, mu, i, j)
            assert floor <= e <= 0.0
            assert e == -quadratic[mu, i - 1, j - 1] / (2 * n)

        # Exhaustive width-4 ensemble: manifold degeneracies are the
        # binomial coefficients.
        rows = [[(v >> b) & 1 for b in range(4)] for v in range(16)]
        spec = spectrum([BitVector.from_bits(r) for r in rows])
        assert [spec.manifolds[k].degeneracy for k in range(5)] == [1, 4, 6, 4, 1]
        assert [spec.manifolds[k].distinct_patterns for k in range(5)] == [1, 4, 6, 4, 1]


def test_criterion_7_byte_determinism(tmp_path):
    with criterion(7, "byte-identical outputs across reruns and worker counts"):
        ckt = tmp_path / "c.ckt"
        ckt.write_text(
            serialize_netlist(
                Circuit(8, [pair_layer(GateKind.AND, 8), unary_layer(GateKind.NOT, 8)])
            )
        )
        sim_outputs = []
        for i, w in enumerate(("1", "4", "8")):
            out = tmp_path / f"sim{i}"
            code = cli_main([
                "simulate", "--ckt", str(ckt), "--fault", "reverse:L1.S1,flip:0.1",
                "--eps", "0.375", "--trials", "600", "--seed", "77",
                "--max-iterations", "2000", "--workers", w, "--out", str(out),
            ])
            assert code == 0
            sim_outputs.append(out)
        for name in ("samples.csv", "scatter.svg"):
            blobs = {(o / name).read_bytes() for o in sim_outputs}
            assert len(blobs) == 1, name

        ds_outputs = []
        for i, w in enumerate(("1", "8")):
            out = tmp_path / f"ds{i}"
            code = cli_main([
                "dataset", "--ckt", str(ckt), "--eps", "0.375", "--trials", "400",
                "--seed", "78", "--max-iterations", "2000", "--workers", w,
                "--run", "clean=", "--run", "reverse=reverse:L1.S1",
                "--out", str(out),
            ])
            assert code == 0
            ds_outputs.append(out)
        for name in ("clean.pgm", "reverse.pgm", "manifest.json"):
            blobs = {(o / name).read_bytes() for o in ds_outputs}
            assert len(blobs) == 1, name


def test_criterion_8_parser_robustness():
    with criterion(8, "10^4 round-trips and 10^5 fuzz inputs without a crash"):
        rng = random.Random(808)
        for _ in range(10_000):
            c = random_circuit(rng)
            text = serialize_netlist(c)
            assert parse_netlist(text) == c
            assert serialize_netlist(parse_netlist(text)) == text

        tokens = [
            "width", "layer", "not", "buffer", "and", "nand", "xor", "xnor",
            "or", "nor", "0", "1", "2", "3", "4", "16", "64", "65", "-2",
            "#", "x", "é",
        ]
        seps = [" ", "\n", "\t", "  "]
        for _ in range(100_000):
            kind = rng.random()
            if kind < 0.4:
                raw = bytes(rng.randrange(256) for _ in range(rng.randrange(60)))
                text = raw.decode("latin-1")
            elif kind < 0.8:
                text = "".join(
                    rng.choice(tokens) + rng.choice(seps)
                    for _ in range(rng.randrange(24))
                )
            else:
                base = serialize_netlist(random_circuit(rng))
                cut = rng.randrange(len(base) + 1)
                text = base[:cut] + rng.choice(["", "garbage", "\x00", "and 1 2"])
            try:
                result = parse_netlist(text)
                assert isinstance(result, Circuit)
            except NetlistError as exc:
                assert isinstance(exc.line, int) and exc.line >= 1


def test_criterion_9_convergence_ordering():
    with criterion(9, "all-NOT converges before AND-pairs at eps=0.1, N=8"):
        budget = 20_000
        trials = 400
        targets = np.arange(256, dtype=np.uint64)

        def cost_per_accepted(circuit: Circuit) -> tuple[float, int]:
            samples = run_experiment(
                ExperimentConfig(
                    circuit=circuit,
                    epsilon=0.1,
                    trials=trials,
                    seed=909,
                    mode=ComparisonMode.TARGET_SEARCH,
                    max_iterations=budget,
                )
            )
            accepted = sum(1 for s in samples if s.accepted)
            assert accepted > 0
            total = sum(s.iterations for s in samples)
            return total / accepted, accepted

        def exact_cost(circuit: Circuit) -> tuple[float, float, int]:
            # Every target, the unreachable ones (p = 0) at their whole budget.
            p = exact.acceptance(exact.distance_law(circuit, targets),
                                 max_acceptable_distance(8, 0.1))
            accept = (1 - exact.censored_chance(p, budget)).mean()
            cost = exact.expected_iterations(p, budget).mean() / accept
            return cost, accept, int((p == 0).sum())

        circuits = {
            "NOT": Circuit(8, [unary_layer(GateKind.NOT, 8)]),
            "AND": Circuit(8, [pair_layer(GateKind.AND, 8)]),
        }
        sampled = {name: cost_per_accepted(c) for name, c in circuits.items()}
        model = {name: exact_cost(c) for name, c in circuits.items()}
        assert sampled["NOT"][0] < sampled["AND"][0]
        assert model["NOT"][0] < model["AND"][0]
        assert (model["NOT"][2], model["AND"][2]) == (0, 240)
        for name, (_, accepted) in sampled.items():
            chance = model[name][1]
            low = scipy.stats.binom.ppf(1e-6, trials, chance)
            high = scipy.stats.binom.isf(1e-6, trials, chance)
            assert low <= accepted <= high, (name, accepted, low, high)
        # The speed factor is recorded alongside for comparison with the
        # two-to-three-times claim.
        not_cost, not_accepted = sampled["NOT"]
        and_cost, and_accepted = sampled["AND"]
        print(
            f"  draws per accepted sample: NOT {not_cost:.0f} "
            f"({not_accepted}/{trials} accepted), AND {and_cost:.0f} "
            f"({and_accepted}/{trials} accepted), factor {and_cost / not_cost:.1f}x; "
            f"exact NOT {model['NOT'][0]:.0f}, AND {model['AND'][0]:.0f}, "
            f"factor {model['AND'][0] / model['NOT'][0]:.1f}x"
        )
