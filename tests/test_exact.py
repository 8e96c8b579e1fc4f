"""The exact model of one draw against brute force and against the sampler.

Brute force weighs every input x and flip mask e of a width-N circuit by
q**|e| (1 - q)**(N - |e|) / 2**N.  Sampled figures must lie inside stated
intervals with a tail of 1e-6 a side: min(G, B) is a 1-Lipschitz function
of the geometric G, so its standard deviation is at most G's,
sqrt(1 - p) / p, and the CLT bounds the mean of n trials by z sd / sqrt(n).
"""

import math
import random

import numpy as np
import pytest
import scipy.stats

from ganfault import exact
from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
from ganfault.faults import Missing, ReversedPolarity, Swap, inject_all, parse_fault_list, perturbations
from ganfault.sampler import ExperimentConfig, run_experiment

from conftest import BINARY_KINDS, UNARY_KINDS, random_circuit

TAIL = 1e-6
ANDNOT16 = Circuit(16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)])


def _random_fault(rng: random.Random, circuit: Circuit):
    layer = rng.randint(1, len(circuit.layers))
    slot = rng.choice(circuit.layers[layer - 1].slots)
    kinds = BINARY_KINDS if slot.kind.arity == 2 else UNARY_KINDS
    return rng.choice([Missing(layer, slot.position), ReversedPolarity(layer, slot.position),
                       Swap(layer, slot.position, rng.choice(kinds))])


def _masks(width: int, flips) -> tuple[np.ndarray, np.ndarray]:
    """Every combined flip mask and its chance, one independent mask per flip fault."""
    values = np.arange(1 << width, dtype=np.uint64)
    ones = np.bitwise_count(values)
    masks, chance = np.zeros(1, dtype=np.uint64), np.ones(1)
    for p in flips:
        masks = (masks[:, None] ^ values).ravel()
        chance = (chance[:, None] * p ** ones * (1 - p) ** (width - ones)).ravel()
    return masks, chance


def _brute_law(faulty: Circuit, reference, flips) -> np.ndarray:
    """The distance law over every input and flip mask, one row per target of an array."""
    width = faulty.width
    inputs = np.arange(1 << width, dtype=np.uint64)
    masks, chance = _masks(width, flips)
    out = faulty.evaluate_batch(inputs)[(inputs[:, None] ^ masks).astype(np.intp)]
    if isinstance(reference, Circuit):
        ref = reference.evaluate_batch(inputs)[:, None]
    else:
        ref = np.asarray(reference, dtype=np.uint64)[:, None, None]
    distance = np.bitwise_count(out ^ ref).reshape(-1, *out.shape)  # [target,] input, mask
    weights = np.broadcast_to(chance / len(inputs), out.shape).ravel()
    law = np.array([np.bincount(d.ravel(), weights, width + 1) for d in distance])
    return law if ref.ndim == 3 else law[0]


@pytest.mark.parametrize("width", [7, 8, 9])
def test_fault_compare_law_equals_brute_force(width):
    rng = random.Random(2100 + width)
    for _ in range(4):
        ideal = random_circuit(rng, width)
        faults = (_random_fault(rng, ideal), *parse_fault_list("flip:0.13"))
        faulty = inject_all(ideal, faults)
        law = exact.distance_law(faulty, ideal, perturbations(faults))
        assert law.shape == (width + 1,)
        np.testing.assert_allclose(law, _brute_law(faulty, ideal, [0.13]), rtol=0, atol=1e-12)


def test_flip_faults_combine_into_one_flip_chance():
    # Two flip faults flip a bit with chance q = (1 - (1 - 2 p1)(1 - 2 p2)) / 2;
    # brute force draws their masks independently.
    rng = random.Random(2105)
    for width in (4, 5):
        ideal = random_circuit(rng, width)
        faulty = inject_all(ideal, (_random_fault(rng, ideal),))
        law = exact.distance_law(faulty, ideal, (0.13, 0.3))
        np.testing.assert_allclose(law, _brute_law(faulty, ideal, [0.13, 0.3]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("width", [7, 8])
def test_target_search_law_equals_brute_force(width):
    rng = random.Random(2200 + width)
    ideal = random_circuit(rng, width)
    faulty = inject_all(ideal, (_random_fault(rng, ideal),))
    targets = np.arange(1 << width, dtype=np.uint64)
    law = exact.distance_law(faulty, targets, (0.13,))
    assert law.shape == (len(targets), width + 1)
    np.testing.assert_allclose(law, _brute_law(faulty, targets, [0.13]), rtol=0, atol=1e-12)
    assert law[3].tolist() == exact.distance_law(faulty, 3, (0.13,)).tolist()


def test_reversed_and_with_flips_matches_the_sampled_iterations():
    # andnot16, reverse:L1.S1 and flip:0.1, fault-compare at eps 0 (K = 0)
    # with a budget of 2000.  Seed 7 gives a mean of 21.430, 1.8 SE above.
    faults = parse_fault_list("reverse:L1.S1,flip:0.1")
    law = exact.distance_law(inject_all(ANDNOT16, faults), ANDNOT16, perturbations(faults))
    p, budget, trials = exact.acceptance(law, 0), 2000, 20_000
    mean = exact.expected_iterations(p, budget)
    assert (f"{p:.4g}", f"{mean:.5g}") == ("0.04723", "21.171")
    samples = run_experiment(ExperimentConfig(ANDNOT16, 0.0, trials, 7, faults,
                                              max_iterations=budget))
    bound = scipy.stats.norm.isf(TAIL) * math.sqrt(1 - p) / p / math.sqrt(trials)
    assert abs(samples.iterations.mean() - mean) <= bound, (samples.iterations.mean(), mean)
    accept = 1 - exact.censored_chance(p, budget)
    low, high = scipy.stats.binom.ppf(TAIL, trials, accept), scipy.stats.binom.isf(TAIL, trials, accept)
    assert low <= samples.accepted.sum() <= high


def test_missing_not_at_eps_0_is_never_accepted():
    # Without the NOT at bit 1, that bit always differs from the ideal output.
    faults = (Missing(2, 1),)
    p = exact.acceptance(exact.distance_law(inject_all(ANDNOT16, faults), ANDNOT16), 0)
    assert p == 0.0
    assert exact.expected_iterations(p, 300) == 300 and exact.censored_chance(p, 300) == 1.0
    samples = run_experiment(ExperimentConfig(ANDNOT16, 0.0, 200, 3, faults, max_iterations=300))
    assert not samples.accepted.any() and (samples.iterations == 300).all()


def test_budget_formulas_at_their_edges():
    assert exact.expected_iterations(1.0, 10) == 1.0 and exact.censored_chance(1.0, 10) == 0.0
    assert exact.expected_iterations(0.0, math.inf) == math.inf
    assert exact.expected_iterations(0.25, math.inf) == 4.0
    assert exact.censored_chance(0.0, math.inf) == 1.0
    # A chance far below 1 / budget: a trial takes its budget almost surely.
    assert math.isclose(exact.expected_iterations(1e-20, 1000), 1000, rel_tol=1e-12)
    p = np.array([0.0, 0.5])
    assert exact.expected_iterations(p, 3).tolist() == [3.0, 1.75]
    np.testing.assert_allclose(exact.censored_chance(p, 3), [1.0, 0.125], rtol=1e-15)
