import math
import random

import numpy as np
import pytest
import scipy.stats

from ganfault.circuit import BitVector, Circuit, GateKind, identity_circuit, pair_layer, unary_layer
from ganfault import sampler
from ganfault.faults import InputPerturbation, Missing, ReversedPolarity, Swap, inject_all
from ganfault.sampler import (
    ComparisonMode,
    DeviationSample,
    ExperimentConfig,
    ModulatorCache,
    deviation,
    max_acceptable_distance,
    relative_uncertainty,
    run_experiment,
    run_trial,
    trial_rng,
)


def test_relative_uncertainty_examples():
    x = BitVector.from_string("1010")
    assert relative_uncertainty(x, x) == 0.0
    assert relative_uncertainty(x, BitVector.from_string("1000")) == 0.25
    y = BitVector.from_string("10110100")
    assert relative_uncertainty(y, y.complement()) == 1.0
    with pytest.raises(ValueError, match="width"):
        relative_uncertainty(x, y)


def test_deviation_examples():
    ones = BitVector.from_string("1111")
    assert deviation(ones, ones) == (30, 30)
    assert deviation(BitVector.from_string("0000"), ones) == (0, 30)
    assert deviation(BitVector.from_string("1010"), BitVector.from_string("0011")) == (10, 24)
    with pytest.raises(ValueError, match="width"):
        deviation(ones, BitVector.from_string("11"))


def test_max_acceptable_distance():
    assert max_acceptable_distance(8, 0.0) == 0
    assert max_acceptable_distance(8, 1 / 8) == 1
    assert max_acceptable_distance(8, 0.1) == 0
    assert max_acceptable_distance(4, 0.25) == 1
    assert max_acceptable_distance(8, 1.0) == 8
    # 29/100 <= 0.29 in floating point, while floor(0.29 * 100) == 28.
    assert max_acceptable_distance(100, 0.29) == 29


def _config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        circuit=identity_circuit(4),
        epsilon=0.0,
        trials=10,
        seed=7,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_fault_free_compare_accepts_first_draw():
    cfg = _config(circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]), trials=200)
    for s in run_experiment(cfg):
        assert s.accepted and s.iterations == 1 and s.re == s.im
        assert s.label == "none"


def test_trial_count_contract():
    assert len(run_experiment(_config(trials=1))) == 1
    with pytest.raises(ValueError):
        run_experiment(_config(trials=0))
    with pytest.raises(ValueError):
        run_experiment(_config(epsilon=1.5))


def test_accepted_samples_satisfy_predicate():
    cfg = _config(
        circuit=Circuit(8, [unary_layer(GateKind.NOT, 8)]),
        faults=(Missing(1, 1), InputPerturbation(0.2)),
        epsilon=0.25,
        trials=400,
        max_iterations=50,
    )
    k = max_acceptable_distance(8, 0.25)
    for s in run_experiment(cfg):
        dist = ((s.re >> 1) ^ (s.im >> 1)).bit_count()
        if s.accepted:
            assert dist <= k
            assert dist / 8 <= s.epsilon
        else:
            assert s.iterations == 50


def test_target_search_geometric_mean_eps0():
    # Geometric oracle: success probability 2^-4 per draw, mean 16.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, trials=10_000, seed=11, epsilon=0.0
    )
    samples = run_experiment(cfg)
    assert all(s.accepted for s in samples)
    mean = sum(s.iterations for s in samples) / len(samples)
    assert abs(mean - 16.0) / 16.0 < 0.05


def test_target_search_cumulative_binomial_mean():
    # Hamming ball of radius 1 in 4 bits holds 5 of 16 points: mean 3.2.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, trials=10_000, seed=13, epsilon=0.25
    )
    samples = run_experiment(cfg)
    mean = sum(s.iterations for s in samples) / len(samples)
    assert abs(mean - 3.2) / 3.2 < 0.05


def test_deterministic_across_worker_counts():
    cfg = _config(
        circuit=Circuit(8, [pair_layer(GateKind.AND, 8)]),
        faults=(Swap(1, 1, GateKind.OR), InputPerturbation(0.1)),
        epsilon=0.25,
        trials=300,
        seed=99,
        max_iterations=200,
    )
    runs = [run_experiment(cfg, workers=w) for w in (1, 4, 8)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("memoize", [False, True])
def test_run_experiment_looks_up_trial_functions_at_call_time(memoize, monkeypatch):
    # Span tracing replaces these module globals; a local alias would bypass it.
    cfg = _config(
        trials=6, seed=5, mode=ComparisonMode.TARGET_SEARCH, epsilon=0.25, memoize=memoize
    )
    expected = run_experiment(cfg)
    calls, issued = [], {}

    def counting_rng(seed, trial):
        rng = trial_rng(seed, trial)
        calls.append(("trial_rng", trial))
        issued[id(rng)] = trial
        return rng

    def counting_trial(cfg, faulty, ideal, rng, *rest):
        calls.append(("run_trial", issued[id(rng)]))
        return run_trial(cfg, faulty, ideal, rng, *rest)

    monkeypatch.setattr(sampler, "trial_rng", counting_rng)
    monkeypatch.setattr(sampler, "run_trial", counting_trial)
    assert run_experiment(cfg) == expected
    assert calls == [(name, t) for t in range(6) for name in ("trial_rng", "run_trial")]


def test_trial_substreams_are_trial_indexed():
    cfg = _config(trials=5, seed=21, mode=ComparisonMode.TARGET_SEARCH, epsilon=1.0)
    samples = run_experiment(cfg)
    # Recomputing any single trial from its substream reproduces the sample.
    faulty = ideal = cfg.circuit
    for t in (0, 3, 4):
        again = run_trial(cfg, faulty, ideal, trial_rng(cfg.seed, t))
        assert again == samples[t]


_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 2**160 + 9]
_TRIALS = [0, 1, 1023, 1024, 4097, 2**32 - 1, 2**32, 2**40]


def _seed_sequence_rng(seed, trial):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def _assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.integers(0, 2**63, 16), want.integers(0, 2**63, 16))
    assert np.array_equal(got.random(16), want.random(16))


@pytest.mark.parametrize("seed", _SEEDS)
def test_trial_rng_matches_seed_sequence(seed):
    # One-word, two-word and long seeds; trials at block edges, at 2**32
    # (two spawn-key words) and far beyond.
    for trial in _TRIALS:
        _assert_same_stream(trial_rng(seed, trial), _seed_sequence_rng(seed, trial))


def test_trial_rng_matches_seed_sequence_on_every_row_of_a_block():
    for trial in range(2048):
        assert (
            trial_rng(9, trial).bit_generator.state
            == _seed_sequence_rng(9, trial).bit_generator.state
        ), trial


def test_trial_rng_is_right_whatever_order_seeds_and_blocks_come_in():
    pairs = [(s, t) for s in _SEEDS for t in _TRIALS] * 2
    random.Random(5).shuffle(pairs)
    for seed, trial in pairs:
        assert (
            trial_rng(seed, trial).bit_generator.state
            == _seed_sequence_rng(seed, trial).bit_generator.state
        ), (seed, trial)


def test_trial_rng_generators_advance_independently():
    a, b = trial_rng(3, 7), trial_rng(3, 7)
    drawn = a.random(32)
    _assert_same_stream(b, _seed_sequence_rng(3, 7))
    assert np.array_equal(trial_rng(3, 7).random(32), drawn)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1)])
def test_trial_rng_rejects_negative_seed_or_trial(seed, trial):
    with pytest.raises(ValueError, match="non-negative"):
        trial_rng(seed, trial)


def test_budget_exhaustion_is_flagged_not_raised():
    # Identity circuit cannot reach a target whose distance exceeds epsilon
    # within a tiny budget for most targets.
    cfg = _config(
        mode=ComparisonMode.TARGET_SEARCH, epsilon=0.0, trials=50, max_iterations=3
    )
    samples = run_experiment(cfg)
    censored = [s for s in samples if not s.accepted]
    assert censored, "expected some censored trials at budget 3"
    for s in censored:
        assert s.iterations == 3
        assert 0 <= s.re <= 30 and 0 <= s.im <= 30


def test_unreachable_targets_are_censored_without_drawing():
    # AND pairs then NOT, one device reversed: most 8-bit targets have no
    # preimage, and flip noise keeps the inputs uniform.
    cfg = _config(
        circuit=Circuit(8, [pair_layer(GateKind.AND, 8), unary_layer(GateKind.NOT, 8)]),
        faults=(ReversedPolarity(1, 1), InputPerturbation(0.1)),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.0,
        trials=200,
        seed=41,
        max_iterations=64,
    )
    faulty = inject_all(cfg.circuit, cfg.faults)
    samples = run_experiment(cfg)
    skipped = 0
    for t, s in enumerate(samples):
        distance, nearest = faulty.nearest(s.im >> 1)
        # The same trial without screening draws every candidate.
        unscreened = run_trial(
            cfg, faulty, cfg.circuit, trial_rng(cfg.seed, t), None,
            (0, (0.1,), s.label, False),
        )
        if distance > 0:
            skipped += 1
            assert (s.iterations, s.accepted, s.re) == (64, False, nearest << 1)
            assert not unscreened.accepted and unscreened.iterations == 64
        else:
            assert s == unscreened
    assert 0 < skipped < len(samples)


def test_mean_iterations_monotone_in_epsilon():
    cfg = _config(mode=ComparisonMode.TARGET_SEARCH, trials=400, seed=5)
    means = []
    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        samples = run_experiment(
            ExperimentConfig(
                circuit=cfg.circuit, epsilon=eps, trials=cfg.trials, seed=cfg.seed,
                mode=cfg.mode,
            )
        )
        means.append(sum(s.iterations for s in samples) / len(samples))
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_memoized_repeats_never_slow_down():
    cfg = _config(
        circuit=identity_circuit(3),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.0,
        trials=400,
        seed=17,
        memoize=True,
    )
    samples = run_experiment(cfg)
    per_target: dict[int, list[int]] = {}
    for s in samples:
        per_target.setdefault(s.im, []).append(s.iterations)
    repeated = [its for its in per_target.values() if len(its) > 1]
    assert repeated, "with 400 trials over 8 targets, repeats must occur"
    for its in repeated:
        # After the first acceptance the cached input is replayed first.
        assert all(x == 1 for x in its[1:])


def test_memoization_reduces_total_iterations():
    base = dict(
        circuit=identity_circuit(4),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.0,
        trials=300,
        seed=23,
    )
    plain = run_experiment(ExperimentConfig(**base))
    memo = run_experiment(ExperimentConfig(**base, memoize=True))
    assert sum(s.iterations for s in memo) < sum(s.iterations for s in plain)


def test_cache_invalidated_on_config_change():
    cache = ModulatorCache()
    cfg = _config(
        circuit=identity_circuit(3),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.0,
        trials=50,
        seed=29,
        memoize=True,
    )
    run_experiment(cfg, cache=cache)
    assert len(cache) > 0
    changed = ExperimentConfig(
        circuit=cfg.circuit, epsilon=1.0, trials=1, seed=29,
        mode=cfg.mode, memoize=True,
    )
    run_experiment(changed, cache=cache)
    # Binding to a different epsilon cleared the old entries; the single
    # new trial stored at most one input.
    assert len(cache) <= 1


def test_cached_inputs_still_satisfy_predicate():
    cache = ModulatorCache()
    cfg = _config(
        circuit=Circuit(4, [unary_layer(GateKind.NOT, 4)]),
        mode=ComparisonMode.TARGET_SEARCH,
        epsilon=0.25,
        trials=200,
        seed=31,
        memoize=True,
    )
    run_experiment(cfg, cache=cache)
    k = max_acceptable_distance(4, 0.25)
    for target, inputs in cache._store.items():
        for g in inputs:
            out = cfg.circuit.evaluate(BitVector(4, g))
            assert (out.value ^ target).bit_count() <= k


def test_perturbed_buffer_outputs_uniform_chi_square():
    # Chi-square uniformity over the 16 encodings at significance 0.01.
    cfg = _config(
        circuit=identity_circuit(4),
        faults=(InputPerturbation(0.5),),
        epsilon=1.0,
        trials=100_000,
        seed=37,
    )
    samples = run_experiment(cfg)
    counts = np.zeros(16, dtype=np.int64)
    for s in samples:
        assert s.accepted
        counts[s.re >> 1] += 1
    expected = len(samples) / 16
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.99, df=15)
    assert chi2 < critical, f"chi2={chi2:.2f} >= {critical:.2f}"
