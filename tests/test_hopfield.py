import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ganfault import exact
from ganfault.circuit import BitVector, Circuit, GateKind, decode_int, identity_circuit, pair_layer, unary_layer
from ganfault.faults import InputPerturbation, inject_all, parse_fault_list, perturbations
from ganfault.hopfield import (
    agreement_vector,
    completeness_check,
    ensemble_from_samples,
    pair_energy,
    spectrum,
)
from ganfault.sampler import (
    DeviationSample,
    ExperimentConfig,
    Samples,
    max_acceptable_distance,
    relative_uncertainty,
    run_experiment,
)


def test_agreement_vector_examples():
    v = BitVector.from_string("1010")
    assert agreement_vector(v, v).bits == (1, 1, 1, 1)
    assert agreement_vector(v, v.complement()).bits == (0, 0, 0, 0)
    w = BitVector.from_string("1000")
    a = agreement_vector(v, w)
    assert a == BitVector.from_string("1101")
    assert a.popcount() == 3
    assert relative_uncertainty(v, w) == 1 - a.popcount() / a.width == 0.25
    with pytest.raises(ValueError, match="width"):
        agreement_vector(v, BitVector.from_string("10"))
    # ~(x ^ y) is a negative int, so the mask alone cuts it to width bits;
    # 33, 63 and 64 sit at the 32- and 64-bit word edges.
    rng = random.Random(0)
    widths = [rng.randint(1, 64) for _ in range(200)] + list(range(1, 17)) + [33, 63, 64]
    for n in widths:
        x = BitVector(n, rng.randrange(1 << n))
        y = BitVector(n, rng.randrange(1 << n))
        assert agreement_vector(x, y).bits == tuple(int(a == b) for a, b in zip(x.bits, y.bits))


def _ensemble(rows):
    """The agreement words of 0/1 rows (row[j - 1] is xi_j) and their width."""
    words = [sum(bit << j for j, bit in enumerate(row)) for row in rows]
    return np.array(words, dtype=np.uint64), len(rows[0])


def _pair_energy_quadratic(rows, mu, i, j):
    """E^mu_ij as the literal squared-product sum -(1/2N) sum_nu (xi^mu_i xi^nu_j)^2."""
    total = sum((rows[mu][i - 1] * row[j - 1]) ** 2 for row in rows)
    return -total / (2 * len(rows[0]))


def test_pair_energy_worked_example():
    rows = [(1, 0), (1, 1)]
    assert pair_energy(*_ensemble(rows), 0, 1, 2) == -0.25
    assert _pair_energy_quadratic(rows, 0, 1, 2) == -0.25


def test_pair_energy_zero_prefactor():
    assert pair_energy(*_ensemble([(0, 1), (1, 1), (1, 0)]), 0, 1, 2) == 0.0


def test_pair_energy_floor():
    for p in (1, 3, 8):
        words, n = _ensemble([(1, 1, 1, 1)] * p)
        for i in range(1, 5):
            for j in range(1, 5):
                assert pair_energy(words, n, 0, i, j) == -p / 8


def test_pair_energy_index_errors():
    words, n = _ensemble([(1, 0)])
    with pytest.raises(ValueError, match="index"):
        pair_energy(words, n, 1, 1, 1)
    with pytest.raises(ValueError, match="index"):
        pair_energy(words, n, 0, 0, 1)
    with pytest.raises(ValueError, match="index"):
        pair_energy(words, n, 0, 1, 3)
    with pytest.raises(ValueError, match="index"):
        pair_energy(words[:0], n, 0, 1, 1)
    with pytest.raises(ValueError, match="width"):
        pair_energy([0b101], n, 0, 1, 1)


def test_quadratic_form_equals_simplified():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 6)
        p = rng.randint(1, 8)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(p)]
        mu = rng.randrange(p)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        assert pair_energy(*_ensemble(rows), mu, i, j) == _pair_energy_quadratic(rows, mu, i, j)


def test_energy_bounds_and_stability():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = rng.randint(1, 10)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(p - 1)]
        rows.append([1] * n)  # include the full-agreement configuration
        words, _ = _ensemble(rows)
        floor = -p / (2 * n)
        star = len(rows) - 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                energies = [pair_energy(words, n, mu, i, j) for mu in range(p)]
                assert all(floor <= e <= 0 for e in energies)
                # Full agreement is minimal (most stable) at every (i, j).
                assert energies[star] == min(energies)


def test_spectrum_single_configuration():
    spec = spectrum(*_ensemble([(1, 1, 1, 1)]))
    assert spec.size == 1
    assert set(spec.manifolds) == {4}
    m = spec.manifolds[4]
    assert m.degeneracy == 1
    assert m.min_energy == m.max_energy == m.mean_energy == -1 / 8


def test_spectrum_exhaustive_degeneracies():
    n = 4
    rows = [[(v >> b) & 1 for b in range(n)] for v in range(1 << n)]
    spec = spectrum(*_ensemble(rows))
    assert [spec.manifolds[k].degeneracy for k in range(5)] == [1, 4, 6, 4, 1]
    assert sum(m.degeneracy for m in spec.manifolds.values()) == spec.size


def test_spectrum_empty_ensemble():
    with pytest.raises(ValueError, match="empty"):
        spectrum(np.array([], dtype=np.uint64), 2)
    with pytest.raises(ValueError, match="width"):
        spectrum([0b10, 0b101], 2)
    for width in (0, 65):
        with pytest.raises(ValueError, match="width"):
            spectrum([0], width)


def test_spectrum_stats_match_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = rng.randint(1, 7)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(p)]
        words, _ = _ensemble(rows)
        spec = spectrum(words, n)
        by_k: dict[int, list[float]] = {}
        for mu, row in enumerate(rows):
            values = [
                pair_energy(words, n, mu, i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            ]
            by_k.setdefault(sum(row), []).extend(values)
        for k, values in by_k.items():
            m = spec.manifolds[k]
            assert m.min_energy == min(values)
            assert m.max_energy == max(values)
            assert math.isclose(m.mean_energy, sum(values) / len(values), abs_tol=1e-12)


def test_completeness_exhaustive_and_gapped():
    n = 4
    rows = [[(v >> b) & 1 for b in range(n)] for v in range(1 << n)]
    report = completeness_check(n, _ensemble(rows)[0])
    assert report.complete
    assert [m.expected for m in report.manifolds] == [1, 4, 6, 4, 1]

    gapped = [row for row in rows if tuple(row) != (1, 1, 0, 0)]
    report = completeness_check(n, _ensemble(gapped)[0])
    assert not report.complete
    k2 = report.manifolds[2]
    assert (k2.observed, k2.expected) == (5, 6)


def test_completeness_width_one():
    report = completeness_check(1, _ensemble([(0,), (1,)])[0])
    assert report.complete


def test_completeness_rejects_wide_ensembles():
    for width in (-1, 0, 17):
        with pytest.raises(ValueError, match="width"):
            completeness_check(width, [])
    with pytest.raises(ValueError, match="width"):
        completeness_check(2, [0b101])


def test_distinct_patterns_match_brute_force():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 16)
        p = rng.randint(1, 40)
        # Few distinct words, so that repeats within a manifold are common.
        pool = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
        words = [rng.choice(pool) for _ in range(p)]
        patterns: dict[int, set] = {}
        for w in words:
            patterns.setdefault(bin(w).count("1"), set()).add(w)
        spec = spectrum(words, n)
        assert {k: m.distinct_patterns for k, m in spec.manifolds.items()} == {
            k: len(v) for k, v in patterns.items()
        }
        report = completeness_check(n, words)
        assert [m.observed for m in report.manifolds] == [
            len(patterns.get(k, ())) for k in range(n + 1)
        ]


def test_ensemble_from_samples_uses_accepted_only():
    cfg = ExperimentConfig(
        circuit=identity_circuit(4),
        faults=(InputPerturbation(0.3),),
        epsilon=0.5,
        trials=300,
        seed=5,
        max_iterations=4,
    )
    samples = run_experiment(cfg)
    ens = ensemble_from_samples(samples, 4)
    accepted = [s for s in samples if s.accepted]
    assert ens.dtype == np.uint64 and len(ens) == len(accepted)
    for a, s in zip(ens.tolist(), accepted):
        sim, exp = decode_int(s.re, 4), decode_int(s.im, 4)
        assert a == agreement_vector(sim, exp).value
        assert relative_uncertainty(sim, exp) <= 0.5
    # At width 64 the mask keeps every bit: equal words agree everywhere.
    top = (1 << 65) - 2
    wide = Samples.from_rows([DeviationSample(top, top, 1, True, 0.0, ""),
                              DeviationSample(top, 0, 1, False, 0.0, "")])
    assert ensemble_from_samples(wide, 64).tolist() == [(1 << 64) - 1]


ANDNOT16 = Circuit(16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)])
LEVEL = 1e-6  # the chance, over all three cases, that an exact law fails by chance


@pytest.mark.parametrize("text", ["flip:0.1", "reverse:L1.S1,flip:0.1", "missing:L2.S1,flip:0.2"])
def test_spectrum_manifolds_follow_the_exact_conditional_law(text):
    # In fault-compare an accepted sample has agreement count N - d, and its
    # distance d follows the exact law of one draw conditioned on d <= K.
    # Given P accepted samples the degeneracies are multinomial, so a chi^2
    # test at LEVEL / 3 per case holds (Bonferroni over the three cases).
    faults = parse_fault_list(text)
    cfg = ExperimentConfig(ANDNOT16, 0.375, 5000, 1, faults)
    radius = max_acceptable_distance(16, cfg.epsilon)
    law = exact.distance_law(inject_all(ANDNOT16, faults), ANDNOT16, perturbations(faults))
    law = law[: radius + 1] / law[: radius + 1].sum()
    spec = spectrum(ensemble_from_samples(run_experiment(cfg), 16), 16)
    observed = np.zeros(radius + 1)
    for k, m in spec.manifolds.items():
        assert 16 - k <= radius and law[16 - k] > 0, (text, k)
        observed[16 - k] = m.degeneracy
    support = law > 0
    expected = spec.size * law[support]
    chi2 = ((observed[support] - expected) ** 2 / expected).sum()
    df = int(support.sum()) - 1
    assert scipy.stats.chi2.sf(chi2, df) > LEVEL / 3, (text, chi2, df)


def test_hopfield_memory_stays_within_a_few_word_arrays():
    # No P x N bit matrix: the peak is a few copies of the words at most.
    words = np.random.default_rng(0).integers(0, 1 << 64, 100_000, dtype=np.uint64)
    low = words & np.uint64(0xFFFF)
    for call in (lambda: spectrum(words, 64), lambda: completeness_check(16, low)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * words.nbytes, peak / words.nbytes
