import math
import random

import pytest

from ganfault.circuit import BitVector, decode_int, identity_circuit
from ganfault.faults import InputPerturbation
from ganfault.hopfield import (
    agreement_from_deviation,
    agreement_vector,
    completeness_check,
    ensemble_from_samples,
    pair_energy,
    spectrum,
)
from ganfault.sampler import ExperimentConfig, relative_uncertainty, run_experiment


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


def test_agreement_from_deviation_matches_bit_form():
    # ~(re ^ im) is a negative int, so the mask alone cuts it to width bits;
    # 33, 63 and 64 sit at the 32- and 64-bit word edges.
    rng = random.Random(0)
    widths = [rng.randint(1, 64) for _ in range(200)] + list(range(1, 17)) + [33, 63, 64]
    for n in widths:
        x = BitVector(n, rng.randrange(1 << n))
        y = BitVector(n, rng.randrange(1 << n))
        oracle = tuple(int(a == b) for a, b in zip(x.bits, y.bits))
        direct = agreement_vector(x, y)
        via = agreement_from_deviation(x.value << 1, y.value << 1, n)
        assert direct == via
        assert via.bits == oracle
    assert agreement_from_deviation(0, 0, 64) == BitVector(64, (1 << 64) - 1)


def _ensemble(rows):
    return [BitVector.from_bits(row) for row in rows]


def _pair_energy_quadratic(ensemble, mu, i, j):
    """E^mu_ij as the literal squared-product sum -(1/2N) sum_nu (xi^mu_i xi^nu_j)^2."""
    width = ensemble[0].width
    total = sum((ensemble[mu].bits[i - 1] * a.bits[j - 1]) ** 2 for a in ensemble)
    return -total / (2 * width)


def test_pair_energy_worked_example():
    ens = _ensemble([(1, 0), (1, 1)])
    assert pair_energy(ens, 0, 1, 2) == -0.25
    assert _pair_energy_quadratic(ens, 0, 1, 2) == -0.25


def test_pair_energy_zero_prefactor():
    ens = _ensemble([(0, 1), (1, 1), (1, 0)])
    assert pair_energy(ens, 0, 1, 2) == 0.0


def test_pair_energy_floor():
    for p in (1, 3, 8):
        ens = _ensemble([(1, 1, 1, 1)] * p)
        for i in range(1, 5):
            for j in range(1, 5):
                assert pair_energy(ens, 0, i, j) == -p / 8


def test_pair_energy_index_errors():
    ens = _ensemble([(1, 0)])
    with pytest.raises(ValueError, match="index"):
        pair_energy(ens, 1, 1, 1)
    with pytest.raises(ValueError, match="index"):
        pair_energy(ens, 0, 0, 1)
    with pytest.raises(ValueError, match="index"):
        pair_energy(ens, 0, 1, 3)


def test_quadratic_form_equals_simplified():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 6)
        p = rng.randint(1, 8)
        ens = _ensemble([[rng.randint(0, 1) for _ in range(n)] for _ in range(p)])
        mu = rng.randrange(p)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        assert pair_energy(ens, mu, i, j) == _pair_energy_quadratic(ens, mu, i, j)


def test_energy_bounds_and_stability():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = rng.randint(1, 10)
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(p - 1)]
        rows.append([1] * n)  # include the full-agreement configuration
        ens = _ensemble(rows)
        floor = -p / (2 * n)
        star = len(rows) - 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                energies = [pair_energy(ens, mu, i, j) for mu in range(p)]
                assert all(floor <= e <= 0 for e in energies)
                # Full agreement is minimal (most stable) at every (i, j).
                assert energies[star] == min(energies)


def test_spectrum_single_configuration():
    spec = spectrum(_ensemble([(1, 1, 1, 1)]))
    assert spec.size == 1
    assert set(spec.manifolds) == {4}
    m = spec.manifolds[4]
    assert m.degeneracy == 1
    assert m.min_energy == m.max_energy == m.mean_energy == -1 / 8


def test_spectrum_exhaustive_degeneracies():
    n = 4
    rows = [[(v >> b) & 1 for b in range(n)] for v in range(1 << n)]
    spec = spectrum(_ensemble(rows))
    assert [spec.manifolds[k].degeneracy for k in range(5)] == [1, 4, 6, 4, 1]
    assert sum(m.degeneracy for m in spec.manifolds.values()) == spec.size


def test_spectrum_empty_ensemble():
    with pytest.raises(ValueError):
        spectrum([])
    with pytest.raises(ValueError, match="width"):
        spectrum(_ensemble([(1, 0), (1, 0, 1)]))


def test_spectrum_stats_match_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        p = rng.randint(1, 7)
        ens = _ensemble([[rng.randint(0, 1) for _ in range(n)] for _ in range(p)])
        spec = spectrum(ens)
        by_k: dict[int, list[float]] = {}
        for mu, a in enumerate(ens):
            values = [
                pair_energy(ens, mu, i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
            ]
            by_k.setdefault(a.popcount(), []).extend(values)
        for k, values in by_k.items():
            m = spec.manifolds[k]
            assert m.min_energy == min(values)
            assert m.max_energy == max(values)
            assert math.isclose(m.mean_energy, sum(values) / len(values), abs_tol=1e-12)


def test_completeness_exhaustive_and_gapped():
    n = 4
    rows = [[(v >> b) & 1 for b in range(n)] for v in range(1 << n)]
    report = completeness_check(n, _ensemble(rows))
    assert report.complete
    assert [m.expected for m in report.manifolds] == [1, 4, 6, 4, 1]

    gapped = [row for row in rows if tuple(row) != (1, 1, 0, 0)]
    report = completeness_check(n, _ensemble(gapped))
    assert not report.complete
    k2 = report.manifolds[2]
    assert (k2.observed, k2.expected) == (5, 6)


def test_completeness_width_one():
    report = completeness_check(1, _ensemble([(0,), (1,)]))
    assert report.complete


def test_completeness_rejects_wide_ensembles():
    for width in (-1, 0, 17):
        with pytest.raises(ValueError, match="width"):
            completeness_check(width, [])


def test_distinct_patterns_match_brute_force():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 16)
        p = rng.randint(1, 40)
        # Few distinct words, so that repeats within a manifold are common.
        pool = [rng.randrange(1 << n) for _ in range(rng.randint(1, 12))]
        ens = [BitVector(n, rng.choice(pool)) for _ in range(p)]
        patterns: dict[int, set] = {}
        for a in ens:
            patterns.setdefault(sum(a.bits), set()).add(a.bits)
        spec = spectrum(ens)
        assert {k: m.distinct_patterns for k, m in spec.manifolds.items()} == {
            k: len(v) for k, v in patterns.items()
        }
        report = completeness_check(n, ens)
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
    assert len(ens) == len(accepted)
    for a, s in zip(ens, accepted):
        sim, exp = decode_int(s.re, 4), decode_int(s.im, 4)
        assert a == agreement_vector(sim, exp)
        assert relative_uncertainty(sim, exp) <= 0.5
