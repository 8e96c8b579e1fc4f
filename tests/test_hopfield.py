import math
import random

import pytest

from ganfault.circuit import BitVector, identity_circuit
from ganfault.faults import InputPerturbation
from ganfault.hopfield import (
    AgreementVector,
    agreement_from_deviation,
    agreement_vector,
    completeness_check,
    ensemble_from_samples,
    pair_energy,
    spectrum,
)
from ganfault.sampler import ExperimentConfig, run_experiment


def test_agreement_vector_examples():
    v = BitVector.from_string("1010")
    assert agreement_vector(v, v).xi == (1, 1, 1, 1)
    assert agreement_vector(v, v.complement()).xi == (0, 0, 0, 0)
    a = agreement_vector(v, BitVector.from_string("1000"))
    assert a.xi == (1, 1, 0, 1)
    assert a.agreement_count == 3
    assert a.relative_uncertainty == 0.25
    with pytest.raises(ValueError, match="width"):
        agreement_vector(v, BitVector.from_string("10"))


def test_agreement_from_deviation_matches_bit_form():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 16)
        x = BitVector(n, rng.randrange(1 << n))
        y = BitVector(n, rng.randrange(1 << n))
        direct = agreement_vector(x, y)
        via = agreement_from_deviation(x.value << 1, y.value << 1, n)
        assert direct.xi == via.xi


def _ensemble(rows, index0=0):
    return [
        AgreementVector(len(row), tuple(row), index=index0 + i)
        for i, row in enumerate(rows)
    ]


def _pair_energy_quadratic(ensemble, mu, i, j):
    """E^mu_ij as the literal squared-product sum -(1/2N) sum_nu (xi^mu_i xi^nu_j)^2."""
    width = ensemble[0].width
    total = sum((ensemble[mu].xi[i - 1] * a.xi[j - 1]) ** 2 for a in ensemble)
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
        spectrum(_ensemble([(1, 0)]) + _ensemble([(1, 0, 1)], index0=1))


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
            by_k.setdefault(a.agreement_count, []).extend(values)
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
    report = completeness_check(1, _ensemble([(0,)]) + _ensemble([(1,)], index0=1))
    assert report.complete


def test_completeness_rejects_wide_ensembles():
    with pytest.raises(ValueError):
        completeness_check(17, [])


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
    assert len(ens) == sum(1 for s in samples if s.accepted)
    assert [a.index for a in ens] == list(range(len(ens)))
    for a in ens:
        assert a.relative_uncertainty <= 0.5
