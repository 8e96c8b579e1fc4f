"""
Agreement vectors and the pair-energy spectrum
==============================================

Each accepted sample yields a word of per-bit agreements between the
modulated and reference signals, whose bit j - 1 is 1 where the two
signals match; the ensemble is a uint64 array of them.  Pair energies over
the ensemble are most negative for full agreement (the stable states), and
configurations sharing an agreement count form manifolds of constant
uncertainty whose patterns can be checked for completeness against
binomial counts.
"""

from ganfault import (
    ExperimentConfig,
    InputPerturbation,
    agreement_vector,
    BitVector,
    completeness_check,
    ensemble_from_samples,
    identity_circuit,
    pair_energy,
    run_experiment,
    spectrum,
)

# Agreement of two signals, bit by bit: 1 where they match.
a = BitVector.from_string("1010")
b = BitVector.from_string("1000")
xi = agreement_vector(a, b)
print("xi:", xi.bits, " agreement count:", xi.popcount())

# Sample a perturbed identity circuit and build the ensemble, one
# agreement word per accepted trial.
cfg = ExperimentConfig(
    circuit=identity_circuit(4),
    faults=(InputPerturbation(0.5),),
    epsilon=1.0,
    trials=3000,
    seed=11,
)
ensemble = ensemble_from_samples(run_experiment(cfg), width=4)
print(f"\nensemble size: {len(ensemble)}")

# A single pair energy, straight from the definition.
print("E^0_(1,2) =", pair_energy(ensemble, 4, 0, 1, 2))

spec = spectrum(ensemble, 4)
print(f"energy floor -P/(2N) = {spec.energy_floor:.1f}")
print(f"{'k':>3} {'members':>8} {'patterns':>9} {'mean energy':>12}")
for k, m in sorted(spec.manifolds.items()):
    print(f"{k:3d} {m.degeneracy:8d} {m.distinct_patterns:9d} {m.mean_energy:12.2f}")

# With enough perturbed trials all C(4, k) patterns appear: the manifolds
# are saturated and the ensemble is complete.
report = completeness_check(4, ensemble)
for row in report.manifolds:
    print(f"k={row.agreement_count}: {row.observed}/{row.expected} patterns")
print("complete:", report.complete)
