"""
The generator / modulator / discriminator loop
==============================================

Random inputs are redrawn until the modulated output approximates a
reference within the uncertainty level.  For a circuit whose outputs are
uniform, the iteration count is geometric with mean 2**N divided by the
Hamming-ball volume, so the cost falls exponentially as the tolerance
grows.
"""

from ganfault import (
    ComparisonMode,
    ExperimentConfig,
    analytic_mean_iterations,
    identity_circuit,
    run_experiment,
)

WIDTH = 8
circuit = identity_circuit(WIDTH)

print("target search on an 8-bit identity map, 4000 trials per level")
print(f"{'eps':>6} {'mean iterations':>16} {'analytic':>10}")
for eps in (0.0, 1 / 8, 2 / 8, 3 / 8):
    cfg = ExperimentConfig(
        circuit=circuit,
        epsilon=eps,
        trials=4000,
        seed=42,
        mode=ComparisonMode.TARGET_SEARCH,
    )
    samples = run_experiment(cfg)
    mean = sum(s.iterations for s in samples) / len(samples)
    print(f"{eps:6.3f} {mean:16.2f} {analytic_mean_iterations(WIDTH, eps):10.2f}")
