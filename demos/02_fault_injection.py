"""
Netlists and the three error modes
==================================

Circuits live in a small line-oriented text format, and faults are
declarative rewrites of single gate slots: a missing device (pass-through),
a swapped device, a polarity reversal, plus stochastic input bit flips.
"""

from ganfault import (
    BitVector,
    ExperimentConfig,
    InputPerturbation,
    identity_circuit,
    inject,
    parse_fault,
    parse_netlist,
    run_experiment,
    serialize_netlist,
)

TEXT = """\
# four-bit demo circuit
width 4
layer
and 1 2
or 3 4
layer
not 1
not 2
buffer 3
buffer 4
"""

circuit = parse_netlist(TEXT)
print("canonical form:")
print(serialize_netlist(circuit))

# Faults use a compact grammar: slot (layer, lowest position) plus a mode.
faults = [
    parse_fault("missing:L2.S1"),
    parse_fault("swap:L1.S1:xor"),
    parse_fault("reverse:L1.S3"),
]

probe = BitVector.from_string("1101")
print(f"ideal({probe}) = {circuit.evaluate(probe)}")
for fault in faults:
    faulty = inject(circuit, fault)
    print(f"{str(fault):40s} -> {faulty.evaluate(probe)}")

# Injection never mutates: the original circuit still answers the same.
assert str(circuit.evaluate(probe)) == "0011"

# Input perturbation is the stochastic mode; each bit flips independently.
# On an identity circuit, comparing against the fault-free output at
# epsilon 1.0 accepts every first draw, so re ^ im is exactly the flip mask.
cfg = ExperimentConfig(
    circuit=identity_circuit(4),
    epsilon=1.0,
    trials=10_000,
    seed=0,
    faults=(InputPerturbation(0.25),),
)
flips = [((s.re ^ s.im) >> 1).bit_count() for s in run_experiment(cfg)]
print("\nmean flipped bits at p=0.25 over 4 bits:", sum(flips) / len(flips))
