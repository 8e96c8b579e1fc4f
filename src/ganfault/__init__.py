"""Fault-tolerance estimation for digital logic circuits.

Random bit vectors are driven through gate networks with injected faults;
accepted trials become complex-integer deviation samples whose scatter
reveals the uncertainty level at which the circuit's behaviour turns from
linear to chaotic.
"""

from .circuit import (
    BitVector,
    Circuit,
    GateKind,
    GateSlot,
    Layer,
    decode_int,
    encode_int,
    eval_gate,
    identity_circuit,
    pair_layer,
    unary_layer,
)
from .faults import (
    COMPLEMENT,
    FaultSpec,
    InputPerturbation,
    Missing,
    ReversedPolarity,
    Swap,
    format_fault,
    format_fault_list,
    inject,
    inject_all,
    parse_fault,
    parse_fault_list,
)
from .netlist import NetlistError, parse_netlist, serialize_netlist
from .sampler import (
    ComparisonMode,
    DeviationSample,
    ExperimentConfig,
    deviation,
    relative_uncertainty,
    run_experiment,
    run_trial,
    trial_rng,
)
from .hopfield import (
    CompletenessReport,
    EnergySpectrum,
    agreement_vector,
    completeness_check,
    ensemble_from_samples,
    pair_energy,
    spectrum,
)
from .analysis import (
    GateComposition,
    IterationScalingFit,
    LinearFit,
    SweepResult,
    TransitionEstimate,
    analytic_mean_iterations,
    detect_transition,
    fit_iteration_scaling,
    fit_linear,
    run_sweep,
    table1_deviation,
    table1_report,
)
from .emit import (
    DatasetManifest,
    emit_dataset,
    read_samples_csv,
    render_scatter,
    write_samples_csv,
)

__version__ = "0.1.0"
