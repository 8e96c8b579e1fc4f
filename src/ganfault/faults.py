"""Error modes injected into circuits and input signals.

Three structural modes rewrite a single gate slot (missing device, device
swap, polarity reversal) and one stochastic mode flips input bits with a
per-bit probability; the sampler applies the flips to each batch of
candidate inputs.  Structural faults address a slot as
(layer, lowest covered position), both 1-based.

Text grammar (comma-separated for lists)::

    missing:L<layer>.S<pos>
    swap:L<layer>.S<pos>:<gate>
    reverse:L<layer>.S<pos>
    flip:<p>
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .circuit import GATES_BY_NAME, Circuit, GateKind, GateSlot, Layer

#: Polarity complements; an involution covering all eight gates.
COMPLEMENT = {
    GateKind.AND: GateKind.NAND,
    GateKind.NAND: GateKind.AND,
    GateKind.OR: GateKind.NOR,
    GateKind.NOR: GateKind.OR,
    GateKind.XOR: GateKind.XNOR,
    GateKind.XNOR: GateKind.XOR,
    GateKind.NOT: GateKind.BUFFER,
    GateKind.BUFFER: GateKind.NOT,
}


@dataclass(frozen=True)
class Missing:
    """Device absent: the slot becomes BUFFER pass-through per position."""

    layer: int
    position: int


@dataclass(frozen=True)
class Swap:
    """Device interchanged with another gate of the same arity."""

    layer: int
    position: int
    replacement: GateKind


@dataclass(frozen=True)
class ReversedPolarity:
    """Device replaced by its polarity complement."""

    layer: int
    position: int


@dataclass(frozen=True)
class InputPerturbation:
    """Each input bit flipped independently with probability p."""

    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"flip probability must be in [0, 1], got {self.probability}")


FaultSpec = Union[Missing, Swap, ReversedPolarity, InputPerturbation]

_SLOT_RE = r"L(\d+)\.S(\d+)"
_FAULT_RES = {
    "missing": re.compile(rf"^missing:{_SLOT_RE}$"),
    "swap": re.compile(rf"^swap:{_SLOT_RE}:([a-z]+)$"),
    "reverse": re.compile(rf"^reverse:{_SLOT_RE}$"),
    "flip": re.compile(r"^flip:([0-9.eE+-]+)$"),
}


def parse_fault(text: str) -> FaultSpec:
    """Parse one fault spec from its text form."""
    text = text.strip()
    if m := _FAULT_RES["missing"].match(text):
        return Missing(int(m.group(1)), int(m.group(2)))
    if m := _FAULT_RES["swap"].match(text):
        kind = GATES_BY_NAME.get(m.group(3))
        if kind is None:
            raise ValueError(f"unknown gate {m.group(3)!r} in fault spec {text!r}")
        return Swap(int(m.group(1)), int(m.group(2)), kind)
    if m := _FAULT_RES["reverse"].match(text):
        return ReversedPolarity(int(m.group(1)), int(m.group(2)))
    if m := _FAULT_RES["flip"].match(text):
        try:
            p = float(m.group(1))
        except ValueError:
            raise ValueError(f"bad flip probability in fault spec {text!r}") from None
        return InputPerturbation(p)
    raise ValueError(f"unrecognized fault spec {text!r}")


def parse_fault_list(text: str) -> tuple[FaultSpec, ...]:
    """Parse a comma-separated list of fault specs; '' means no faults."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_fault(part) for part in text.split(","))


def format_fault(fault: FaultSpec) -> str:
    if isinstance(fault, Missing):
        return f"missing:L{fault.layer}.S{fault.position}"
    if isinstance(fault, Swap):
        return f"swap:L{fault.layer}.S{fault.position}:{fault.replacement.value}"
    if isinstance(fault, ReversedPolarity):
        return f"reverse:L{fault.layer}.S{fault.position}"
    return f"flip:{fault.probability!r}"


def format_fault_list(faults: Iterable[FaultSpec]) -> str:
    return ",".join(format_fault(f) for f in faults)


def inject(circuit: Circuit, fault: FaultSpec) -> Circuit:
    """Return a new circuit with one structural fault applied.

    InputPerturbation does not reference a slot and is rejected here; the
    sampler applies it to input signals instead.
    """
    if isinstance(fault, InputPerturbation):
        raise ValueError("slot: input perturbation applies to signals, not slots")
    slot = circuit.slot_at(fault.layer, fault.position)
    if isinstance(fault, Missing):
        new_slots = [GateSlot(GateKind.BUFFER, p) for p in slot.positions]
    elif isinstance(fault, ReversedPolarity):
        new_slots = [GateSlot(COMPLEMENT[slot.kind], slot.position)]
    else:
        if fault.replacement.arity != slot.kind.arity:
            raise ValueError(
                f"arity mismatch: cannot swap {slot.kind} for {fault.replacement}"
            )
        new_slots = [GateSlot(fault.replacement, slot.position)]

    layers = list(circuit.layers)
    old = layers[fault.layer - 1]
    kept = [s for s in old.slots if s is not slot]
    layers[fault.layer - 1] = Layer(kept + new_slots)
    return Circuit(circuit.width, layers)


def inject_all(circuit: Circuit, faults: Sequence[FaultSpec]) -> Circuit:
    """Apply structural faults in declaration order; skips perturbations."""
    for fault in faults:
        if not isinstance(fault, InputPerturbation):
            circuit = inject(circuit, fault)
    return circuit


def perturbations(faults: Sequence[FaultSpec]) -> tuple[float, ...]:
    """Flip probabilities of the perturbation faults, in declaration order."""
    return tuple(f.probability for f in faults if isinstance(f, InputPerturbation))
