"""Shared helpers: generators for randomized property tests, subprocess environment."""

import os
import random
from pathlib import Path

from ganfault.circuit import Circuit, GateKind, GateSlot, Layer

UNARY_KINDS = [GateKind.NOT, GateKind.BUFFER]
BINARY_KINDS = [
    GateKind.AND, GateKind.OR, GateKind.NAND,
    GateKind.NOR, GateKind.XOR, GateKind.XNOR,
]


def random_layer(rng: random.Random, width: int) -> Layer:
    slots = []
    p = 1
    while p <= width:
        if p % 2 == 1 and p + 1 <= width and rng.random() < 0.5:
            slots.append(GateSlot(rng.choice(BINARY_KINDS), p))
            p += 2
        else:
            slots.append(GateSlot(rng.choice(UNARY_KINDS + [GateKind.NOT]), p))
            p += 1
    rng.shuffle(slots)
    return Layer(slots)


def random_circuit(rng: random.Random, width: int | None = None) -> Circuit:
    if width is None:
        width = rng.randint(1, 16)
    n_layers = rng.randint(1, 3)
    return Circuit(width, [random_layer(rng, width) for _ in range(n_layers)])


def src_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
