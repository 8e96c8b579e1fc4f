"""Bit vectors, classical logic gates, and layered combinational circuits.

A circuit maps an N-bit input to an N-bit output through ordered layers of
gate slots.  A slot is either a unary gate on a single bit position or a
binary gate on an aligned adjacent pair (1,2), (3,4), ...; a binary gate
writes its output bit to *both* positions of its pair, so evaluation always
preserves width but is in general not injective.

Bit positions are indexed j = 1..N with j = 1 the leftmost bit of the
string form.  Integer encodings weight bit j by 2**j, so an N-bit vector
encodes into [0, 2**(N+1) - 2].

Evaluation is compiled.  Every gate reads and writes inside one aligned
pair, so a circuit of any depth is a product of independent 2-bit maps and
each output bit is exactly c0 ^ c1 a ^ c2 b ^ c3 ab in its pair's inputs
a, b (the algebraic normal form).  Running the layers once on the words 0,
LO, HI and LO|HI (LO holds the low bit of every pair, HI the high bit) reads
all four truth-table rows of every pair at once.  They give the masks C0,
SELF, SWAP and AND, which evaluate any input in a few word operations, and
each pair's image, from which :meth:`Circuit.nearest` finds the output
nearest any target exactly.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable

import numpy as np

MAX_WIDTH = 64
_LO = 0x5555555555555555  # the low bit of every aligned pair


class GateKind(enum.Enum):
    """The seven classical logic gates plus the identity BUFFER.

    NOT and BUFFER are unary; the rest take two inputs.  BUFFER is the
    pass-through gate used to model missing devices and the polarity
    reversal of NOT.
    """

    NOT = "not"
    BUFFER = "buffer"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"

    @property
    def arity(self) -> int:
        return 1 if self in (GateKind.NOT, GateKind.BUFFER) else 2

    def __str__(self) -> str:
        return self.value


GATES_BY_NAME = {kind.value: kind for kind in GateKind}

_UNARY_TRUTH = {
    GateKind.NOT: lambda a: 1 - a,
    GateKind.BUFFER: lambda a: a,
}

_BINARY_TRUTH = {
    GateKind.AND: lambda a, b: a & b,
    GateKind.OR: lambda a, b: a | b,
    GateKind.NAND: lambda a, b: 1 - (a & b),
    GateKind.NOR: lambda a, b: 1 - (a | b),
    GateKind.XOR: lambda a, b: a ^ b,
    GateKind.XNOR: lambda a, b: 1 - (a ^ b),
}


def _check_bit(x: int, name: str) -> int:
    if x not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {x!r}")
    return x


def eval_gate(kind: GateKind, a: int, b: int | None = None) -> int:
    """Standard truth-table value of one gate.

    ``b`` must be supplied exactly when ``kind`` is binary; a mismatch
    raises ``ValueError`` mentioning "gate arity".
    """
    _check_bit(a, "a")
    if kind.arity == 1:
        if b is not None:
            raise ValueError(f"gate arity: {kind} is unary but got two inputs")
        return _UNARY_TRUTH[kind](a)
    if b is None:
        raise ValueError(f"gate arity: {kind} is binary but got one input")
    _check_bit(b, "b")
    return _BINARY_TRUTH[kind](a, b)


@dataclass(frozen=True)
class BitVector:
    """An immutable N-bit binary signal, 1 <= N <= 64.

    Internally bit j is stored at integer bit position j - 1 of ``value``,
    so the leftmost bit of the string form is the least significant stored
    bit.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {self.width}")
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        bits = tuple(bits)
        value = 0
        for j, bit in enumerate(bits, start=1):
            _check_bit(bit, f"bit {j}")
            value |= bit << (j - 1)
        return cls(len(bits), value)

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        return cls.from_bits(int(ch) for ch in text)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (j - 1)) & 1 for j in range(1, self.width + 1))

    def bit(self, j: int) -> int:
        """Bit at 1-based position j."""
        if not 1 <= j <= self.width:
            raise ValueError(f"position {j} out of range 1..{self.width}")
        return (self.value >> (j - 1)) & 1

    def popcount(self) -> int:
        return self.value.bit_count()

    def hamming(self, other: "BitVector") -> int:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")
        return (self.value ^ other.value).bit_count()

    def complement(self) -> "BitVector":
        return BitVector(self.width, self.value ^ ((1 << self.width) - 1))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def encode_int(v: BitVector) -> int:
    """Encode a bit vector as sum_j bits[j] * 2**j (weights start at 2**1)."""
    return v.value << 1


def decode_int(encoded: int, width: int) -> BitVector:
    """Inverse of :func:`encode_int` for a known width."""
    if encoded & 1:
        raise ValueError(f"{encoded} is not a valid encoding (odd)")
    return BitVector(width, encoded >> 1)


@dataclass(frozen=True)
class GateSlot:
    """One gate occupying one position (unary) or the pair (p, p+1) (binary).

    ``position`` is the lowest covered 1-based bit position; binary slots
    must start on an odd position so pairs stay aligned to (2k-1, 2k).
    """

    kind: GateKind
    position: int

    def __post_init__(self) -> None:
        if self.position < 1:
            raise ValueError(f"position {self.position} out of range")
        if self.kind.arity == 2 and self.position % 2 == 0:
            raise ValueError(
                f"alignment: binary gate {self.kind} must start on an odd "
                f"position, got {self.position}"
            )

    @property
    def positions(self) -> tuple[int, ...]:
        if self.kind.arity == 1:
            return (self.position,)
        return (self.position, self.position + 1)


@dataclass(frozen=True)
class Layer:
    """One layer of gate slots, kept sorted by lowest covered position."""

    slots: tuple[GateSlot, ...]

    def __init__(self, slots: Iterable[GateSlot]) -> None:
        ordered = tuple(sorted(slots, key=lambda s: s.position))
        object.__setattr__(self, "slots", ordered)


def _step(v: int, layer: Layer) -> int:
    """One layer applied to a packed Python int, slot by slot."""
    out = 0
    for slot in layer.slots:
        i = slot.position - 1
        if slot.kind.arity == 1:
            out |= _UNARY_TRUTH[slot.kind]((v >> i) & 1) << i
        else:
            out |= _BINARY_TRUTH[slot.kind]((v >> i) & 1, (v >> i + 1) & 1) * (3 << i)
    return out


@dataclass(frozen=True)
class Circuit:
    """An ordered stack of layers over a fixed width.

    Every layer must cover the positions {1, ..., width} exactly once;
    construction validates coverage, ranges, and pair alignment.
    """

    width: int
    layers: tuple[Layer, ...]

    def __init__(self, width: int, layers: Iterable[Layer]) -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "layers", tuple(layers))
        self._validate()

    def _validate(self) -> None:
        if not 1 <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {self.width}")
        if not self.layers:
            raise ValueError("circuit needs at least one layer")
        for li, layer in enumerate(self.layers, start=1):
            covered: set[int] = set()
            for slot in layer.slots:
                for p in slot.positions:
                    if not 1 <= p <= self.width:
                        raise ValueError(
                            f"position {p} out of range 1..{self.width} "
                            f"in layer {li}"
                        )
                    if p in covered:
                        raise ValueError(
                            f"coverage: position {p} covered twice in layer {li}"
                        )
                    covered.add(p)
            missing = set(range(1, self.width + 1)) - covered
            if missing:
                raise ValueError(
                    f"coverage: layer {li} leaves positions "
                    f"{sorted(missing)} uncovered"
                )

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        """Outputs on the words 0, LO, HI and LO|HI: every pair's truth table."""
        full = (1 << self.width) - 1
        lo = full & _LO
        return tuple(reduce(_step, self.layers, w) for w in (0, lo, full & ~lo, full))

    @cached_property
    def _form(self) -> tuple[int, ...]:
        """Per-pair ANF masks: (full, C0, SELF, swap down, swap up, AND low)."""
        full = (1 << self.width) - 1
        lo = full & _LO
        hi = full & ~lo
        y0, ya, yb, yab = self._rows
        da, db = y0 ^ ya, y0 ^ yb
        and_mask = y0 ^ ya ^ yb ^ yab
        # A pair's last binary gate leaves (g, g); unary gates only complement.
        and_low = and_mask & lo
        assert and_mask == and_low | (and_low << 1)
        return full, y0, (da & lo) | (db & hi), db & lo, (da & hi) >> 1, and_low

    def evaluate_packed(self, value):
        """Evaluate on a packed integer (or numpy uint64 array) of bits.

        Works identically for a Python int and for an ndarray of dtype
        uint64, which is what the sampler's batched rejection loop uses;
        ``value`` must fit in ``width`` bits.  Output bit x with partner y
        is ``C0 ^ (x & SELF) ^ (y & SWAP) ^ (x & y & AND)``, exact for every
        pair (see the module docstring), so the cost does not grow with
        depth.  Zero terms are skipped: the identity returns ``value``.
        """
        full, c0, keep, down, up, pair_and = self._form
        terms = [value if keep == full else value & keep] if keep else []
        if down:
            terms.append((value >> 1) & down)
        if up:
            terms.append((value & up) << 1)
        if pair_and:  # a & b lands on each low bit; * 3 copies it to the high bit
            terms.append((value & (value >> 1) & pair_and) * 3)
        out = reduce(operator.xor, terms) if terms else value & 0
        return out ^ c0 if c0 else out

    @cached_property
    def _nearest_tables(self) -> tuple[list[tuple[int, int]], ...]:
        """Per output byte: nearest reachable (distance, value) for each target byte.

        A pair can produce exactly the values its four truth-table rows hold,
        and pairs are independent, so a byte's table combines the tables of
        its (up to four) pairs.  An odd width ends in a one-bit pair.
        """
        tables = []
        for base in range(0, self.width, 8):
            table = [(0, 0)]
            for shift in range(0, min(8, self.width - base), 2):
                image = {(row >> base + shift) & 3 for row in self._rows}
                bits = min(2, self.width - base - shift)
                pair = [min(((t ^ v).bit_count(), v) for v in image)
                        for t in range(1 << bits)]
                table = [(d + pd, o | po << shift) for pd, po in pair for d, o in table]
            tables.append(table)
        return tuple(tables)

    @cached_property
    def covering_radius(self) -> int:
        """Largest distance from any ``width``-bit target to its nearest output.

        0 exactly when the circuit is a bijection; every target lies within
        this Hamming distance of some output.
        """
        return sum(max(d for d, _ in table) for table in self._nearest_tables)

    def nearest(self, target: int) -> tuple[int, int]:
        """Hamming distance from ``target`` to its nearest output, and that output.

        Exact over all 2**width inputs: each pair independently takes its
        reachable value nearest the target's two bits, ties going to the
        smaller value.
        """
        distance = output = 0
        for i, table in enumerate(self._nearest_tables):
            d, o = table[(target >> 8 * i) & 0xFF]
            distance += d
            output |= o << 8 * i
        return distance, output

    def evaluate(self, v: BitVector) -> BitVector:
        if v.width != self.width:
            raise ValueError(
                f"width mismatch: input has {v.width} bits, "
                f"circuit expects {self.width}"
            )
        return BitVector(self.width, int(self.evaluate_packed(v.value)))

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        """Evaluate on an array of packed inputs, dtype uint64."""
        return self.evaluate_packed(values.astype(np.uint64, copy=False))

    def slot_at(self, layer_index: int, position: int) -> GateSlot:
        """Slot whose lowest covered position is ``position`` (1-based layer)."""
        if not 1 <= layer_index <= len(self.layers):
            raise ValueError(f"slot: layer {layer_index} out of range")
        for slot in self.layers[layer_index - 1].slots:
            if slot.position == position:
                return slot
        raise ValueError(
            f"slot: no slot starts at position {position} in layer {layer_index}"
        )

    @property
    def gate_names(self) -> tuple[str, ...]:
        names = {slot.kind.value for layer in self.layers for slot in layer.slots}
        return tuple(sorted(names))


def unary_layer(kind: GateKind, width: int) -> Layer:
    """A layer applying one unary gate to every position."""
    if kind.arity != 1:
        raise ValueError(f"gate arity: {kind} is not unary")
    return Layer(GateSlot(kind, p) for p in range(1, width + 1))


def pair_layer(kind: GateKind, width: int) -> Layer:
    """A layer applying one binary gate to every aligned pair."""
    if kind.arity != 2:
        raise ValueError(f"gate arity: {kind} is not binary")
    if width % 2:
        raise ValueError(f"alignment: pair layer needs even width, got {width}")
    return Layer(GateSlot(kind, p) for p in range(1, width + 1, 2))


def identity_circuit(width: int) -> Circuit:
    """All-BUFFER single-layer circuit: the identity map."""
    return Circuit(width, [unary_layer(GateKind.BUFFER, width)])
