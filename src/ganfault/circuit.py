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
all four truth-table rows of every pair at once.  As whole words they give
the masks C0, SELF, SWAP and AND, which evaluate any input in a few word
operations.  Pair by pair they give :attr:`Circuit.pair_table`, from which
:meth:`Circuit.nearest` finds the output nearest any target exactly.

Because no term leaves its pair, the same masks moved up by s bits
evaluate an input held s bits up in a wider lane, whatever the bits below
it hold: the result is the output moved up by s, with zeros below.  The
sampler evaluates its random draws that way, in the 32- or 64-bit lanes
they were drawn in (``shift`` of :meth:`Circuit.evaluate_packed`).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

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


def layer_fault(width: int, slots: Sequence[GateSlot]) -> tuple[str, int] | None:
    """The first structural fault of one layer's slots, or None.

    Returns the message and the index of the slot at fault: a position out
    of range 1..width or covered twice is the fault of the slot naming it,
    and positions left uncovered are the fault of the layer as a whole,
    reported at index ``len(slots)``.
    """
    covered: set[int] = set()
    for i, slot in enumerate(slots):
        for p in slot.positions:
            if not 1 <= p <= width:
                return f"position {p} out of range 1..{width}", i
            if p in covered:
                return f"coverage: position {p} covered twice", i
            covered.add(p)
    missing = set(range(1, width + 1)) - covered
    if missing:
        return f"coverage: positions {sorted(missing)} uncovered", len(slots)
    return None


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
            fault = layer_fault(self.width, layer.slots)
            if fault is not None:
                raise ValueError(f"{fault[0]} in layer {li}")

    @cached_property
    def _rows(self) -> tuple[int, ...]:
        """Outputs on the words 0, LO, HI and LO|HI: every pair's truth table."""
        full = (1 << self.width) - 1
        lo = full & _LO
        return tuple(reduce(_step, self.layers, w) for w in (0, lo, full & ~lo, full))

    @cached_property
    def _form(self) -> tuple[int, ...]:
        """Word-parallel ANF masks: (full, C0, SELF, swap down, swap up, AND low)."""
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

    def _masks(self, shift: int) -> tuple[int, ...]:
        """:attr:`_form`'s masks for inputs held ``shift`` bits up their lane.

        Every term stays inside its pair, so moving all masks up by the same
        offset moves the map with them, and the masks leave the bits below
        the offset out.  ``full``, the bits an input may hold unmasked, is 0
        at a non-zero offset, where the bits below the input may be set.
        """
        full, *masks = self._form
        return (0 if shift else full, *(m << shift for m in masks))

    def evaluate_packed(self, value, shift: int = 0, xor=None):
        """Evaluate on a packed integer (or numpy array of unsigned lanes).

        Works identically for a Python int and for an ndarray of dtype
        uint64 or uint32, which is what the sampler's batched rejection loop
        uses.  With ``shift`` 0, ``value`` must fit in ``width`` bits.  With
        ``shift`` s, ``value`` holds the input in bits s..s+width-1 of its
        lane and anything below; the output is then the output at shift 0
        moved up by s, with zeros below.  Output bit x with partner y is
        ``C0 ^ (x & SELF) ^ (y & SWAP) ^ (x & y & AND)``, exact for every
        pair (see the module docstring), so the cost does not grow with
        depth.  ``xor``, when given, is XORed into the output with the
        constant C0.  Zero terms are skipped: at shift 0 the identity returns
        ``value``.
        """
        full, c0, keep, down, up, pair_and = self._masks(shift)
        terms = [value if keep == full else value & keep] if keep else []
        if down:
            terms.append((value >> 1) & down)
        if up:
            terms.append((value & up) << 1)
        if pair_and:  # a & b lands on each low bit; * 3 copies it to the high bit
            terms.append((value & (value >> 1) & pair_and) * 3)
        out = reduce(operator.xor, terms) if terms else value & 0
        if xor is not None:
            return out ^ (xor ^ c0)
        return out ^ c0 if c0 else out

    @cached_property
    def pair_table(self) -> np.ndarray:
        """Read-only: row k is pair k's output on its inputs 0..3 (bit 2k+1 low).

        At odd width the last pair is bit N alone: columns 2 and 3 repeat 0 and 1.
        """
        table = np.array([[row >> k & 3 for row in self._rows]
                          for k in range(0, self.width, 2)], dtype=np.uint8)
        table.flags.writeable = False
        return table

    def _pair_nearest(self) -> np.ndarray:
        """Row k, column t: pair k's reachable value nearest t, the smaller on a tie."""
        reach = self.pair_table[:, None, :]
        targets = np.arange(4, dtype=np.uint8)[:, None]
        return (np.bitwise_count(targets ^ reach) * 4 + reach).min(axis=2) & 3

    @cached_property
    def covering_radius(self) -> int:
        """Largest distance from any ``width``-bit target to its nearest output.

        0 exactly when the circuit is a bijection; every target lies within
        this Hamming distance of some output.
        """
        distance = np.bitwise_count(self._pair_nearest() ^ np.arange(4, dtype=np.uint8))
        if self.width % 2:  # the one-bit last pair has only the targets 0 and 1
            distance[-1, 2:] = 0
        return int(distance.max(axis=1).sum())

    def nearest(self, target):
        """Hamming distance from ``target`` to its nearest output, and that output.

        Exact over all 2**width inputs: each pair independently takes its
        reachable value nearest the target's two bits (:attr:`pair_table`),
        ties going to the smaller value.  Works identically for an int
        (giving numpy scalars) and for an ndarray of uint64 targets (giving
        arrays), which is what the sampler's unreachable-target screen uses.
        """
        shifts = np.arange(0, self.width, 2, dtype=np.uint64)
        target = np.asarray(target, dtype=np.uint64)
        pairs = target[..., None] >> shifts & np.uint64(3)
        value = self._pair_nearest()[np.arange(len(shifts)), pairs]
        output = np.bitwise_or.reduce(value.astype(np.uint64) << shifts, axis=-1)
        return np.bitwise_count(target ^ output).astype(np.int64), output

    def evaluate(self, v: BitVector) -> BitVector:
        if v.width != self.width:
            raise ValueError(
                f"width mismatch: input has {v.width} bits, "
                f"circuit expects {self.width}"
            )
        return BitVector(self.width, int(self.evaluate_packed(v.value)))

    def evaluate_batch(
        self, values: np.ndarray, shift: int = 0, xor: np.ndarray | None = None
    ) -> np.ndarray:
        """Evaluate on a flat array of packed inputs, as :meth:`evaluate_packed`.

        ``values`` are uint32 lanes, or are read as uint64.  With ``xor``, an
        array of one value per row, ``values`` hold ``len(xor)`` rows of
        equal length, and each row's outputs come XORed with its value, as
        an array of shape (rows, inputs per row).
        """
        if values.dtype != np.uint32:
            values = values.astype(np.uint64, copy=False)
        if xor is not None:
            values, xor = values.reshape(len(xor), -1), xor[:, None]
        return self.evaluate_packed(values, shift, xor)

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
