"""Line-oriented text format for circuits (``.ckt`` files).

Grammar::

    width <N>          # once, before any layer
    layer              # opens a layer block
    <gate> <pos>       # unary slot: gate in {not, buffer}
    <gate> <pos> <pos+1>   # binary slot on an aligned pair, pos odd

Gate names are lowercase; positions are 1-based.  ``#`` starts a comment;
blank lines are ignored.  :func:`serialize_netlist` emits the canonical
form (slots sorted by lowest position, no comments), and parsing is its
exact inverse.

The parser checks the text: keywords, integers, gate names, arity, that a
binary gate names two adjacent positions, and the width bound.  The rules
of a layer's structure belong to the circuit: :class:`GateSlot` checks
that positions start at 1 and binary gates start on an odd position, and
:func:`layer_fault` that each position lies in 1..width and belongs to
exactly one slot.  Their faults are reported at the line of the slot at
fault, or at the line that closes the layer when a position has no slot.
"""

from __future__ import annotations

from .circuit import GATES_BY_NAME, MAX_WIDTH, Circuit, GateSlot, Layer, layer_fault


class NetlistError(ValueError):
    """Parse or structure error, carrying the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} at line {line}")
        self.line = line


def parse_netlist(text: str) -> Circuit:
    """Parse netlist text into a validated :class:`Circuit`.

    Any malformed input raises :class:`NetlistError` with a line number;
    no other exception escapes for arbitrary string input.
    """
    width: int | None = None
    layers: list[Layer] = []
    open_slots: list[GateSlot] | None = None
    slot_lines: list[int] = []

    def close_layer(line: int) -> None:
        nonlocal open_slots
        if open_slots is None:
            return
        fault = layer_fault(width, open_slots)
        if fault is not None:
            message, index = fault
            raise NetlistError(message, (slot_lines + [line])[index])
        layers.append(Layer(open_slots))
        open_slots = None

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "width":
            if width is not None:
                raise NetlistError("duplicate width declaration", lineno)
            if open_slots is not None or layers:
                raise NetlistError("width must precede layer blocks", lineno)
            if len(tokens) != 2:
                raise NetlistError("width takes one integer", lineno)
            width = _int_token(tokens[1], lineno)
            if not 1 <= width <= MAX_WIDTH:
                raise NetlistError(f"width {width} out of range 1..{MAX_WIDTH}", lineno)
        elif key == "layer":
            if len(tokens) != 1:
                raise NetlistError("layer takes no arguments", lineno)
            if width is None:
                raise NetlistError("layer before width declaration", lineno)
            close_layer(lineno)
            open_slots, slot_lines = [], []
        else:
            if width is None or open_slots is None:
                raise NetlistError(f"slot line outside a layer block: {key!r}", lineno)
            open_slots.append(_parse_slot(tokens, lineno))
            slot_lines.append(lineno)
    close_layer(lineno + 1)
    if width is None:
        raise NetlistError("missing width declaration", max(lineno, 1))
    if not layers:
        raise NetlistError("document has no layer blocks", max(lineno, 1))
    return Circuit(width, layers)


def _int_token(token: str, lineno: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise NetlistError(f"expected integer, got {token!r}", lineno) from None


def _parse_slot(tokens: list[str], lineno: int) -> GateSlot:
    kind = GATES_BY_NAME.get(tokens[0])
    if kind is None:
        raise NetlistError(f"unknown gate {tokens[0]!r}", lineno)
    positions = [_int_token(t, lineno) for t in tokens[1:]]
    if len(positions) != kind.arity:
        raise NetlistError(
            f"gate arity: {kind} takes {kind.arity} position(s), "
            f"got {len(positions)}",
            lineno,
        )
    if kind.arity == 2 and positions[1] != positions[0] + 1:
        raise NetlistError(
            f"alignment: binary gate needs an aligned pair "
            f"(odd, odd+1), got ({positions[0]}, {positions[1]})",
            lineno,
        )
    try:
        return GateSlot(kind, positions[0])
    except ValueError as exc:
        raise NetlistError(str(exc), lineno) from None


def serialize_netlist(circuit: Circuit) -> str:
    """Canonical text form of a circuit; ``parse_netlist`` is its inverse."""
    lines = [f"width {circuit.width}"]
    for layer in circuit.layers:
        lines.append("layer")
        for slot in layer.slots:  # already sorted by position
            lines.append(" ".join([slot.kind.value] + [str(p) for p in slot.positions]))
    return "\n".join(lines) + "\n"
