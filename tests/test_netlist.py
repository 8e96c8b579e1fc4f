import random

import pytest

from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
from ganfault.netlist import NetlistError, parse_netlist, serialize_netlist

from conftest import random_circuit

ALL_NOT_4 = "width 4\nlayer\nnot 1\nnot 2\nnot 3\nnot 4\n"


def test_parse_all_not():
    c = parse_netlist(ALL_NOT_4)
    assert c == Circuit(4, [unary_layer(GateKind.NOT, 4)])


def test_parse_binary_layer():
    c = parse_netlist("width 4\nlayer\nand 1 2\nor 3 4\n")
    slots = c.layers[0].slots
    assert [(s.kind, s.position) for s in slots] == [
        (GateKind.AND, 1),
        (GateKind.OR, 3),
    ]


def test_comments_and_blank_lines():
    text = "# a circuit\n\nwidth 2   # two bits\nlayer\n  and 1 2\n\n# done\n"
    c = parse_netlist(text)
    assert c == Circuit(2, [pair_layer(GateKind.AND, 2)])


def test_serialize_canonical_form():
    c = Circuit(4, [unary_layer(GateKind.NOT, 4)])
    assert serialize_netlist(c) == ALL_NOT_4


def test_serialize_two_layers_in_order():
    c = Circuit(2, [pair_layer(GateKind.AND, 2), unary_layer(GateKind.NOT, 2)])
    assert serialize_netlist(c) == "width 2\nlayer\nand 1 2\nlayer\nnot 1\nnot 2\n"


def test_roundtrip_fixpoint():
    text = "# comment\nwidth 6\nlayer\nxor 3 4\nbuffer 6\nnot 5\nand 1 2\n"
    c = parse_netlist(text)
    canonical = serialize_netlist(c)
    assert parse_netlist(canonical) == c
    assert serialize_netlist(parse_netlist(canonical)) == canonical


#: (netlist text, word its message holds, line it is reported at); test ids
#: stay "text-word"
DIAGNOSTICS = [
    ("width 4\nlayer\nand 1 2\n", "coverage", 4),
    ("width 4\nlayer\nfoo 1\n", "unknown gate", 3),
    ("width 4\nlayer\nnot 9\n", "position", 3),
    ("width 4\nlayer\nand 2 3\nnot 1\nnot 4\n", "alignment", 3),
    ("width 4\nlayer\nand 1 3\nnot 2\nnot 4\n", "alignment", 3),
    ("width 4\nlayer\nnot 1\nnot 1\nnot 2\nnot 3\nnot 4\n", "coverage", 4),
    ("layer\nnot 1\n", "width", 1),
    ("width 4\nwidth 4\n", "duplicate width", 2),
    ("width 0\n", "range", 1),
    ("width 4\nnot 1\n", "layer", 2),
    ("width 4\nlayer\nand 1\n", "arity", 3),
    ("width x\n", "integer", 1),
    ("", "width", 1),
    ("width 3\nlayer\nnot 1\nand 3 4\n", "position", 4),
]


@pytest.mark.parametrize(
    "text,needle,line",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in DIAGNOSTICS],
)
def test_diagnostics(text, needle, line):
    with pytest.raises(NetlistError) as info:
        parse_netlist(text)
    assert needle in str(info.value)
    assert "line" in str(info.value)
    assert info.value.line == line


def test_random_roundtrip():
    rng = random.Random(42)
    for _ in range(300):
        c = random_circuit(rng)
        text = serialize_netlist(c)
        assert parse_netlist(text) == c
        assert serialize_netlist(parse_netlist(text)) == text


def test_fuzz_never_crashes():
    rng = random.Random(9)
    tokens = ["width", "layer", "not", "and", "or", "4", "1", "2", "#", "\n", " ", "-1"]
    for _ in range(2000):
        if rng.random() < 0.5:
            text = bytes(rng.randrange(256) for _ in range(rng.randrange(80)))
            text = text.decode("latin-1")
        else:
            text = "".join(rng.choice(tokens) + rng.choice([" ", "\n"])
                           for _ in range(rng.randrange(30)))
        try:
            c = parse_netlist(text)
            assert isinstance(c, Circuit)
        except NetlistError as exc:
            assert isinstance(exc.line, int)
