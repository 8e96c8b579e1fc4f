import math
import random

import numpy as np
import pytest

from ganfault.circuit import (
    BitVector,
    Circuit,
    GateKind,
    GateSlot,
    Layer,
    pair_layer,
    unary_layer,
)
from ganfault.faults import (
    COMPLEMENT,
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
from ganfault import sampler
from ganfault.sampler import _flip_limits, _flip_masks

from conftest import random_circuit


def test_missing_on_all_not_layer():
    c = Circuit(4, [unary_layer(GateKind.NOT, 4)])
    faulty = inject(c, Missing(1, 1))
    # NOT flips bits 2-4, BUFFER keeps bit 1.
    assert str(faulty.evaluate(BitVector.from_string("1111"))) == "1000"
    assert c.evaluate(BitVector.from_string("1111")) == BitVector.from_string("0000")


def test_missing_on_binary_slot_buffers_both_positions():
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    faulty = inject(c, Missing(1, 1))
    for s in ("00", "01", "10", "11"):
        v = BitVector.from_string(s)
        assert faulty.evaluate(v) == v


def test_swap_and_for_or():
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    faulty = inject(c, Swap(1, 1, GateKind.OR))
    assert str(faulty.evaluate(BitVector.from_string("10"))) == "11"
    assert str(c.evaluate(BitVector.from_string("10"))) == "00"


def test_reversed_polarity_xor():
    c = Circuit(2, [pair_layer(GateKind.XOR, 2)])
    faulty = inject(c, ReversedPolarity(1, 1))
    assert str(faulty.evaluate(BitVector.from_string("00"))) == "11"
    assert str(c.evaluate(BitVector.from_string("00"))) == "00"


def test_inject_does_not_mutate_original():
    c = Circuit(4, [unary_layer(GateKind.NOT, 4)])
    before = c.layers
    inject(c, Missing(1, 2))
    assert c.layers == before


def test_missing_idempotent():
    rng = random.Random(3)
    for _ in range(40):
        c = random_circuit(rng)
        layer = rng.randrange(len(c.layers)) + 1
        slot = rng.choice(c.layers[layer - 1].slots)
        once = inject(c, Missing(layer, slot.position))
        twice = inject(once, Missing(layer, slot.position))
        assert once == twice


def test_reversed_polarity_is_involution():
    assert all(COMPLEMENT[COMPLEMENT[k]] is k for k in GateKind)
    rng = random.Random(4)
    for _ in range(40):
        c = random_circuit(rng)
        layer = rng.randrange(len(c.layers)) + 1
        slot = rng.choice(c.layers[layer - 1].slots)
        f = ReversedPolarity(layer, slot.position)
        assert inject(inject(c, f), f) == c


def test_inject_preserves_shape():
    rng = random.Random(5)
    for _ in range(40):
        c = random_circuit(rng)
        layer = rng.randrange(len(c.layers)) + 1
        slot = rng.choice(c.layers[layer - 1].slots)
        faulty = inject(c, Missing(layer, slot.position))
        assert faulty.width == c.width
        assert len(faulty.layers) == len(c.layers)


def test_bad_slot_reference():
    c = Circuit(4, [unary_layer(GateKind.NOT, 4)])
    with pytest.raises(ValueError, match="slot"):
        inject(c, Missing(2, 1))
    with pytest.raises(ValueError, match="slot"):
        inject(c, Missing(1, 9))
    c2 = Circuit(2, [pair_layer(GateKind.AND, 2)])
    with pytest.raises(ValueError, match="slot"):
        inject(c2, Missing(1, 2))  # slot starts at 1, not 2


def test_swap_arity_mismatch():
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    with pytest.raises(ValueError, match="arity"):
        inject(c, Swap(1, 1, GateKind.NOT))
    c2 = Circuit(1, [unary_layer(GateKind.NOT, 1)])
    with pytest.raises(ValueError, match="arity"):
        inject(c2, Swap(1, 1, GateKind.XOR))


def test_inject_rejects_perturbation():
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    with pytest.raises(ValueError, match="slot"):
        inject(c, InputPerturbation(0.5))
    # inject_all skips perturbations instead.
    assert inject_all(c, (InputPerturbation(0.5),)) == c


def test_fault_grammar_roundtrip():
    specs = (
        Missing(1, 3),
        Swap(2, 1, GateKind.BUFFER),
        ReversedPolarity(1, 5),
        InputPerturbation(0.125),
    )
    text = format_fault_list(specs)
    assert text == "missing:L1.S3,swap:L2.S1:buffer,reverse:L1.S5,flip:0.125"
    assert parse_fault_list(text) == specs
    assert parse_fault_list("") == ()
    for spec in specs:
        assert parse_fault(format_fault(spec)) == spec


@pytest.mark.parametrize(
    "text", ["missing:1.2", "swap:L1.S1", "swap:L1.S1:foo", "flip:x", "bogus", "flip:1.5"]
)
def test_fault_grammar_rejects(text):
    with pytest.raises(ValueError):
        parse_fault(text)


def _flips(raw: np.ndarray, width: int, *probs: float) -> np.ndarray:
    return _flip_masks(raw, width, _flip_limits(probs), 0)


def test_perturb_identity_and_certain_flip():
    rng = np.random.default_rng(0)
    for width in (4, 64):
        ones = (1 << width) - 1
        values = np.array([[0, 0b1010, 0b0110, ones]], dtype=np.uint64)
        raw = rng.bit_generator.random_raw((1, 2 * 4 * width))
        raw[0, :2] = 0, 2**64 - 1  # the smallest and largest uniform
        first = raw[:, : 4 * width]
        assert np.array_equal(values ^ _flips(first, width, 0.0), values)
        assert np.array_equal(values ^ _flips(first, width, 1.0), values ^ np.uint64(ones))
        # Two certain flips cancel.
        assert np.array_equal(values ^ _flips(raw, width, 1.0, 1.0), values)


def test_perturb_consumes_exactly_width_draws():
    # Each flip fault draws one uniform per bit of every value in the batch,
    # value by value, and reads it as numpy's random() does.
    probs = (0.3, 0.0, 1.0)
    calls, _, _ = sampler._layout(6, 5, len(probs), False)
    flips = [seg for _, segs in calls for seg in segs if isinstance(seg[0], slice)]
    assert sum(hi - lo for *_, lo, hi in flips) == 3 * 5 * 6
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    raw = a.bit_generator.random_raw((1, 3 * 5 * 6))
    below = b.random((3, 5, 6)) < np.array(probs)[:, None, None]
    weights = np.uint64(1) << np.arange(6, dtype=np.uint64)
    expected = np.bitwise_xor.reduce((below * weights).sum(axis=2, dtype=np.uint64))
    assert np.array_equal(_flips(raw, 6, *probs)[0], expected)
    assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


def test_perturb_mean_hamming_matches_binomial():
    # Binomial oracle: mean flips of Binomial(8, 0.5) is 4, sample-mean sigma
    # over 10^4 trials is sqrt(8 * 0.25) / 100.
    rng = np.random.default_rng(2024)
    trials = 10_000
    values = np.full((trials, 1), BitVector.from_string("10110100").value, dtype=np.uint64)
    flipped = values ^ _flips(rng.bit_generator.random_raw((trials, 8)), 8, 0.5)
    mean = float(np.bitwise_count(flipped ^ values).mean())
    sigma = math.sqrt(8 * 0.25 / trials)
    assert abs(mean - 4.0) <= 3 * sigma
