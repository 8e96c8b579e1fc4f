import itertools
import random

import numpy as np
import pytest

from ganfault.circuit import (
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

from ganfault.faults import Missing, ReversedPolarity, Swap, inject

from conftest import random_circuit, random_layer


def test_gate_truth_tables():
    assert eval_gate(GateKind.AND, 1, 1) == 1
    assert eval_gate(GateKind.NAND, 1, 1) == 0
    assert eval_gate(GateKind.XNOR, 0, 0) == 1
    assert eval_gate(GateKind.NOT, 1) == 0
    assert eval_gate(GateKind.BUFFER, 1) == 1
    for a in (0, 1):
        for b in (0, 1):
            assert eval_gate(GateKind.AND, a, b) == (a and b)
            assert eval_gate(GateKind.OR, a, b) == (a or b)
            assert eval_gate(GateKind.XOR, a, b) == (a ^ b)
            assert eval_gate(GateKind.NAND, a, b) == 1 - (a and b)
            assert eval_gate(GateKind.NOR, a, b) == 1 - (a or b)
            assert eval_gate(GateKind.XNOR, a, b) == 1 - (a ^ b)


def test_gate_arity_errors():
    with pytest.raises(ValueError, match="gate arity"):
        eval_gate(GateKind.NOT, 1, 0)
    with pytest.raises(ValueError, match="gate arity"):
        eval_gate(GateKind.AND, 1)
    with pytest.raises(ValueError):
        eval_gate(GateKind.AND, 2, 0)


def test_polarity_complement_pairs():
    pairs = [
        (GateKind.AND, GateKind.NAND),
        (GateKind.OR, GateKind.NOR),
        (GateKind.XOR, GateKind.XNOR),
    ]
    for g, gc in pairs:
        for a in (0, 1):
            for b in (0, 1):
                assert eval_gate(gc, a, b) == 1 - eval_gate(g, a, b)


def test_bitvector_basics():
    v = BitVector.from_string("1010")
    assert v.width == 4
    assert v.bits == (1, 0, 1, 0)
    assert v.bit(1) == 1 and v.bit(3) == 1
    assert str(v) == "1010"
    assert v == BitVector.from_bits([1, 0, 1, 0])
    assert v != BitVector.from_string("10100")
    with pytest.raises(ValueError):
        BitVector.from_bits([0, 2])
    with pytest.raises(ValueError):
        BitVector(0, 0)
    with pytest.raises(ValueError):
        BitVector(65, 0)


def test_encode_int_examples():
    assert encode_int(BitVector.from_string("1010")) == 10
    assert encode_int(BitVector.from_string("0000")) == 0
    assert encode_int(BitVector.from_string("1111")) == 30
    assert decode_int(10, 4) == BitVector.from_string("1010")


def test_encode_int_injective_per_width():
    for width in (1, 4, 10):
        seen = {encode_int(BitVector(width, v)) for v in range(1 << width)}
        assert len(seen) == 1 << width
        assert max(seen) == (1 << (width + 1)) - 2


def test_all_not_layer():
    c = Circuit(4, [unary_layer(GateKind.NOT, 4)])
    assert str(c.evaluate(BitVector.from_string("1010"))) == "0101"


def test_and_pair_layer():
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    assert str(c.evaluate(BitVector.from_string("11"))) == "11"
    assert str(c.evaluate(BitVector.from_string("10"))) == "00"


def test_two_layer_composition():
    c = Circuit(2, [pair_layer(GateKind.AND, 2), unary_layer(GateKind.NOT, 2)])
    # AND writes 1 to both positions, NOT flips both.
    assert str(c.evaluate(BitVector.from_string("11"))) == "00"
    assert str(c.evaluate(BitVector.from_string("01"))) == "11"


def test_identity_circuit():
    c = identity_circuit(6)
    for value in range(1 << 6):
        v = BitVector(6, value)
        assert c.evaluate(v) == v


def test_evaluate_is_pure():
    rng = random.Random(7)
    c = random_circuit(rng, 8)
    v = BitVector(8, rng.randrange(1 << 8))
    assert c.evaluate(v) == c.evaluate(v)


def test_width_mismatch():
    c = identity_circuit(4)
    with pytest.raises(ValueError, match="width"):
        c.evaluate(BitVector.from_string("10101"))


def test_coverage_validation():
    with pytest.raises(ValueError, match="coverage"):
        Circuit(4, [Layer([GateSlot(GateKind.AND, 1)])])
    with pytest.raises(ValueError, match="coverage"):
        Circuit(2, [Layer([GateSlot(GateKind.NOT, 1), GateSlot(GateKind.NOT, 1)])])
    with pytest.raises(ValueError, match="position"):
        Circuit(2, [Layer([GateSlot(GateKind.NOT, 1), GateSlot(GateKind.NOT, 3)])])
    with pytest.raises(ValueError, match="alignment"):
        GateSlot(GateKind.AND, 2)
    with pytest.raises(ValueError):
        Circuit(4, [])


def test_binary_slot_fills_both_positions():
    c = Circuit(
        4,
        [Layer([GateSlot(GateKind.XOR, 1), GateSlot(GateKind.BUFFER, 3),
                GateSlot(GateKind.BUFFER, 4)])],
    )
    out = c.evaluate(BitVector.from_string("1001"))
    assert out.bits == (1, 1, 0, 1)


def test_batch_matches_scalar_evaluation():
    rng = random.Random(123)
    for _ in range(60):
        c = random_circuit(rng)
        n = c.width
        values = [rng.randrange(1 << n) for _ in range(50)]
        batch = c.evaluate_batch(np.array(values, dtype=np.uint64))
        for v, got in zip(values, batch):
            assert int(got) == c.evaluate(BitVector(n, v)).value


def reference_evaluate(c: Circuit, value: int) -> int:
    """Walk the layers slot by slot with eval_gate: the test's own oracle."""
    bits = [(value >> i) & 1 for i in range(c.width)]
    for layer in c.layers:
        out = [None] * c.width
        for slot in layer.slots:
            i = slot.position - 1
            if slot.kind.arity == 1:
                out[i] = eval_gate(slot.kind, bits[i])
            else:
                out[i] = out[i + 1] = eval_gate(slot.kind, bits[i], bits[i + 1])
        bits = out
    return sum(bit << i for i, bit in enumerate(bits))


def _faulted_variants(rng: random.Random, c: Circuit):
    """The circuit plus one injection of each structural fault kind."""
    yield c
    for fault_kind in (Missing, ReversedPolarity, Swap):
        li = rng.randint(1, len(c.layers))
        slot = rng.choice(c.layers[li - 1].slots)
        if fault_kind is Swap:
            others = [k for k in GateKind
                      if k.arity == slot.kind.arity and k is not slot.kind]
            yield inject(c, Swap(li, slot.position, rng.choice(others)))
        else:
            yield inject(c, fault_kind(li, slot.position))


def test_evaluation_matches_slot_by_slot_oracle():
    rng = random.Random(2024)
    depths = itertools.cycle(range(1, 13))
    for width in list(range(1, 17)) + [31, 32, 63, 64]:
        full = (1 << width) - 1
        for depth in itertools.islice(depths, 4):
            base = Circuit(width, [random_layer(rng, width) for _ in range(depth)])
            for c in _faulted_variants(rng, base):
                values = [0, full, 1 << (width - 1)]
                values += [rng.randrange(1 << width) | (1 << (width - 1))
                           for _ in range(3)]
                values += [rng.randrange(1 << width) for _ in range(6)]
                expected = [reference_evaluate(c, v) for v in values]
                got = [c.evaluate(BitVector(width, v)).value for v in values]
                assert got == expected
                batch = c.evaluate_batch(np.array(values, dtype=np.uint64))
                assert batch.dtype == np.uint64 and batch.shape == (len(values),)
                assert [int(x) for x in batch] == expected


def test_lane_evaluation_is_the_evaluation_moved_up():
    # The sampler evaluates each input where its raw draw holds it: the top
    # w bits of a 32-bit lane (w <= 32) or of a 64-bit one, above random
    # bits.  Every mask must move up with the input and leave those bits out.
    rng = random.Random(77)
    draws = np.random.default_rng(77)
    for width in range(1, 65):
        full = (1 << width) - 1
        for c in _faulted_variants(rng, random_circuit(rng, width)):
            values = draws.integers(0, full, 64, dtype=np.uint64, endpoint=True)
            values[:2] = 0, full
            expected = c.evaluate_batch(values)
            for lane, dtype in ((32, np.uint32), (64, np.uint64)):
                if width > lane:
                    continue
                shift = lane - width
                below = draws.integers(0, (1 << shift) - 1, 64, dtype=np.uint64,
                                       endpoint=True)
                below[:2] = (1 << shift) - 1, 0
                lanes = ((values << np.uint64(shift)) | below).astype(dtype)
                moved = (expected << np.uint64(shift)).astype(dtype)
                got = c.evaluate_batch(lanes, shift)
                assert got.dtype == dtype and np.array_equal(got, moved), (width, lane)
                # A reference per row of 8 is folded in with the constant.
                refs = lanes[::8]
                got = c.evaluate_batch(lanes, shift, refs)
                assert got.dtype == dtype and np.array_equal(
                    got, moved.reshape(8, 8) ^ refs[:, None]
                ), (width, lane)


def test_nearest_matches_brute_force_over_all_inputs():
    rng = random.Random(4242)
    for width in range(1, 11):
        targets = np.arange(1 << width, dtype=np.uint64)
        for _ in range(3):
            for c in _faulted_variants(rng, random_circuit(rng, width)):
                image = np.unique(c.evaluate_batch(targets))
                reachable = set(image.tolist())
                xor = targets[:, None] ^ image[None, :]
                distances = np.bitwise_count(xor).min(axis=1)
                for t, expected in enumerate(distances.tolist()):
                    distance, output = c.nearest(t)
                    assert distance == expected
                    assert output in reachable and (output ^ t).bit_count() == distance
                # All targets as one array take the same code.
                got, outputs = c.nearest(targets)
                assert outputs.dtype == np.uint64
                assert got.tolist() == distances.tolist()
                assert outputs.tolist() == [c.nearest(t)[1] for t in range(1 << width)]
                assert c.covering_radius == int(distances.max())


def test_nearest_breaks_ties_toward_the_smaller_value():
    # AND fills its pair with a & b: the outputs are 00 and 11 only, and 01
    # and 10 lie one bit from both.
    c = Circuit(2, [pair_layer(GateKind.AND, 2)])
    assert [c.nearest(t) for t in range(4)] == [(0, 0), (1, 0), (1, 0), (0, 3)]
    assert c.covering_radius == 1
    assert identity_circuit(7).covering_radius == 0


def test_pair_table_rows_are_each_pair_evaluated_alone():
    # Row k, column v is pair k's output bits when only its input bits hold
    # v; the one-bit last pair at odd width reads bit 2 of v as absent.
    rng = random.Random(1717)
    for width in list(range(1, 17)) + [33, 63, 64]:
        full = (1 << width) - 1
        for c in _faulted_variants(rng, random_circuit(rng, width)):
            table = c.pair_table
            assert table.dtype == np.uint8 and table.shape == ((width + 1) // 2, 4)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1
            for k, row in enumerate(table.tolist()):
                outputs = [reference_evaluate(c, v << 2 * k & full) for v in range(4)]
                assert row == [out >> 2 * k & 3 for out in outputs], (width, k)


def test_constant_circuit_batch_keeps_shape():
    # XOR then XOR outputs 00 and XOR then XNOR outputs 11 whatever the input,
    # so the compiled form has no input-dependent term at all.
    values = np.array([0, 1, 2, 3], dtype=np.uint64)
    for second, expected in ((GateKind.XOR, 0), (GateKind.XNOR, 3)):
        c = Circuit(2, [pair_layer(GateKind.XOR, 2), pair_layer(second, 2)])
        batch = c.evaluate_batch(values)
        assert batch.dtype == np.uint64 and batch.tolist() == [expected] * 4


def test_width_64_evaluation():
    c = Circuit(64, [unary_layer(GateKind.NOT, 64)])
    v = BitVector(64, (1 << 64) - 1)
    assert c.evaluate(v).value == 0
    batch = c.evaluate_batch(np.array([0, (1 << 64) - 1], dtype=np.uint64))
    assert int(batch[0]) == (1 << 64) - 1
    assert int(batch[1]) == 0
    c2 = Circuit(64, [pair_layer(GateKind.XNOR, 64)])
    top_pair = BitVector(64, 1 << 63)
    out = c2.evaluate(top_pair)
    assert out.bit(63) == 0 and out.bit(64) == 0
    assert c2.evaluate(BitVector(64, 3 << 62)).bit(64) == 1
