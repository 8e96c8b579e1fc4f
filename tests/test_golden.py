"""Byte-identity goldens: artifacts must hash exactly as the reference code did.

The first four hashes were recorded from the layered (per-gate) evaluator
before the compiled per-pair form replaced it.  Any change to circuit
semantics, RNG consumption order, the censored-sample contract or artifact
formatting changes at least one of them.
"""

import hashlib

import pytest

from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
from ganfault.cli import main
from ganfault.netlist import serialize_netlist

CIRCUITS = {
    "not16": Circuit(16, [unary_layer(GateKind.NOT, 16)]),
    "andnot16": Circuit(
        16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)]
    ),
}

# (circuit, argv after --ckt, artifact, sha256)
GOLDENS = {
    "not16-simulate": (
        "not16",
        ["simulate", "--fault", "swap:L1.S1:buffer", "--eps", "0.25",
         "--trials", "400", "--seed", "2026"],
        "samples.csv",
        "3f4a76beb90f846a6a2413e13256e5a445fb9abc917dae1225a24328d5ff7451",
    ),
    "andnot16-simulate": (
        "andnot16",
        ["simulate", "--fault", "reverse:L1.S1,flip:0.1", "--eps", "0.375",
         "--trials", "400", "--max-iterations", "2000", "--seed", "2026"],
        "samples.csv",
        "b9f99f9fae96186b0602e6edf0bf3512a27f0f5e078ffeae59c0d83e737f5b89",
    ),
    "not16-sweep": (
        "not16",
        ["sweep", "--fault", "swap:L1.S1:buffer", "--mode", "target-search",
         "--grid", "0.1:0.3:0.1", "--trials", "150", "--seed", "2027"],
        "sweep.csv",
        "43e428e2a7929f64701ab633a23baed46149b1033478656cf5338a53068643e9",
    ),
    "andnot16-sweep": (
        "andnot16",
        ["sweep", "--fault", "reverse:L1.S1,flip:0.1", "--mode", "target-search",
         "--grid", "0.2,0.35,0.5", "--trials", "150", "--max-iterations", "2000",
         "--seed", "2027"],
        "sweep.csv",
        "cf0c8e045ccea564ae62380483fef4e0161057c3c593dfec7fa5cb4fc6e01353",
    ),
    # Recorded after unreachable targets began to be skipped: 122 of its 154
    # censored rows have no preimage within epsilon and carry the nearest
    # output as re; the other 32 are reachable and keep the last candidate.
    "andnot16-simulate-target-search": (
        "andnot16",
        ["simulate", "--fault", "reverse:L1.S1,flip:0.1", "--mode", "target-search",
         "--eps", "0.25", "--trials", "300", "--max-iterations", "100",
         "--seed", "2028"],
        "samples.csv",
        "e72f7ebb994d78d306564dc081e4a852197d5d1129635e05893b9a092b66d216",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_bytes_match_reference(name, tmp_path):
    circuit, argv, artifact, digest = GOLDENS[name]
    ckt = tmp_path / f"{circuit}.ckt"
    ckt.write_text(serialize_netlist(CIRCUITS[circuit]))
    out = tmp_path / "out"
    cmd, *rest = argv
    assert main([cmd, "--ckt", str(ckt), *rest, "--out", str(out)]) == 0
    assert hashlib.sha256((out / artifact).read_bytes()).hexdigest() == digest
