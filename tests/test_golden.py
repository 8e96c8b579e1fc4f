"""Byte-identity goldens: artifacts must hash exactly as the reference code did.

The first four samples.csv/sweep.csv hashes were recorded from the layered
(per-gate) evaluator before the compiled per-pair form replaced it.  The
JSON documents, the dataset image and one run.json per subcommand were
recorded before emit became the only writer of artifacts.  Any change to
circuit semantics, RNG consumption order, the censored-sample contract or
artifact formatting changes at least one of them.  Every call runs in its
own working directory with relative paths, so run.json is reproducible.

The two sweep.csv hashes were re-recorded when the linear fit moved to
exact integer moments: only the slope, intercept, r_squared and rho cells
moved (by up to a few hundred ULP), and they now read the same on every
Python version, where the float sums of the earlier fit printed other last
digits from Python 3.12 on.

The andnot64 target-search hash was re-recorded when a 64-bit input became
one raw word, exactly as numpy's ``integers(0, 2**64, dtype=np.uint64)``
draws it, instead of a high and a low 32-bit half drawn apart: only width
64 read its inputs that way, so only that golden moved.
"""

import hashlib
from pathlib import Path

import pytest

from ganfault.circuit import Circuit, GateKind, pair_layer, unary_layer
from ganfault.cli import main
from ganfault.netlist import serialize_netlist

CIRCUITS = {
    "not16": Circuit(16, [unary_layer(GateKind.NOT, 16)]),
    "andnot16": Circuit(
        16, [pair_layer(GateKind.AND, 16), unary_layer(GateKind.NOT, 16)]
    ),
    "andnot64": Circuit(
        64, [pair_layer(GateKind.AND, 64), unary_layer(GateKind.NOT, 64)]
    ),
    "not64": Circuit(64, [unary_layer(GateKind.NOT, 64)]),
}

# (circuit or None, argv without --ckt and --out, {artifact: sha256})
GOLDENS = {
    "not16-simulate": (
        "not16",
        ["simulate", "--fault", "swap:L1.S1:buffer", "--eps", "0.25",
         "--trials", "400", "--seed", "2026"],
        {
            "samples.csv":
                "3f4a76beb90f846a6a2413e13256e5a445fb9abc917dae1225a24328d5ff7451",
            "run.json":
                "7f45536ad23e487da32ee0a5bf6c17d65d228469a01a26102c6bb3a1cfaca107",
        },
    ),
    "andnot16-simulate": (
        "andnot16",
        ["simulate", "--fault", "reverse:L1.S1,flip:0.1", "--eps", "0.375",
         "--trials", "400", "--max-iterations", "2000", "--seed", "2026"],
        {
            "samples.csv":
                "b9f99f9fae96186b0602e6edf0bf3512a27f0f5e078ffeae59c0d83e737f5b89",
        },
    ),
    "not16-sweep": (
        "not16",
        ["sweep", "--fault", "swap:L1.S1:buffer", "--mode", "target-search",
         "--grid", "0.1:0.3:0.1", "--trials", "150", "--seed", "2027",
         "--min-samples", "100"],
        {
            "sweep.csv":
                "6a7ca3621eb27979a07fe57bc97d677cdfc4d220c768e0cd97ec85e2c51920f4",
            "transition.json":
                "e8033ffac99e42a685993f61032d4aa72b7990fb18fa067f6afdc926bfec3fae",
            "run.json":
                "e1b7c46eb3d3231f0aec2ef1634827367286198510b904d6110964caadbb7bf0",
        },
    ),
    "andnot16-sweep": (
        "andnot16",
        ["sweep", "--fault", "reverse:L1.S1,flip:0.1", "--mode", "target-search",
         "--grid", "0.2,0.35,0.5", "--trials", "150", "--max-iterations", "2000",
         "--seed", "2027"],
        {
            "sweep.csv":
                "b0821adeb06bea6467ef261c1444dd1352eecb4130718611f0dac73d6c3063a0",
            "transition.json":
                "77d19af885130b3899d29c900c38bfc58aa7fe9fc766c0f9124bf381de6380d1",
        },
    ),
    # Recorded after unreachable targets began to be skipped: 122 of its 154
    # censored rows have no preimage within epsilon and carry the nearest
    # output as re; the other 32 are reachable and keep the last candidate.
    "andnot16-simulate-target-search": (
        "andnot16",
        ["simulate", "--fault", "reverse:L1.S1,flip:0.1", "--mode", "target-search",
         "--eps", "0.25", "--trials", "300", "--max-iterations", "100",
         "--seed", "2028"],
        {
            "samples.csv":
                "e72f7ebb994d78d306564dc081e4a852197d5d1129635e05893b9a092b66d216",
        },
    ),
    # A width-64 target search on a lossy circuit: each target and input is
    # one raw word, and every candidate draws 64 flip uniforms.
    "andnot64-simulate-target-search": (
        "andnot64",
        ["simulate", "--fault", "reverse:L1.S1,flip:0.05", "--mode", "target-search",
         "--eps", "0.375", "--trials", "200", "--max-iterations", "2000",
         "--seed", "2031"],
        {
            "samples.csv":
                "b36b76fb8b3a5db9f29e2c25f380e068308df6ead61e70da8710f2d33ec2472d",
        },
    ),
    # A 64-bit lone walk: on a bijection at epsilon 0, each trial reads its
    # stream alone after the first chunk, in blocks of 8192 words, and its
    # budget ends inside the third block, where every trial is censored.
    "not64-simulate-lone-walk": (
        "not64",
        ["simulate", "--fault", "missing:L1.S1", "--mode", "target-search",
         "--eps", "0", "--trials", "5", "--max-iterations", "20000",
         "--seed", "2033"],
        {
            "samples.csv":
                "01cdf328197ea48892eb75194a6e6949dde2b641a20108f5100944e6685c665d",
        },
    ),
    # The benchmark's andnot16 sweep at a small size, default grid: at
    # epsilon 0 and 0.05 the unreachable-target screen censors 298 of the
    # 300 trials before they draw a candidate.
    "andnot16-sweep-screened": (
        "andnot16",
        ["sweep", "--fault", "reverse:L1.S1", "--mode", "target-search",
         "--trials", "300", "--max-iterations", "5000", "--seed", "2032"],
        {
            "sweep.csv":
                "1e7557783b4aa64f97c643326ac891a7b124f4f3181f185ba6304cd45689d8f7",
        },
    ),
    # N = 16, so spectrum.json also holds the completeness rows.
    "andnot16-spectrum": (
        "andnot16",
        ["spectrum", "--fault", "flip:0.1", "--eps", "0.375", "--trials", "400",
         "--max-iterations", "2000", "--seed", "2029"],
        {
            "spectrum.json":
                "d80b39eef42221e1b36dbfaa9fa2f5c917fc31484ee16a1ab0a0e50af564f815",
            "run.json":
                "a2003b80385aeec439be76fbd183a4a965ae8941b8bc27d2594184df6f743b64",
        },
    ),
    "not16-dataset": (
        "not16",
        ["dataset", "--eps", "0.25", "--trials", "200", "--bins", "16",
         "--seed", "2030", "--run", "ideal=", "--run", "swapped=swap:L1.S1:buffer"],
        {
            "manifest.json":
                "5ef0704d9005168c76854f7f41204b67f243f493e439b1cda67d1f35769157e0",
            "swapped.pgm":
                "daafb2423b0c4b6b813808b1112cb1a0e6993ad3122b3937e91038230571901b",
            "run.json":
                "8561c71af0411f280a9e2b9f1a7fce3732f3c272c1326efbf774c557d91ae3e6",
        },
    ),
    "table1": (
        None,
        ["table1"],
        {
            "table1.json":
                "b889af8f679ea655d27f7ef8a4653b7f65c5c4f9dfd82d026ecc4f6517249727",
            "run.json":
                "e85cf0c24e8dc3c9c95c2b5e1394d7ad6380c40b1089eeca4a10cf746c01d768",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_bytes_match_reference(name, tmp_path, monkeypatch):
    circuit, argv, digests = GOLDENS[name]
    monkeypatch.chdir(tmp_path)
    cmd, *rest = argv
    if circuit is not None:
        Path(f"{circuit}.ckt").write_text(serialize_netlist(CIRCUITS[circuit]))
        rest = ["--ckt", f"{circuit}.ckt", *rest]
    assert main([cmd, *rest, "--out", "out"]) == 0
    found = {
        artifact: hashlib.sha256((Path("out") / artifact).read_bytes()).hexdigest()
        for artifact in digests
    }
    assert found == digests
