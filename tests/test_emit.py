import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from ganfault.circuit import Circuit, GateKind, identity_circuit, unary_layer
from ganfault.emit import (
    DatasetManifest,
    counts_to_pgm,
    emit_dataset,
    histogram_counts,
    read_samples_csv,
    render_scatter,
    samples_to_csv,
    write_samples_csv,
)
from ganfault.faults import InputPerturbation, Missing
from ganfault.sampler import DeviationSample, ExperimentConfig, Samples, run_experiment


def _sample(re=10, im=24, it=3, accepted=True, eps=0.1, label="swap"):
    return DeviationSample(re=re, im=im, iterations=it, accepted=accepted,
                           epsilon=eps, label=label)


def _level(*rows: DeviationSample) -> Samples:
    return Samples.from_rows(rows)


def test_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "s.csv"
    n = write_samples_csv(_level(), path)
    assert path.read_text() == "trial,epsilon,re,im,iterations,accepted,label\n"
    assert n == path.stat().st_size


def test_csv_single_sample_exact(tmp_path):
    path = tmp_path / "s.csv"
    write_samples_csv(_level(_sample()), path)
    assert path.read_text() == (
        "trial,epsilon,re,im,iterations,accepted,label\n"
        "0,0.1,10,24,3,true,swap\n"
    )


def test_csv_deterministic_and_roundtrip(tmp_path):
    label = "missing:L1.S1,flip:0.5"
    rows = [
        _sample(eps=0.25, label=label),
        _sample(re=0, im=30, it=1000, accepted=False, eps=0.25, label=label),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(_level(*rows), a)
    write_samples_csv(_level(*rows), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[1:] == [
        '0,0.25,10,24,3,true,"missing:L1.S1,flip:0.5"',
        '1,0.25,0,30,1000,false,"missing:L1.S1,flip:0.5"',
    ]
    back = read_samples_csv(a)
    assert back == rows and (back.epsilon, back.label) == (0.25, label)


@pytest.mark.parametrize("rows, match", [
    (["0,0.1,10,24,3,true,swap", "1,0.25,10,24,3,true,swap"], "one level"),
    (["0,0.1,10,24,3,true,swap", "1,0.1,10,24,3,true,noisy"], "one level"),
    (["0,0.1,-2,24,3,true,swap"], "even"),
    (["0,0.1,10,73786976294838206464,3,true,swap"], "even"),  # 2**66
    (["0,0.1,11,24,3,true,swap"], "even"),
    (["0,0.1,10,24,18446744073709551616,true,swap"], "iterations"),  # 2**64
    (["0,0.1,10,24,3,TRUE,swap"], "true or false"),
    (["0,0.1,10,24,3,yes,swap"], "true or false"),
    (["0,nan,10,24,3,true,swap"], "epsilon out of range"),
    (["0,nan,10,24,3,true,swap", "1,nan,10,24,3,true,swap"], "epsilon out of range"),
    (["0,-3,10,24,3,true,swap"], "epsilon out of range"),
    (["0,1.5,10,24,3,true,swap"], "epsilon out of range"),
    (["0,inf,10,24,3,true,swap"], "epsilon out of range"),
])
def test_csv_read_rejects_mixed_levels_and_points_out_of_range(tmp_path, rows, match):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["trial,epsilon,re,im,iterations,accepted,label", *rows, ""]))
    with pytest.raises(ValueError, match=match):
        read_samples_csv(path)


def test_scatter_empty_has_axes_and_diagonal():
    doc = render_scatter(_level(), width=4)
    assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")
    assert doc.count("<line ") == 3  # two axes plus the reference diagonal
    assert "<circle" not in doc
    assert "stroke-dasharray" in doc


def test_scatter_marks_sit_on_diagonal():
    samples = _level(*(_sample(re=v, im=v) for v in (0, 2, 10, 30)))
    doc = render_scatter(samples, width=4)
    circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', doc)
    assert len(circles) == 4
    diag = re.findall(r'<line x1="([0-9.]+)" y1="([0-9.]+)" x2="([0-9.]+)" y2="([0-9.]+)"', doc)
    x1, y1, x2, y2 = (float(t) for t in diag[-1])
    length = math.hypot(x2 - x1, y2 - y1)
    for cx, cy in circles:
        dist = abs((x2 - x1) * (y1 - float(cy)) - (x1 - float(cx)) * (y2 - y1)) / length
        assert dist <= 0.5


def test_scatter_skips_censored_and_is_deterministic():
    samples = _level(_sample(), _sample(accepted=False))
    a = render_scatter(samples, width=4)
    assert a.count("<circle") == 1
    assert a == render_scatter(samples, width=4)


def test_scatter_rejects_small_canvas():
    with pytest.raises(ValueError):
        render_scatter(_level(), width=4, canvas=(63, 480))


def test_histogram_mass_equals_accepted_count():
    samples = _level(*(_sample(re=2 * i, im=2 * i) for i in range(16)),
                     *[_sample(accepted=False)] * 5)
    counts = histogram_counts(samples, width=4, bins=8)
    assert counts.sum() == 16
    # Diagonal samples land on diagonal bins only.
    nz = list(zip(*counts.nonzero()))
    assert all(r == c for r, c in nz)


def test_histogram_bin_range():
    top = (1 << 5) - 2  # full scale at width 4
    counts = histogram_counts(_level(_sample(re=top, im=0)), width=4, bins=8)
    assert counts[7, 0] == 1


def _edge_outputs(width: int, bins: int) -> list[int]:
    """Outputs at the top of the width, at histogram cell edges and at float ties."""
    top, limit = (1 << width) - 1, (1 << (width + 1)) - 1
    values = {0, 1, top, top - 1, top - 2, 1 << (width - 1), (1 << (width - 1)) - 1}
    for k in (1, bins // 2, bins - 1):
        first = -(-k * limit // (2 * bins))  # the smallest output in cell k
        values |= {first, first - 1}
    if width >= 54:
        # 2 * v has 54 significant bits, the last one set: it lies halfway
        # between two doubles, and converting it ties to even.
        values |= {m << (width - 54) for m in ((1 << 53) + 1, (1 << 53) + 3, (1 << 54) - 1)}
    rng = random.Random(width)
    values |= {rng.randrange(1 << width) for _ in range(40)}
    return sorted(values)


@pytest.mark.parametrize("width", [16, 33, 52, 53, 64])
def test_columns_give_todays_cells_coordinates_and_csv_at_every_width(width):
    # re = 2 * out reaches 2**65 - 2 at width 64, past uint64 and past the
    # 53 bits a double holds exactly.  Each artifact must equal the row
    # formula on Python ints, written out here.  On a canvas of 2**50 a
    # coordinate's ulp is at most 0.25, so "%.2f" shows every bit of it.
    bins = 64
    outs = _edge_outputs(width, bins)
    refs = outs[::-1]
    n = len(outs)
    accepted = [i % 5 != 3 for i in range(n)]
    samples = Samples(
        np.array(outs, dtype=np.uint64), np.array(refs, dtype=np.uint64),
        np.arange(1, n + 1, dtype=np.int64), np.array(accepted), 0.5, "edge",
    )
    points = [(2 * o, 2 * r) for o, r, a in zip(outs, refs, accepted) if a]

    limit = (1 << (width + 1)) - 1
    counts = histogram_counts(samples, width, bins)
    cells = Counter((re_ * bins // limit, im * bins // limit) for re_, im in points)
    assert {cell: int(c) for cell, c in np.ndenumerate(counts) if c} == dict(cells)

    scale = (1 << (width + 1)) - 2
    for size in (480, 2**50):
        x0, y0, x1, y1 = 36, size - 36, size - 12, 12
        sx, sy = (x1 - x0) / scale, (y1 - y0) / scale
        doc = render_scatter(samples, width, canvas=(size, size))
        got = re.findall(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"', doc)
        assert got == [(f"{x0 + im * sx:.2f}", f"{y0 + re_ * sy:.2f}")
                       for re_, im in points], size

    lines = samples_to_csv(samples).splitlines()[1:]
    assert lines == [
        f"{t},0.5,{2 * o},{2 * r},{t + 1},{'true' if a else 'false'},edge"
        for t, (o, r, a) in enumerate(zip(outs, refs, accepted))
    ]


def test_pgm_format():
    counts = histogram_counts(_level(_sample(re=0, im=0)), width=4, bins=4)
    text = counts_to_pgm(counts)
    lines = text.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 4"
    assert lines[2] == "255"
    assert len(lines) == 7
    # The single count sits at re-bin 0, which is the bottom raster row.
    assert lines[-1].split() == ["255", "0", "0", "0"]
    assert all(len(row.split()) == 4 for row in lines[3:])


def test_pgm_all_zero():
    text = counts_to_pgm(histogram_counts(_level(), width=4, bins=2))
    assert text == "P2\n2 2\n255\n0 0\n0 0\n"


def _runs(seed=5):
    ckt = Circuit(8, [unary_layer(GateKind.NOT, 8)])
    base = dict(circuit=ckt, epsilon=0.25, trials=200, seed=seed, max_iterations=100)
    return [
        ("none", ExperimentConfig(**base)),
        ("missing", ExperimentConfig(**base, faults=(Missing(1, 1),))),
        ("noisy", ExperimentConfig(**base, faults=(InputPerturbation(0.1),))),
    ]


def test_emit_dataset_writes_images_and_manifest(tmp_path):
    manifest = emit_dataset(_runs(), tmp_path, bins=32)
    assert len(manifest.entries) == 3
    names = [e.file for e in manifest.entries]
    assert names == ["none.pgm", "missing.pgm", "noisy.pgm"]
    for e in manifest.entries:
        assert (tmp_path / e.file).exists()
        assert e.width == 8 and e.seed == 5 and e.gates == "not"
    parsed = DatasetManifest.from_json((tmp_path / "manifest.json").read_text())
    assert parsed == manifest


def test_emit_dataset_fault_free_concentrates_on_diagonal(tmp_path):
    manifest = emit_dataset(_runs()[:1], tmp_path, bins=16)
    text = (tmp_path / manifest.entries[0].file).read_text()
    rows = [r.split() for r in text.splitlines()[3:]]
    for r, row in enumerate(rows):
        for c, pixel in enumerate(row):
            if pixel != "0":
                assert (15 - r) == c  # top row holds the highest re bin


def test_emit_dataset_duplicate_labels_suffixed(tmp_path):
    runs = _runs()[:1] * 2
    manifest = emit_dataset(runs, tmp_path / "a")
    assert [e.file for e in manifest.entries] == ["none.pgm", "none-2.pgm"]
    # A label that spells an earlier run's suffixed name must not reuse it.
    none, _, (_, noisy) = _runs()
    runs = [none, none, ("none-2", noisy)]
    manifest = emit_dataset(runs, tmp_path / "b")
    files = [e.file for e in manifest.entries]
    assert files == ["none.pgm", "none-2.pgm", "none-2-2.pgm"]
    assert [e.label for e in manifest.entries] == ["none", "none", "none-2"]
    assert all((tmp_path / "b" / name).exists() for name in files)


def test_emit_dataset_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_dataset(_runs(), a, bins=16)
    emit_dataset(_runs(), b, bins=16)
    for name in ("none.pgm", "missing.pgm", "noisy.pgm", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_emit_dataset_requires_runs(tmp_path):
    with pytest.raises(ValueError):
        emit_dataset([], tmp_path)
