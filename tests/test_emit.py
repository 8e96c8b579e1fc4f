import json
import math
import re

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
from ganfault.sampler import DeviationSample, ExperimentConfig, run_experiment


def _sample(re=10, im=24, it=3, accepted=True, eps=0.1, label="swap"):
    return DeviationSample(re=re, im=im, iterations=it, accepted=accepted,
                           epsilon=eps, label=label)


def test_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "s.csv"
    n = write_samples_csv([], path)
    assert path.read_text() == "trial,epsilon,re,im,iterations,accepted,label\n"
    assert n == path.stat().st_size


def test_csv_single_sample_exact(tmp_path):
    path = tmp_path / "s.csv"
    write_samples_csv([_sample()], path)
    assert path.read_text() == (
        "trial,epsilon,re,im,iterations,accepted,label\n"
        "0,0.1,10,24,3,true,swap\n"
    )


def test_csv_deterministic_and_roundtrip(tmp_path):
    samples = [
        _sample(),
        _sample(re=0, im=30, it=1000, accepted=False, eps=0.25, label="missing:L1.S1,flip:0.5"),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_samples_csv(samples, a)
    write_samples_csv(samples, b)
    assert a.read_bytes() == b.read_bytes()
    assert read_samples_csv(a) == samples


def test_scatter_empty_has_axes_and_diagonal():
    doc = render_scatter([], width=4)
    assert doc.startswith("<svg ") and doc.rstrip().endswith("</svg>")
    assert doc.count("<line ") == 3  # two axes plus the reference diagonal
    assert "<circle" not in doc
    assert "stroke-dasharray" in doc


def test_scatter_marks_sit_on_diagonal():
    samples = [_sample(re=v, im=v) for v in (0, 2, 10, 30)]
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
    samples = [_sample(), _sample(accepted=False)]
    a = render_scatter(samples, width=4)
    assert a.count("<circle") == 1
    assert a == render_scatter(samples, width=4)


def test_scatter_rejects_small_canvas():
    with pytest.raises(ValueError):
        render_scatter([], width=4, canvas=(63, 480))


def test_histogram_mass_equals_accepted_count():
    samples = [_sample(re=2 * i, im=2 * i) for i in range(16)]
    samples += [_sample(accepted=False)] * 5
    counts = histogram_counts(samples, width=4, bins=8)
    assert counts.sum() == 16
    # Diagonal samples land on diagonal bins only.
    nz = list(zip(*counts.nonzero()))
    assert all(r == c for r, c in nz)


def test_histogram_bin_range():
    top = (1 << 5) - 2  # full scale at width 4
    counts = histogram_counts([_sample(re=top, im=0)], width=4, bins=8)
    assert counts[7, 0] == 1


def test_pgm_format():
    counts = histogram_counts([_sample(re=0, im=0)], width=4, bins=4)
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
    text = counts_to_pgm(histogram_counts([], width=4, bins=2))
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
