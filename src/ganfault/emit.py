"""Serialization of samples and byte-reproducible visual artifacts.

Everything here is a pure function of its inputs: CSV rows, SVG scatter
documents, and plain-text PGM rasters come out byte-identical for the
same samples, which is what makes double-run comparisons a meaningful
reproducibility check.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .analysis import full_scale
from .sampler import DeviationSample, ExperimentConfig, run_experiment

CSV_HEADER = ("trial", "epsilon", "re", "im", "iterations", "accepted", "label")
MANIFEST_VERSION = 1


def samples_to_csv(samples: Sequence[DeviationSample]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for trial, s in enumerate(samples):
        writer.writerow(
            [trial, repr(s.epsilon), s.re, s.im, s.iterations,
             "true" if s.accepted else "false", s.label]
        )
    return buf.getvalue()


def write_samples_csv(samples: Sequence[DeviationSample], destination) -> int:
    """Write the sample table; returns the byte count written."""
    data = samples_to_csv(samples).encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def read_samples_csv(source) -> list[DeviationSample]:
    """Inverse of :func:`write_samples_csv` (trial order preserved)."""
    text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header}")
    out = []
    for row in reader:
        _, eps, re_, im, iters, accepted, label = row
        out.append(
            DeviationSample(
                re=int(re_),
                im=int(im),
                iterations=int(iters),
                accepted=accepted == "true",
                epsilon=float(eps),
                label=label,
            )
        )
    return out


def render_scatter(
    samples: Sequence[DeviationSample],
    width: int,
    canvas: tuple[int, int] = (480, 480),
) -> str:
    """Monochrome SVG of accepted samples in the (im, re) plane.

    Both axes span [0, 2**(N+1) - 2]; the identity diagonal is drawn as a
    reference line.  Output is deterministic for a given sample list.
    """
    cw, ch = canvas
    if cw < 64 or ch < 64:
        raise ValueError(f"canvas must be at least 64x64, got {cw}x{ch}")
    scale = full_scale(width)
    margin = 36
    x0, y0 = margin, ch - margin          # plot origin (bottom-left)
    x1, y1 = cw - 12, 12                  # top-right
    sx = (x1 - x0) / scale
    sy = (y1 - y0) / scale

    def px(im: int) -> float:
        return x0 + im * sx

    def py(re: int) -> float:
        return y0 + re * sy

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{cw}" height="{ch}" '
        f'viewBox="0 0 {cw} {ch}">',
        f'<rect x="0" y="0" width="{cw}" height="{ch}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black" stroke-width="1"/>',
        f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(scale):.2f}" y2="{py(scale):.2f}" '
        f'stroke="black" stroke-width="0.5" stroke-dasharray="4 3"/>',
        f'<text x="{(x0 + x1) / 2:.2f}" y="{ch - 8}" font-size="11" '
        f'text-anchor="middle" fill="black">im (reference)</text>',
        f'<text x="10" y="{(y0 + y1) / 2:.2f}" font-size="11" text-anchor="middle" '
        f'fill="black" transform="rotate(-90 10 {(y0 + y1) / 2:.2f})">re (modulated)</text>',
    ]
    for s in samples:
        if s.accepted:
            lines.append(
                f'<circle cx="{px(s.im):.2f}" cy="{py(s.re):.2f}" r="1.2" fill="black"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def histogram_counts(
    samples: Sequence[DeviationSample], width: int, bins: int = 64
) -> np.ndarray:
    """2-D histogram of accepted (im, re) points on a bins x bins grid.

    Row index runs over re, column index over im, both ascending; the sum
    of counts equals the number of accepted samples.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    limit = full_scale(width) + 1
    counts = np.zeros((bins, bins), dtype=np.int64)
    for s in samples:
        if s.accepted:
            r = s.re * bins // limit
            c = s.im * bins // limit
            counts[r, c] += 1
    return counts


def counts_to_pgm(counts: np.ndarray) -> str:
    """Plain-text PGM (P2, maxval 255) of a count grid, max-normalized.

    The top raster row holds the highest re bin so the identity diagonal
    rises from the bottom-left corner.
    """
    peak = int(counts.max())
    rows, cols = counts.shape
    lines = ["P2", f"{cols} {rows}", "255"]
    for r in range(rows - 1, -1, -1):
        if peak == 0:
            lines.append(" ".join("0" for _ in range(cols)))
        else:
            lines.append(" ".join(str(int(c) * 255 // peak) for c in counts[r]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    label: str
    width: int
    epsilon: float
    gates: str
    samples: int
    seed: int


@dataclass(frozen=True)
class DatasetManifest:
    version: int
    entries: tuple[ManifestEntry, ...]

    def to_json(self) -> str:
        doc = {
            "version": self.version,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        doc = json.loads(text)
        return cls(
            version=doc["version"],
            entries=tuple(ManifestEntry(**e) for e in doc["entries"]),
        )


def _safe_name(label: str) -> str:
    name = re.sub(r"[^a-z0-9_-]+", "-", label.lower()).strip("-")
    return name or "run"


def emit_dataset(
    runs: Sequence[tuple[str, ExperimentConfig]],
    out_dir,
    bins: int = 64,
) -> DatasetManifest:
    """Emit one labeled PGM histogram per run plus a JSON manifest.

    Duplicate labels get numeric suffixes.  The manifest is written only
    after every image succeeded.
    """
    if not runs:
        raise ValueError("need at least one labeled run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    used_names: dict[str, int] = {}
    entries = []
    images: list[tuple[Path, str]] = []
    for label, cfg in runs:
        samples = run_experiment(cfg)
        counts = histogram_counts(samples, cfg.width, bins)
        base = _safe_name(label)
        used_names[base] = used_names.get(base, 0) + 1
        name = base if used_names[base] == 1 else f"{base}-{used_names[base]}"
        path = out / f"{name}.pgm"
        images.append((path, counts_to_pgm(counts)))
        entries.append(
            ManifestEntry(
                file=path.name,
                label=label,
                width=cfg.width,
                epsilon=cfg.epsilon,
                gates=",".join(cfg.circuit.gate_names),
                samples=int(counts.sum()),
                seed=cfg.seed,
            )
        )
    for path, text in images:
        path.write_text(text, encoding="ascii")
    manifest = DatasetManifest(MANIFEST_VERSION, tuple(entries))
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return manifest
