"""The one writer of artifacts: every result becomes bytes here.

Two text forms serve every table and document.  :func:`csv_text` writes
the sample and sweep tables (cells are the csv module's ``str()`` of each
value, ``None`` an empty cell); :func:`json_text` writes run.json,
transition.json, spectrum.json, table1.json and the dataset manifest
(sorted keys, 2-space indent, final newline), each document built from
its result dataclass with ``asdict``.  SVG scatter documents and
plain-text PGM rasters are the visual artifacts.  The sample table, the
scatter and the histogram read the columns of one level's
:class:`~ganfault.sampler.Samples`.

One row writer renders every numeric text artifact from columns: the
sample table, the scatter's points and the PGM raster.  :func:`_decimal`
spells an unsigned column as right-aligned ASCII digits in an (n, w)
byte array, its leading zeros set to the filler byte 0xFF, which UTF-8
never holds; :func:`_text` lays such arrays and constant byte cells side
by side and drops every filler byte at once.  A scatter coordinate is
written from its exact hundredths (:func:`_hundredths`), which is its
``format(x, ".2f")``.

Everything here is a pure function of its inputs: the same results give
byte-identical files, which is what makes double-run comparisons a
meaningful reproducibility check.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import SweepPoint, full_scale
from .sampler import (
    DeviationSample,
    ExperimentConfig,
    Samples,
    run_experiment,
)

CSV_HEADER = ("trial", "epsilon", "re", "im", "iterations", "accepted", "label")
MANIFEST_VERSION = 1


def json_text(doc) -> str:
    """The JSON form of every document: sorted keys, 2-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` in the form of :func:`json_text`."""
    Path(path).write_text(json_text(doc), encoding="utf-8")


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV form of every table: one header line, then one line per row.

    Cells are the csv module's ``str()`` of each value, which for a float
    is its shortest round-tripping repr; ``None`` is an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_FILL = 0xFF  # the row writer's filler byte; UTF-8 never holds it
_UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)
_FLAGS = np.frombuffer(b"false" + b"true\xff", dtype=np.uint8).reshape(2, 5)


def _decimal(v: np.ndarray, digits: int = 1, double: bool = False) -> np.ndarray:
    """The decimal digits of a column of non-negative ints, as ASCII bytes.

    Row r of the (n, w) uint8 result spells ``v[r]`` right-aligned in at
    least ``digits`` digits; the leading zeros past them are the filler
    byte.  The digits are computed in the narrowest unsigned dtype that
    holds the column's maximum.  With ``double`` the row spells ``2 * v[r]``:
    each digit is doubled, plus a carry when the next digit is at least 5,
    so a uint64 column's doubles stay exact up to 2**65 - 2.  The result is
    the transpose of a C-ordered (w, n) array, one digit position a row.
    """
    top = int(v.max()) if len(v) else 0
    dtype = next(t for t in _UNSIGNED if top <= np.iinfo(t).max)
    x = v.astype(dtype)
    places = len(str(top))
    w = max(len(str(2 * top if double else top)), digits)
    d = np.zeros((max(w, places + double), len(v)), dtype=np.uint8)
    rest = x
    for row in d[::-1][:places]:  # the least significant digit first
        quotient = rest // 10
        row[:] = rest - quotient * 10
        rest = quotient
    if double:
        carry = (d >= 5).view(np.uint8)
        d += d
        d -= carry * np.uint8(10)
        d[:-1] += carry[1:]
    d = d[len(d) - w :]
    d += ord("0")
    for j, row in enumerate(d[: w - digits]):
        power = 10 ** (w - 1 - j)  # the row is a leading zero below it
        row[x < (power + 1) // 2 if double else x < power] = _FILL
    return d.T


def _text(n: int, cells: Sequence) -> str:
    """``n`` rows of cells side by side, with every filler byte dropped.

    A cell is a bytes constant, the same in every row, or an (n, w) uint8
    array such as :func:`_decimal` returns.  A constant holds UTF-8 text,
    which never holds the filler byte, so no byte of it is dropped.  The
    cells are laid out one byte position a row, then transposed once.
    """
    cells = [np.frombuffer(c, dtype=np.uint8)[:, None] if isinstance(c, bytes) else c.T
             for c in cells]
    rows = np.empty((sum(len(c) for c in cells), n), dtype=np.uint8)
    at = 0
    for c in cells:
        rows[at : at + len(c)] = c
        at += len(c)
    return rows.T.tobytes().translate(None, bytes([_FILL])).decode("utf-8")


def samples_to_csv(samples: Samples) -> str:
    """One row per sample, read off the columns; every row repeats the level.

    The text is ``csv_text(CSV_HEADER, rows)``.  Only the epsilon and label
    cells are the same in every row, and only the label can need quoting,
    so the csv module renders those two once; the row writer (:func:`_text`)
    sets them beside the digits of the trial, re, im and iterations columns
    and each row's true or false.
    """
    level = csv_text((samples.epsilon, samples.label), ())[:-1]
    epsilon, label = level.split(",", 1)  # a float's cell holds no comma
    n = len(samples)
    return csv_text(CSV_HEADER, ()) + _text(n, [
        _decimal(np.arange(n)), f",{epsilon},".encode(),
        _decimal(samples.out, double=True), b",", _decimal(samples.ref, double=True), b",",
        _decimal(samples.iterations), b",", _FLAGS[samples.accepted.view(np.uint8)],
        f",{label}\n".encode(),
    ])


def sweep_to_csv(points: Sequence[SweepPoint]) -> str:
    """One row per sweep level; a level without a fit leaves the fit cells empty."""
    header = ("epsilon", "trials", "accepted", "censored_fraction", "slope",
              "intercept", "r_squared", "rho", "mean_iterations", "median_iterations")
    return csv_text(header, (
        (p.epsilon, len(p.samples), p.accepted_count, p.censored_fraction,
         *(astuple(p.fit) if p.fit else (None,) * 4),
         p.mean_iterations, p.median_iterations)
        for p in points
    ))


def write_samples_csv(samples: Samples, destination) -> int:
    """Write the sample table; returns the byte count written."""
    data = samples_to_csv(samples).encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def read_samples_csv(source) -> Samples:
    """Inverse of :func:`write_samples_csv` (trial order preserved).

    A missing header, malformed cells, a trial cell that is not its row's
    index 0, 1, ... and rows of more than one level raise ``ValueError``.
    """
    text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header}")
    return Samples.from_rows(_read_row(t, row) for t, row in enumerate(reader))


def _read_row(t: int, row: list[str]) -> DeviationSample:
    """Row ``t`` of the samples, whose trial cell :func:`samples_to_csv` writes as ``t``."""
    trial, eps, re_, im, iters, accepted, label = row
    if trial != str(t):
        raise ValueError(f"row {t}: trial must be {t}, got {trial!r}")
    return DeviationSample(int(re_), int(im), int(iters), _read_flag(accepted),
                           float(eps), label)


def _read_flag(cell: str) -> bool:
    """An ``accepted`` cell as :func:`samples_to_csv` writes it: true or false."""
    if cell not in ("true", "false"):
        raise ValueError(f"accepted must be true or false, got {cell!r}")
    return cell == "true"


MAX_SCATTER_CANVAS = 2**50  # keeps a coordinate's hundredths inside uint64


def _hundredths(x: np.ndarray) -> np.ndarray:
    """Each float64 of ``x`` times 100, rounded half to even, as uint64.

    A float is its 53-bit integer mantissa m times 2**-s; m * 100 fits in
    uint64, and the rounding reads the exact remainder of its shift by s.
    For 0 <= x < 2**51 this is exactly the number ``format(x, ".2f")``
    spells without its point.
    """
    mantissa, exponent = np.frexp(x)
    p = (mantissa * 2.0**53).astype(np.uint64) * np.uint64(100)
    s = np.minimum(53 - exponent, 62).astype(np.uint64)  # past 62, the hundredths are 0
    q = p >> s
    r = p - (q << s)
    half = np.uint64(1) << (s - np.uint64(1))
    q += (r > half) | ((r == half) & ((q & np.uint64(1)) == 1))
    return q


def render_scatter(
    samples: Samples,
    width: int,
    canvas: tuple[int, int] = (480, 480),
) -> str:
    """Monochrome SVG of accepted samples in the (im, re) plane.

    Both axes span [0, 2**(N+1) - 2]; the identity diagonal is drawn as a
    reference line.  Output is deterministic for a given sample list.
    A canvas side is 64 to ``MAX_SCATTER_CANVAS`` pixels.  A point's
    coordinates are the floats ``x0 + im * sx`` and ``y0 + re * sy``:
    im = 2 * ref converts to ``2.0 * float(ref)`` exactly, so they are
    computed as float64 arrays.  Each is written with two decimals from
    its exact hundredths (:func:`_hundredths`), which is its ``:.2f``.
    """
    cw, ch = canvas
    if not (64 <= cw <= MAX_SCATTER_CANVAS and 64 <= ch <= MAX_SCATTER_CANVAS):
        raise ValueError(f"canvas sides must be 64..2**50 pixels, got {cw}x{ch}")
    scale = full_scale(width)
    margin = 36
    x0, y0 = margin, ch - margin          # plot origin (bottom-left)
    x1, y1 = cw - 12, 12                  # top-right
    sx = (x1 - x0) / scale
    sy = (y1 - y0) / scale

    def px(im):
        return x0 + im * sx

    def py(re):
        return y0 + re * sy

    head = "\n".join([
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
    ])
    xs = px(2.0 * samples.ref[samples.accepted].astype(np.float64))
    ys = py(2.0 * samples.out[samples.accepted].astype(np.float64))
    cx, cy = (_decimal(_hundredths(v), 3) for v in (xs, ys))
    circles = _text(len(xs), [
        b'<circle cx="', cx[:, :-2], b".", cx[:, -2:],
        b'" cy="', cy[:, :-2], b".", cy[:, -2:], b'" r="1.2" fill="black"/>\n',
    ])
    return f"{head}\n{circles}</svg>\n"


def histogram_counts(samples: Samples, width: int, bins: int = 64) -> np.ndarray:
    """2-D histogram of accepted (im, re) points on a bins x bins grid.

    Row index runs over re, column index over im, both ascending; the sum
    of counts equals the number of accepted samples.  A point's cell is
    ``re * bins // (2**(N+1) - 1)``.  The bins - 1 cell edges, the smallest
    output of each cell past the first, ``ceil(k * (2**(N+1) - 1) / (2 * bins))``,
    are exact uint64 at every width, and ``np.searchsorted`` counts the
    edges at or below each output.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    limit = full_scale(width) + 1
    edges = np.array([-(-k * limit // (2 * bins)) for k in range(1, bins)], dtype=np.uint64)
    row, col = (np.searchsorted(edges, c[samples.accepted], side="right")
                for c in (samples.out, samples.ref))
    return np.bincount(row * bins + col, minlength=bins * bins).reshape(bins, bins)


def counts_to_pgm(counts: np.ndarray) -> str:
    """Plain-text PGM (P2, maxval 255) of a count grid, max-normalized.

    The top raster row holds the highest re bin so the identity diagonal
    rises from the bottom-left corner.  A cell is ``count * 255 // peak``,
    in int64: exact for counts below 2**55.  The row writer (:func:`_text`)
    sets each cell's digits before a space, or a newline at a row's end.
    """
    peak = max(int(counts.max()), 1)  # an all-zero grid stays zero
    rows, cols = counts.shape
    scaled = counts[::-1].astype(np.int64) * 255 // peak
    ends = np.full((rows, cols), ord(" "), dtype=np.uint8)
    ends[:, -1] = ord("\n")
    cells = _text(rows * cols, [_decimal(scaled.ravel()), ends.reshape(-1, 1)])
    return f"P2\n{cols} {rows}\n255\n{cells}"


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
        return json_text(asdict(self))

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

    A file name already taken gets the lowest free numeric suffix, so two
    runs never share a file.  The manifest is written only after every
    image succeeded.
    """
    if not runs:
        raise ValueError("need at least one labeled run")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    used_names: set[str] = set()
    entries = []
    images: list[tuple[Path, str]] = []
    for label, cfg in runs:
        samples = run_experiment(cfg)
        counts = histogram_counts(samples, cfg.width, bins)
        base = name = _safe_name(label)
        suffix = 1
        while name in used_names:
            suffix += 1
            name = f"{base}-{suffix}"
        used_names.add(name)
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
