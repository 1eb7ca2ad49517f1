"""Deterministic CSV and SVG emission through one row formatter.

Every number in a file is written with the printf conversion NUM, "%.17g":
17 significant digits, '.' as the decimal separator, and exactly the text
fmt (format(float(x), ".17g")) gives, so outputs are byte-stable for fixed
inputs.  A writer takes its cells as Python floats from stacked columns
(``.tolist()``), fills one row template per row (csv_rows), and hands the
whole text to atomic_write (temp file, then rename); there is no per-cell
call.  fmt stays for the stdout lines.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .boundary import BoundaryClassification, MeanValueBoundary
from .closures import ClosureAtlas
from .config import element_entries
from .findings import Report
from .linalg import HermitianElement
from .maximizer import SearchCandidate

NUM = "%.17g"


def fmt(x: float) -> str:
    """17-significant-digit decimal representation."""
    return format(float(x), ".17g")


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_rows(cells: Sequence[str], rows: Iterable[tuple]) -> str:
    """One line per row tuple from the cell formats ``cells`` (NUM for
    numbers, "%s" for text and integers)."""
    template = ",".join(cells) + "\n"
    return "".join([template % r for r in rows])


def write_csv(path: str, header: Sequence[str], cells: Sequence[str],
              rows: Iterable[tuple]) -> None:
    atomic_write(path, ",".join(header) + "\n" + csv_rows(cells, rows))


def entry_header(a: HermitianElement) -> list[str]:
    cols = []
    for k, n in enumerate(a.algebra.block_dims):
        for i in range(n):
            for j in range(n):
                cols.extend((f"b{k}_{i}{j}_re", f"b{k}_{i}{j}_im"))
    return cols


def boundary_csv(path: str, boundary: MeanValueBoundary) -> None:
    """Boundary rows: alpha, support_value, x1, x2, face_dim, nonexposed_flag;
    one row per point face, one per segment endpoint."""
    f, (row, slot) = boundary.faces, boundary.points()
    x = f.endpoints[row, slot]
    rows = zip(f.alpha[row].tolist(), f.support_value[row].tolist(), x[:, 0].tolist(),
               x[:, 1].tolist(), f.dim[row].tolist(),
               boundary.nonexposed()[row, slot].astype(int).tolist())
    write_csv(path, ["alpha", "support_value", "x1", "x2", "face_dim", "nonexposed_flag"],
              [NUM] * 4 + ["%s"] * 2, rows)


def boundary_svg(path: str, boundary: MeanValueBoundary,
                 classes: BoundaryClassification) -> None:
    """Fixed 800x800 drawing: boundary polyline plus non-exposed markers."""
    arr = boundary.faces.endpoints[boundary.points()]
    center = (arr.max(axis=0) + arr.min(axis=0)) / 2.0
    half = max(float((arr.max(axis=0) - arr.min(axis=0)).max()) / 2.0, 1e-9)
    scale = 340.0 / half

    def to_svg(points) -> list[float]:
        """Drawing coordinates x0, y0, x1, y1, ... of tangent-plane points."""
        d = scale * (np.asarray(points).reshape(-1, 2) - center)
        return np.column_stack([400.0 + d[:, 0], 400.0 - d[:, 1]]).ravel().tolist()

    poly = " ".join([f"{NUM},{NUM}"] * len(arr)) % tuple(to_svg(arr))
    ring = f'<circle cx="{NUM}" cy="{NUM}" r="6" fill="none" stroke="red" stroke-width="2"/>'
    dot = f'<circle cx="{NUM}" cy="{NUM}" r="4" fill="black"/>'
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
        f'<polygon points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    parts += [ring % tuple(to_svg(p)) for p in classes.nonexposed]
    parts += [dot % tuple(to_svg(p)) for p, label in classes.vertices if label == "exposed"]
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


def atlas_csv(path: str, atlas: ClosureAtlas) -> None:
    """One row per projector group with a representative state's entries."""
    header = ["alpha_lo", "alpha_hi", "projector_rank", "family_dim"]
    header += entry_header(atlas.family.offset)
    entries = element_entries(atlas.representative_blocks())
    rows = [(g.alpha_lo, g.alpha_hi, g.rank, g.family_dim, *e)
            for g, e in zip(atlas.groups, entries.tolist())]
    write_csv(path, header, [NUM, NUM, "%s", "%s"] + [NUM] * entries.shape[1], rows)


def report_csv(path: str, report: Report) -> None:
    rows = [(f.check, f.detail.replace(",", ";"), f.value, f.bound, int(f.ok))
            for f in report.findings]
    write_csv(path, ["check", "detail", "value", "bound", "ok"],
              ["%s", "%s", NUM, NUM, "%s"], rows)


def certificates_csv(path: str, candidates: list[SearchCandidate]) -> None:
    """State entries, residual, certified value, gradient norm per candidate."""
    if not candidates:
        atomic_write(path, "start_index\n")
        return
    header = entry_header(candidates[0].state.element)
    n_entries = len(header)
    header += ["residual", "certified_value", "gradient_norm",
               "start_index", "value", "stationary", "projection_attained"]
    rows = []
    nan = float("nan")
    for c in candidates:
        cert = c.certificate
        rows.append((
            *element_entries(c.state.element.blocks).tolist(),
            cert.residual if cert else nan,
            cert.certified_value if cert else nan,
            cert.gradient_norm if cert else nan,
            c.start_index,
            c.value,
            int(c.stationary),
            int(c.projection_attained),
        ))
    write_csv(path, header, [NUM] * (n_entries + 3) + ["%s", NUM, "%s", "%s"], rows)
