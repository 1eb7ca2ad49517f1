"""Deterministic CSV and SVG emission.

All numbers are written with 17 significant digits and '.' as the decimal
separator, so outputs are byte-stable for fixed inputs; files are written
atomically (temp file, then rename).
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else fmt(c) for c in row]
        lines.append(",".join(cells))
    atomic_write(path, "\n".join(lines) + "\n")


def entry_header(a: HermitianElement) -> list[str]:
    cols = []
    for k, n in enumerate(a.algebra.block_dims):
        for i in range(n):
            for j in range(n):
                cols.extend((f"b{k}_{i}{j}_re", f"b{k}_{i}{j}_im"))
    return cols


def boundary_csv(path: str, boundary: MeanValueBoundary) -> None:
    """Boundary rows: alpha, support_value, x1, x2, face_dim, nonexposed_flag."""
    rows = []
    for face in boundary.faces:
        for (x1, x2), label in zip(face.endpoints[:face.dim + 1], face.labels):
            rows.append((face.alpha, face.support_value, x1, x2, str(face.dim),
                         str(int(label == "non-exposed"))))
    write_csv(path, ["alpha", "support_value", "x1", "x2", "face_dim", "nonexposed_flag"], rows)


def boundary_svg(
    path: str, boundary: MeanValueBoundary, classes: BoundaryClassification | None
) -> None:
    """Fixed 800x800 drawing: boundary polyline plus non-exposed markers."""
    pts = [e for f in boundary.faces for e in (f.endpoints if f.dim else f.endpoints[:1])]
    arr = np.asarray(pts)
    center = (arr.max(axis=0) + arr.min(axis=0)) / 2.0
    half = max(float((arr.max(axis=0) - arr.min(axis=0)).max()) / 2.0, 1e-9)
    scale = 340.0 / half

    def to_svg(p) -> tuple[str, str]:
        x = 400.0 + scale * (p[0] - center[0])
        y = 400.0 - scale * (p[1] - center[1])
        return fmt(x), fmt(y)

    poly = " ".join(",".join(to_svg(p)) for p in pts)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
        f'<polygon points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    if classes is not None:
        for p in classes.nonexposed:
            x, y = to_svg(p)
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="6" fill="none" stroke="red" stroke-width="2"/>'
            )
        for p, label in classes.vertices:
            if label == "exposed":
                x, y = to_svg(p)
                parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    parts.append("</svg>")
    atomic_write(path, "\n".join(parts) + "\n")


def atlas_csv(path: str, atlas: ClosureAtlas) -> None:
    """One row per projector group with a representative state's entries."""
    header = ["alpha_lo", "alpha_hi", "projector_rank", "family_dim"]
    header += entry_header(atlas.family.offset)
    rows = []
    for g in atlas.groups:
        row: list = [g.alpha_lo, g.alpha_hi, str(g.rank), str(g.family_dim)]
        row += element_entries(g.representative.element)
        rows.append(row)
    write_csv(path, header, rows)


def report_csv(path: str, report: Report) -> None:
    rows = [
        (f.check, f.detail.replace(",", ";"), f.value, f.bound, str(int(f.ok)))
        for f in report.findings
    ]
    write_csv(path, ["check", "detail", "value", "bound", "ok"], rows)


def certificates_csv(path: str, candidates: list[SearchCandidate]) -> None:
    """State entries, residual, certified value, gradient norm per candidate."""
    if not candidates:
        atomic_write(path, "start_index\n")
        return
    header = entry_header(candidates[0].state.element)
    header += ["residual", "certified_value", "gradient_norm",
               "start_index", "value", "stationary", "projection_attained"]
    rows = []
    for c in candidates:
        cert = c.certificate
        row: list = element_entries(c.state.element)
        row += [
            cert.residual if cert else float("nan"),
            cert.certified_value if cert else float("nan"),
            cert.gradient_norm if cert else float("nan"),
            str(c.start_index),
            c.value,
            str(int(c.stationary)),
            str(int(c.projection_attained)),
        ]
        rows.append(row)
    write_csv(path, header, rows)
