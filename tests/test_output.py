"""The row-template writers against the per-cell reference, byte for byte.

The reference writers below format every cell with its own fmt call and
build the atlas representatives one eigendecomposition per group; the
package's writers fill one "%.17g" row template per row from stacked
columns and reconstruct rank-one representatives stacked.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qexpfam import cone, output
from qexpfam.boundary import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam.closures import geodesic_closure_atlas
from qexpfam.config import element_entries
from qexpfam.findings import Report
from qexpfam.linalg import Algebra
from qexpfam.maximizer import local_max_search, maximizer_certificate
from qexpfam.output import entry_header, fmt
from qexpfam.sampling import random_family, random_state
from qexpfam.states import Projector, _rank_one_state

# -- the per-cell reference -------------------------------------------------------


def ref_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def ref_boundary_csv(boundary) -> str:
    rows = []
    f = boundary.faces
    for alpha, mu, ends, dim, flags in zip(f.alpha, f.support_value, f.endpoints, f.dim,
                                           boundary.nonexposed()):
        for (x1, x2), flag in zip(ends[:dim + 1], flags):
            rows.append((alpha, mu, x1, x2, str(dim), str(int(flag))))
    return ref_csv(["alpha", "support_value", "x1", "x2", "face_dim", "nonexposed_flag"], rows)


def ref_boundary_svg(boundary, classes) -> str:
    f = boundary.faces
    pts = [e for ends, dim in zip(f.endpoints, f.dim) for e in ends[:dim + 1]]
    arr = np.asarray(pts)
    center = (arr.max(axis=0) + arr.min(axis=0)) / 2.0
    half = max(float((arr.max(axis=0) - arr.min(axis=0)).max()) / 2.0, 1e-9)
    scale = 340.0 / half

    def to_svg(p):
        return (fmt(400.0 + scale * (p[0] - center[0])),
                fmt(400.0 - scale * (p[1] - center[1])))

    poly = " ".join(",".join(to_svg(p)) for p in pts)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">',
        '<rect width="800" height="800" fill="white"/>',
        f'<polygon points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for p in classes.nonexposed:
        x, y = to_svg(p)
        parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="none" stroke="red" stroke-width="2"/>')
    for p, label in classes.vertices:
        if label == "exposed":
            x, y = to_svg(p)
            parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ref_representative(g):
    """The per-group construction: one eigh of the projector block per group."""
    if g.rank == 1:
        k, p = next((k, b) for k, b in enumerate(g.projector.element.blocks)
                    if b.trace().real > 0.5)
        return _rank_one_state(g.parent.algebra, k, np.linalg.eigh(p)[1][:, ::-1])
    return g.family.member(np.zeros(g.family.dim))


def ref_atlas_csv(atlas) -> str:
    header = ["alpha_lo", "alpha_hi", "projector_rank", "family_dim"]
    header += entry_header(atlas.family.offset)
    rows = [[g.alpha_lo, g.alpha_hi, str(g.rank), str(g.family_dim)]
            + element_entries(ref_representative(g).element) for g in atlas.groups]
    return ref_csv(header, rows)


def ref_report_csv(report) -> str:
    rows = [(f.check, f.detail.replace(",", ";"), f.value, f.bound, str(int(f.ok)))
            for f in report.findings]
    return ref_csv(["check", "detail", "value", "bound", "ok"], rows)


def ref_certificates_csv(candidates) -> str:
    header = entry_header(candidates[0].state.element)
    header += ["residual", "certified_value", "gradient_norm",
               "start_index", "value", "stationary", "projection_attained"]
    rows = []
    for c in candidates:
        cert = c.certificate
        rows.append(element_entries(c.state.element) + [
            cert.residual if cert else float("nan"),
            cert.certified_value if cert else float("nan"),
            cert.gradient_norm if cert else float("nan"),
            str(c.start_index), c.value, str(int(c.stationary)),
            str(int(c.projection_attained)),
        ])
    return ref_csv(header, rows)


# -- families ---------------------------------------------------------------------


def _family(name):
    if name == "staffelberg":
        return cone.staffelberg_family()
    if name == "swallow":
        return cone.swallow_family()
    if name.startswith("cone:"):
        return cone.plane_for_angle(float(name[5:]))
    dims, seed = name.split("@")
    algebra = Algebra(tuple(int(n) for n in dims.split(",")))
    return random_family(algebra, 2, np.random.default_rng(int(seed)))


def _written(tmp_path, writer, *args) -> str:
    path = tmp_path / "out"
    writer(str(path), *args)
    return path.read_text()


# -- writers against the reference ------------------------------------------------


@pytest.mark.parametrize("name", ["cone:0.0", "cone:0.03", "cone:0.5",
                                  f"cone:{np.pi / 3!r}", "cone:1.2", "swallow",
                                  "1,1,1,1@139"])
def test_boundary_files_match_reference(tmp_path, name):
    boundary = mean_value_boundary_sweep(_family(name))
    classes = classify_boundary_faces(boundary)
    assert _written(tmp_path, output.boundary_csv, boundary) == ref_boundary_csv(boundary)
    assert (_written(tmp_path, output.boundary_svg, boundary, classes)
            == ref_boundary_svg(boundary, classes))


@pytest.mark.parametrize("name", ["staffelberg", "swallow", "cone:0.7", "1,1,1,1@139"])
def test_atlas_csv_matches_reference(tmp_path, name):
    atlas = geodesic_closure_atlas(_family(name))
    if name == "1,1,1,1@139":
        assert any(g.rank == 2 for g in atlas.groups)
    assert _written(tmp_path, output.atlas_csv, atlas) == ref_atlas_csv(atlas)


def test_report_csv_matches_reference(tmp_path):
    report = cone.staffelberg_report(geodesic_closure_atlas(cone.staffelberg_family()))
    report.add("edge_values", "commas, in the detail", float("nan"), float("inf"))
    report.add("edge_values", "negative zero", -0.0, 5e-324, ok=False)
    report.add("edge_values", "integer value", 3, np.float64(0.1))
    assert _written(tmp_path, output.report_csv, report) == ref_report_csv(report)
    empty = Report(name="empty")
    assert _written(tmp_path, output.report_csv, empty) == ref_report_csv(empty)


def test_certificates_csv_matches_reference(tmp_path):
    family = cone.staffelberg_family()
    p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
    cands = local_max_search(family, p, n_starts=2, seed=7)
    rho = random_state(family.algebra, np.random.default_rng(5), invertible=True, min_eig=0.05)
    cands.append(dataclasses.replace(cands[0], start_index=2, state=rho,
                                     certificate=maximizer_certificate(rho, family)))
    assert any(c.certificate is None for c in cands)
    assert any(c.certificate is not None for c in cands)
    assert _written(tmp_path, output.certificates_csv, cands) == ref_certificates_csv(cands)


# -- the row template is fmt --------------------------------------------------------

_cells = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(min_value=-(2**80), max_value=2**80),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_cells, min_size=1, max_size=8))
@example([float("nan"), float("inf"), float("-inf"), 0.0, -0.0])
@example([5e-324, -5e-324, 2.2250738585072009e-308, np.float64(-1e-310)])
@example([np.float64("nan"), np.float64(-0.0), np.float64("inf"), 0, -7, 2**63])
def test_row_template_is_fmt(cells):
    text = output.csv_rows([output.NUM] * len(cells), [tuple(cells)])
    assert text == ",".join(fmt(x) for x in cells) + "\n"


# -- stacked rank-one representatives ------------------------------------------------


@pytest.mark.parametrize("name", ["staffelberg", "swallow", "2,2@4", "3,1@11"])
def test_stacked_representatives_are_the_per_group_states(name):
    atlas = geodesic_closure_atlas(_family(name))
    m = len(atlas.groups)
    stacked = np.concatenate([b.reshape(m, -1).view(np.float64)
                              for b in atlas.representative_blocks()], axis=1)
    ones = [i for i, g in enumerate(atlas.groups) if g.rank == 1]
    assert len(ones) > 100
    for i in ones:
        g = atlas.groups[i]
        old = np.array(element_entries(ref_representative(g).element))
        assert np.array_equal(stacked[i].view(np.int64), old.view(np.int64))
        new = np.array(element_entries(g.representative.element))
        assert np.array_equal(new.view(np.int64), old.view(np.int64))
