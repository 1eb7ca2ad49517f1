import importlib.util
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_family
from qexpfam import cone
from qexpfam.boundary import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam.errors import PreconditionError, UnderResolvedSweepError
from qexpfam.family import make_family
from qexpfam.linalg import Algebra, diagonal, hs_inner
from qexpfam.states import State, max_eig_data


@pytest.fixture
def abelian_family(abelian3):
    gens = [
        diagonal(abelian3, [1.0, -1.0, 0.0]),
        diagonal(abelian3, [1.0, 1.0, -2.0]),
    ]
    return make_family(abelian3, gens)


class TestSweepBasics:
    def test_requires_2d(self, algebra):
        fam = make_family(algebra, [cone.PAULI[0]])
        with pytest.raises(PreconditionError):
            mean_value_boundary_sweep(fam)

    def test_deterministic_order(self, staffelberg):
        b = mean_value_boundary_sweep(staffelberg, 90)
        alphas = [f.alpha for f in b.faces]
        assert alphas == sorted(alphas)


class TestAbelianTriangle:
    def test_vertices_are_simplex_corners(self, abelian_family, abelian3):
        # every point face projects a vertex of the probability simplex
        b = mean_value_boundary_sweep(abelian_family, 360)
        corners = [
            np.array([
                hs_inner(State(diagonal(abelian3, e)).element, v)
                for v in abelian_family.basis
            ])
            for e in ([1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0])
        ]
        for f in b.faces:
            if f.dim == 0:
                p = np.array(f.endpoints[0])
                assert min(np.linalg.norm(p - c) for c in corners) < 1e-9

    def test_three_edges_no_nonexposed(self, abelian_family):
        b = mean_value_boundary_sweep(abelian_family, 360)
        classes = classify_boundary_faces(b)
        # dedup segments by their endpoint pair
        segs = set()
        for s in b.segments():
            key = tuple(
                sorted(tuple(round(x, 8) for x in e) for e in s.endpoints)
            )
            segs.add(key)
        assert len(segs) == 3
        assert classes.n_nonexposed == 0


class TestConePlanes:
    def test_staffelberg_angle_is_pure_ellipse(self, staffelberg):
        b = mean_value_boundary_sweep(staffelberg, 720)
        assert len(b.segments()) == 0
        assert classify_boundary_faces(b).n_nonexposed == 0

    def test_corner_angle_has_two_nonexposed(self):
        fam = cone.plane_for_angle(np.pi / 6.0)
        b = mean_value_boundary_sweep(fam, 720)
        classes = classify_boundary_faces(b)
        assert classes.n_nonexposed == 2
        assert len(b.segments()) >= 2

    def test_steep_angle_is_ellipse(self):
        fam = cone.plane_for_angle(5.0 * np.pi / 12.0)
        b = mean_value_boundary_sweep(fam, 720)
        assert classify_boundary_faces(b).n_nonexposed == 0
        assert len(b.segments()) == 0


class TestSupportFunctionConsistency:
    @pytest.mark.parametrize("phi", [0.0, np.pi / 6.0, np.pi / 3.0, np.pi / 2.0])
    def test_max_over_extreme_points(self, phi):
        fam = cone.plane_for_angle(phi)
        b = mean_value_boundary_sweep(fam, 360)
        pts = np.array([e for f in b.faces for e in f.endpoints])
        for f in b.faces[:: max(1, len(b.faces) // 60)]:
            direction = np.array([np.cos(f.alpha), np.sin(f.alpha)])
            best = float(np.max(pts @ direction))
            assert abs(best - f.support_value) <= 1e-9


class TestUnderResolution:
    def test_four_angles_rejected(self):
        fam = cone.plane_for_angle(np.pi / 6.0)
        b = mean_value_boundary_sweep(fam, 4)
        with pytest.raises(UnderResolvedSweepError):
            classify_boundary_faces(b)


def _n_nonexposed(family) -> int:
    return classify_boundary_faces(mean_value_boundary_sweep(family)).n_nonexposed


def _rotated(family, theta: float):
    """The same plane spanned by the basis rotated by theta."""
    v1, v2 = family.basis
    c, s = float(np.cos(theta)), float(np.sin(theta))
    return make_family(family.algebra, [c * v1 + s * v2, -s * v1 + c * v2])


class TestNonexposedByCurvature:
    """Segment endpoints are classified by their curvature radius, not by the
    distance to the nearest grid-angle point face."""

    def test_every_tilt_below_pi_over_3_has_two(self):
        phis = np.linspace(0.0, np.pi / 3.0, 202)[1:-1]
        counts = {float(phi): _n_nonexposed(cone.plane_for_angle(phi)) for phi in phis}
        assert {phi: n for phi, n in counts.items() if n != 2} == {}

    @pytest.mark.parametrize("phi, expected", [
        (0.03, 2), (0.8255269040265483, 2),
        (0.0, 0), (np.pi / 3.0, 0), (1.2, 0), (np.pi / 2.0, 0),
    ])
    def test_named_tilts(self, phi, expected):
        assert _n_nonexposed(cone.plane_for_angle(phi)) == expected

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.sampled_from([0.03, 0.8255269040265483, np.pi / 6.0]), st.floats(0.0, np.pi))
    def test_basis_rotation_leaves_count(self, phi, theta):
        assert _n_nonexposed(_rotated(cone.plane_for_angle(phi), theta)) == 2

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.integers(0, 2**32 - 1))
    def test_commutative_families_are_polygons(self, seed):
        rng = np.random.default_rng(seed)
        algebra = Algebra((1, 1, 1, 1))
        fam = make_family(algebra, [diagonal(algebra, rng.normal(size=4)) for _ in range(2)])
        boundary = mean_value_boundary_sweep(fam)
        assert classify_boundary_faces(boundary).n_nonexposed == 0
        assert np.all(boundary.faces.radii == 0.0)

    def test_square_crossing_at_angle_zero_counted_once(self):
        # the crossing at grid angle 0 comes back from the last bracket just
        # below 2 pi; it must match the grid angle across the wrap
        algebra = Algebra((1, 1, 1, 1))
        fam = make_family(algebra, [diagonal(algebra, [1.0, -1.0, 1.0, -1.0]),
                                    diagonal(algebra, [1.0, 1.0, -1.0, -1.0])])
        boundary = mean_value_boundary_sweep(fam)
        assert len(boundary.faces) == 720
        assert len(boundary.segments()) == 4


def _exposed_point(family, alpha: float) -> np.ndarray:
    """Mean value of the top eigenvector of u(alpha), from max_eig_data."""
    v1, v2 = family.basis
    _, p = max_eig_data(float(np.cos(alpha)) * v1 + float(np.sin(alpha)) * v2)
    assert p.rank == 1
    return np.array([hs_inner(p.element, v1), hs_inner(p.element, v2)])


@pytest.mark.parametrize("family", [
    cone.plane_for_angle(0.03),
    cone.plane_for_angle(np.pi / 6.0),
    cone.plane_for_angle(0.8255269040265483),
    cone.swallow_family(),
], ids=["phi0.03", "phi_pi/6", "phi0.8255", "swallow"])
def test_curvature_radius_matches_finite_differences(family):
    # the endpoint at the low (high) side of a segment is the limit of the
    # points exposed just below (above) its direction, approached at speed r
    delta = 1e-5
    segments = mean_value_boundary_sweep(family).segments()
    assert len(segments) == 2
    radii = []
    for seg in segments:
        for side, end, r in zip((-1.0, 1.0), seg.endpoints, seg.radii):
            moved = _exposed_point(family, seg.alpha + side * delta)
            fd = float(np.linalg.norm(moved - np.array(end))) / delta
            if r == 0.0:
                assert fd <= 1e-9
            else:
                assert abs(fd - r) <= 1e-4 * r
            radii.append(r)
    # each segment joins one exposed corner (radius exactly 0) to one tangent point
    assert sorted(r > 0.0 for r in radii) == [False, False, True, True]


def test_apex_radius_is_exactly_zero():
    boundary = mean_value_boundary_sweep(cone.plane_for_angle(0.03))
    apex = np.array([hs_inner(cone.APEX_STATE.element, v)
                     for v in boundary.family.basis])
    ends = [(np.array(e), r) for f in boundary.segments()
            for e, r in zip(f.endpoints, f.radii)]
    at_apex = [r for e, r in ends if np.linalg.norm(e - apex) < 1e-9]
    assert len(at_apex) == 2 and at_apex == [0.0, 0.0]


def test_trace_hook_reads_face_counts():
    # the benchmark's --trace 1 counts faces and refined rows of every sweep
    # through this hook; it must keep working on the face records
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = types.SimpleNamespace(counts=Counter())
    fam = random_family(Algebra((1, 1, 1, 1)), 2, np.random.default_rng(139))
    hook = tracing.AFTER_HOOKS["boundary.mean_value_boundary_sweep"]
    hook(tracer, mean_value_boundary_sweep(fam, 720))
    assert tracer.counts == Counter({"boundary.faces": 724, "boundary.refined": 4})
