import numpy as np
import pytest
from helpers import (reference_base_circle_state, reference_cone_identity_residuals,
                     reference_random_state, reference_swallow_bilinear)

from qexpfam import cone, sampling, states
from qexpfam.boundary import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam.closures import geodesic_closure_atlas, reduce_distance_to_face
from qexpfam.errors import PreconditionError
from qexpfam.family import entropy_distance, exp1, make_family, mean_value_projection
from qexpfam.linalg import Algebra, HermitianElement, coords, hs_inner, identity
from qexpfam.states import State, max_eig_data


class TestConeConstants:
    def test_z_norm_squared(self):
        assert cone.Z.norm() ** 2 == pytest.approx(1.5, abs=1e-14)

    def test_z_orthogonal_to_base_plane(self):
        for i in (1, 2):
            assert hs_inner(cone.Z, cone.PAULI[i - 1]) == pytest.approx(0.0, abs=1e-14)

    def test_v3_orthogonal_to_staffelberg_tangent(self, staffelberg):
        v3 = cone.staffelberg_v3()
        for v in staffelberg.basis:
            assert hs_inner(v3, v) == pytest.approx(0.0, abs=1e-12)

    def test_v3_values_on_generating_line(self):
        v3 = cone.staffelberg_v3()
        assert hs_inner(cone.base_circle_state(0.0).element, v3) == pytest.approx(-1.0, abs=1e-14)
        assert hs_inner(cone.midpoint_state().element, v3) == pytest.approx(0.0, abs=1e-14)
        assert hs_inner(cone.APEX, v3) == pytest.approx(1.0, abs=1e-14)

    def test_tracial_on_axis(self):
        third = identity(cone.ALGEBRA) / 3.0
        height, radius = cone.cone_coordinates(third)
        assert radius == pytest.approx(0.0, abs=1e-14)
        assert height == pytest.approx(0.0, abs=1e-14)

    def test_contains_builds_no_state_after_first_call(self, monkeypatch):
        point = cone.project_to_slice(cone.midpoint_state().element)
        cone.contains(point)
        built = []
        for cls in (states.State, HermitianElement):
            def counting(self, *args, real=cls.__init__, name=cls.__name__):
                built.append(name)
                real(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        for _ in range(3):
            cone.contains(point)
            cone.boundary_distance(point)
        assert built == []

    def test_constants_built_once(self, monkeypatch):
        calls = []
        real = cone.embed_block

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(cone, "embed_block", counting)
        cone.cone_identity_residuals()
        cone.swallow_report()
        assert calls == []


class TestStackedStates:
    """The stacked samplers keep the bits of the per-state formulas, which
    other workloads build their inputs with."""

    @pytest.mark.parametrize("dims", [(2, 1), (2, 2), (4, 4, 4, 4)])
    @pytest.mark.parametrize("invertible", [True, False])
    def test_random_state_bits(self, dims, invertible):
        algebra = Algebra(dims)
        for seed in (0, 1, 2):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                want = reference_random_state(algebra, want_rng, invertible)
                got = sampling.random_state(algebra, got_rng, invertible)
                for x, y in zip(want.element.blocks + want.spectral.eigenvalues,
                                got.element.blocks + got.spectral.eigenvalues):
                    assert x.tobytes() == y.tobytes()
            assert want_rng.random() == got_rng.random()

    def test_base_circle_state_bits(self):
        for alpha in np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False):
            want, got = reference_base_circle_state(alpha), cone.base_circle_state(alpha)
            for x, y in zip(want.element.blocks + want.spectral.eigenvalues,
                            got.element.blocks + got.spectral.eigenvalues):
                assert x.tobytes() == y.tobytes()


class TestBaseCircle:
    def test_rho0_matches_definition(self):
        rho0 = cone.base_circle_state(0.0)
        want = 0.5 * (np.eye(2) + np.array([[0, -1j], [1j, 0]]))
        assert np.linalg.norm(rho0.element.blocks[0] - want) < 1e-14
        assert abs(rho0.element.blocks[1][0, 0]) < 1e-14

    def test_pure(self):
        for alpha in np.linspace(0.0, 2 * np.pi, 17):
            rho = cone.base_circle_state(alpha)
            b = rho.element.blocks[0]
            assert np.linalg.norm(b @ b - b) < 1e-12

    def test_antipodal_orthogonal(self):
        for alpha in (0.0, 0.4, 1.7):
            a = cone.base_circle_state(alpha)
            b = cone.base_circle_state(alpha + np.pi)
            assert hs_inner(a.element, b.element) == pytest.approx(0.0, abs=1e-12)


class TestPlanesAndAngles:
    def test_staffelberg_plane_subspace_equality(self, staffelberg):
        plane = cone.plane_for_angle(np.pi / 3.0)
        # compare tangent-space projectors in the coordinate representation
        def proj(fam):
            m = np.column_stack([coords(v) for v in fam.basis])
            return m @ m.T

        assert np.linalg.norm(proj(plane) - proj(staffelberg)) < 1e-12

    def test_phi_zero_contains_z(self):
        plane = cone.plane_for_angle(0.0)
        z = cone.Z
        proj = sum(hs_inner(z, v) ** 2 for v in plane.basis)
        assert proj == pytest.approx(z.norm() ** 2, abs=1e-12)
        assert cone.angle_of_plane(plane) == pytest.approx(0.0, abs=1e-7)

    def test_named_angles(self, staffelberg, swallow):
        assert cone.angle_of_plane(staffelberg) == pytest.approx(np.pi / 3.0, abs=1e-12)
        assert cone.angle_of_plane(swallow) == pytest.approx(
            np.arccos(np.sqrt(2.0 / 5.0)), abs=1e-12
        )

    def test_swallow_equivalent_plane_same_angle(self, swallow):
        plane = cone.plane_for_angle(np.arccos(np.sqrt(2.0 / 5.0)))
        assert cone.angle_of_plane(plane) == pytest.approx(
            cone.angle_of_plane(swallow), abs=1e-12
        )

    def test_plane_angle_roundtrip(self):
        for phi in np.linspace(0.0, np.pi / 2.0, 7):
            plane = cone.plane_for_angle(phi)
            assert cone.angle_of_plane(plane) == pytest.approx(phi, abs=1e-7)

    def test_plane_not_in_slice_rejected(self, algebra):
        fam = make_family(algebra, [cone.PAULI[0], cone.PAULI[2]])
        with pytest.raises(PreconditionError):
            cone.angle_of_plane(fam)

    def test_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            cone.plane_for_angle(-0.1)
        with pytest.raises(PreconditionError):
            cone.classify_by_angle(2.0)


class TestClassifyByAngle:
    def test_named_values(self):
        assert cone.classify_by_angle(0.0) is cone.MeanValueShape.TRIANGLE
        assert cone.classify_by_angle(np.pi / 6.0) is cone.MeanValueShape.ELLIPSE_WITH_CORNER
        assert cone.classify_by_angle(np.pi / 3.0) is cone.MeanValueShape.ELLIPSE
        assert cone.classify_by_angle(np.pi / 2.0) is cone.MeanValueShape.ELLIPSE

    def test_nonexposed_counts(self):
        assert cone.MeanValueShape.TRIANGLE.n_nonexposed == 0
        assert cone.MeanValueShape.ELLIPSE_WITH_CORNER.n_nonexposed == 2
        assert cone.MeanValueShape.ELLIPSE.n_nonexposed == 0

    def test_agrees_with_sweep_on_grid(self):
        # cross-validation of the closed-form classification against the
        # generic sweep: transitions exactly at 0 and pi/3
        for k in range(0, 31, 3):
            phi = k * np.pi / 60.0
            fam = cone.plane_for_angle(phi)
            boundary = mean_value_boundary_sweep(fam, 360)
            classes = classify_boundary_faces(boundary)
            assert classes.n_nonexposed == cone.classify_by_angle(phi).n_nonexposed, phi


class TestConeIdentities:
    def test_report_passes(self):
        report = cone.cone_identity_residuals(n_samples=120)
        assert report.ok, report.failures()

    @pytest.mark.parametrize("seed", [0, 3, 12345])
    @pytest.mark.parametrize("n_samples", [1, 7, 200])
    def test_stacked_checks_match_per_state(self, seed, n_samples):
        got = cone.cone_identity_residuals(n_samples, np.random.default_rng(seed))
        want = reference_cone_identity_residuals(n_samples, np.random.default_rng(seed))
        assert [(f.check, f.detail, f.ok) for f in got.findings] == \
            [(f.check, f.detail, f.ok) for f in want.findings]
        for g, w in zip(got.findings, want.findings):
            if g.check == "slice_intersection":
                assert g.value == w.value
            elif g.check == "interior_parameter_cap":
                assert g.value == pytest.approx(w.value, rel=1e-13, abs=0.0)
            else:
                assert abs(g.value - w.value) <= 1e-14, g.check

    def test_checks_stack_their_states(self, monkeypatch):
        """Decompositions and State constructions do not grow with n_samples."""
        counts = {}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        monkeypatch.setattr(states.State, "_fill", counting("state", states.State._fill))
        seen = []
        for n in (20, 200):
            counts.clear()
            cone.cone_identity_residuals(n, np.random.default_rng(1))
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["qr"] == 2  # one per block of the sampled states

    def test_apex_in_slice(self):
        # the apex already lies in (1/3)id + U, so projecting is exact
        third = identity(cone.ALGEBRA) / 3.0
        y = cone.project_to_slice(cone.APEX_STATE.element - third) + third
        assert (y - cone.APEX_STATE.element).norm() < 1e-12

    def test_axis_geodesic_reaches_apex(self):
        # exp1(t z) climbs the cone axis toward the apex
        for t, tol in ((10.0, 1e-3), (30.0, 1e-8)):
            rho = exp1(t * cone.Z)
            gap = (rho.element - cone.APEX_STATE.element).norm()
            assert gap < tol
        limit_mu, limit_p = max_eig_data(cone.Z)
        assert (limit_p.element - cone.APEX).norm() < 1e-12


class TestStaffelbergFamily:
    def test_basis_traceless(self, staffelberg):
        for v in staffelberg.basis:
            assert abs(v.trace()) < 1e-12

    def test_angle(self, staffelberg):
        assert cone.angle_of_plane(staffelberg) == pytest.approx(np.pi / 3.0, abs=1e-12)

    def test_axis_geodesic_covers_segment(self, staffelberg):
        # exp1(lambda (s2 + 1)) runs through the invertible states of [rho(pi), c]
        rho_pi = cone.base_circle_state(np.pi).element
        c = cone.midpoint_state().element
        for lam in (-3.0, -1.0, 0.0, 1.0, 3.0):
            sigma = exp1(lam * (cone.PAULI[1] + cone.APEX))
            # decompose in the segment: sigma = a rho_pi + b c + residual
            gram = np.array(
                [[hs_inner(rho_pi, rho_pi), hs_inner(rho_pi, c)],
                 [hs_inner(rho_pi, c), hs_inner(c, c)]]
            )
            rhs = np.array([hs_inner(sigma.element, rho_pi), hs_inner(sigma.element, c)])
            ab = np.linalg.solve(gram, rhs)
            recon = ab[0] * rho_pi + ab[1] * c
            assert (sigma.element - recon).norm() < 1e-10
            assert ab.min() > 0.0
            assert ab.sum() == pytest.approx(1.0, abs=1e-10)


class TestStaffelbergSigma:
    def test_t_zero_is_tracial(self):
        for alpha in (0.0, 1.0, 4.0):
            rho = cone.staffelberg_sigma(alpha, 0.0)
            assert (rho.element - identity(cone.ALGEBRA) / 3.0).norm() < 1e-14

    def test_closed_form_matches_exp1(self):
        # two independent code paths, machine-precision agreement
        worst = 0.0
        for alpha in np.linspace(0.0, 2 * np.pi, 24, endpoint=False):
            for t in (0.0, 0.5, 2.0, 10.0, 30.0, 50.0):
                closed = cone.staffelberg_sigma(alpha, t)
                direct = exp1(t * cone.staffelberg_direction(alpha))
                worst = max(worst, (closed.element - direct.element).norm())
        assert worst <= 1e-12

    def test_negative_t_rejected(self):
        with pytest.raises(PreconditionError):
            cone.staffelberg_sigma(0.0, -1.0)

    def test_v3_coordinate_nonpositive(self):
        v3 = cone.staffelberg_v3()
        for alpha in np.linspace(0.0, 2 * np.pi, 36, endpoint=False):
            for t in np.linspace(0.0, 50.0, 11):
                val = hs_inner(cone.staffelberg_sigma(alpha, t).element, v3)
                assert val <= 1e-12


class TestTauPath:
    def test_lambda_near_one_approaches_c(self):
        tau_sigma, tau = cone.staffelberg_tau_path(0.999, 1e5)
        assert (tau.element - cone.midpoint_state().element).norm() < 2e-3

    def test_half_at_1e4(self):
        sigma, tau = cone.staffelberg_tau_path(0.5, 1.0e4)
        assert (sigma.element - tau.element).norm() <= 1e-2

    def test_doubling_t_shrinks_error(self):
        for lam in (0.3, 0.5, 0.8):
            s1, tau = cone.staffelberg_tau_path(lam, 1.0e4)
            s2, _ = cone.staffelberg_tau_path(lam, 2.0e4)
            e1 = (s1.element - tau.element).norm()
            e2 = (s2.element - tau.element).norm()
            assert e2 < e1

    def test_tau_v3_coordinate(self):
        v3 = cone.staffelberg_v3()
        for lam in (0.2, 0.5, 0.9):
            _, tau = cone.staffelberg_tau_path(lam, 10.0)
            assert hs_inner(tau.element, v3) == pytest.approx(lam - 1.0, abs=1e-12)
            assert hs_inner(tau.element, v3) < 0.0

    def test_domain(self):
        with pytest.raises(PreconditionError):
            cone.staffelberg_tau_path(1.5, 10.0)
        with pytest.raises(PreconditionError):
            cone.staffelberg_tau_path(0.5, 0.0)


class TestSwallowFamily:
    def test_basis_traceless(self, swallow):
        for v in swallow.basis:
            assert abs(v.trace()) < 1e-12

    def test_angle(self, swallow):
        assert cone.angle_of_plane(swallow) == pytest.approx(
            np.arccos(np.sqrt(2.0 / 5.0)), abs=1e-12
        )

    def test_z_orthogonal_to_generator_difference(self, swallow):
        g1, g2 = swallow.generators
        assert hs_inner(cone.Z, g2 - g1) == pytest.approx(0.0, abs=1e-12)


class TestSwallowBilinear:
    def test_circle_identity(self):
        worst = max(
            abs(cone.swallow_bilinear(
                cone.base_circle_state(a).element, cone.base_circle_state(a).element
            ))
            for a in np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
        )
        assert worst <= 1e-12

    def test_circle_check_matches_per_state(self):
        alphas = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
        circle = cone.base_circle_blocks(alphas)
        got = cone.swallow_beta(circle, circle)
        want = []
        for a in alphas:
            e = reference_base_circle_state(a).element
            want.append(reference_swallow_bilinear(e, e))
        assert np.abs(got - want).max() <= 1e-14
        assert np.abs(got).max() == np.abs(want).max()

    def test_apex_pairings(self):
        apex = cone.APEX_STATE.element
        assert abs(cone.swallow_bilinear(cone.base_circle_state(0.0).element, apex)) <= 1e-12
        assert abs(
            cone.swallow_bilinear(cone.base_circle_state(np.pi / 2.0).element, apex)
        ) <= 1e-12

    def test_tracial_interior(self):
        third = identity(cone.ALGEBRA) / 3.0
        val = cone.swallow_bilinear(third, third)
        assert val == pytest.approx(-7.0 / 9.0, abs=1e-12)
        assert val < 0.0

    def test_tangent_points_are_circle_images(self, swallow):
        t1, t2 = cone.swallow_polar_tangents()
        m1 = mean_value_projection(cone.base_circle_state(0.0).element, swallow)
        m2 = mean_value_projection(cone.base_circle_state(np.pi / 2.0).element, swallow)
        assert np.allclose(t1, m1, atol=1e-14)
        assert np.allclose(t2, m2, atol=1e-14)


class TestReports:
    def test_staffelberg_report_ok(self):
        report = cone.staffelberg_report()
        assert report.ok, report.failures()
        exact = [f for f in report.findings if f.check == "distance_rho0_exact"]
        assert exact and exact[0].value <= 1e-9

    def test_swallow_report_ok(self):
        report = cone.swallow_report()
        assert report.ok, report.failures()

    def test_report_distances_equal_the_face_given_ones(self, staffelberg, swallow):
        # the 11 exact distances the two reports read from entropy_distance
        # equal, bit for bit, the reduction given the face's direction: the
        # Staffelberg generator s2 + 1 (traceless) and the swallow u(alpha)
        v = staffelberg.generators[1]
        assert all(x.tobytes() == y.tobytes() for x, y in zip(
            v.blocks, (cone.PAULI[1] + cone.APEX - cone.THIRD).blocks))
        rho0 = cone.base_circle_state(0.0)
        upper = State(0.5 * (cone.midpoint_state().element + cone.APEX))
        cases = [(State((1.0 - s) * rho0.element + s * cone.APEX), staffelberg, v)
                 for s in np.linspace(0.05, 0.95, 7)]
        cases += [(rho0, staffelberg, v), (upper, staffelberg, v)]
        cases += [(cone.base_circle_state(a), swallow, cone.swallow_direction(a))
                  for a in (0.0, np.pi / 2.0)]
        for rho, fam, u in cases:
            assert entropy_distance(rho, fam)[0] == reduce_distance_to_face(rho, fam, u)

    def test_swallow_corners_not_attained_in_their_segment_families(self, swallow):
        spikes = geodesic_closure_atlas(swallow).spike_groups()
        for alpha in (0.0, np.pi / 2.0):
            spike = min(spikes, key=lambda g: abs(g.alpha_lo % (2 * np.pi) - alpha))
            assert entropy_distance(cone.base_circle_state(alpha), spike.family) == (0.0, False)
