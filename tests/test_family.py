import numpy as np
import pytest

from qexpfam import cone
from qexpfam.errors import PreconditionError
from qexpfam.family import (
    distance_continuation,
    entropy_distance,
    exp1,
    free_energy,
    ln0,
    make_family,
    mean_value_projection,
    project_to_family,
    pythagorean_residual,
)
from qexpfam.linalg import Algebra, diagonal, hs_inner, identity, zero
from qexpfam.sampling import random_family, random_state, random_traceless
from qexpfam.states import State, relative_entropy, tracial_state


class TestExp1:
    def test_zero_gives_tracial(self, algebra):
        rho = exp1(zero(algebra))
        assert (rho.element - identity(algebra) / 3.0).norm() < 1e-14

    def test_trace_shift_invariance(self, algebra, rng):
        a = random_traceless(algebra, rng)
        shifted = a + 5.7 * identity(algebra)
        assert (exp1(a).element - exp1(shifted).element).norm() < 1e-12

    def test_scalar_oracle(self):
        # exp1(t s3 + 0) = diag(e^t, e^-t, 1) / (2 cosh t + 1)
        t = 0.9
        rho = exp1(t * cone.PAULI[2])
        z = 2.0 * np.cosh(t) + 1.0
        want = np.array([np.exp(t), np.exp(-t), 1.0]) / z
        got = np.array(
            [rho.element.blocks[0][0, 0].real, rho.element.blocks[0][1, 1].real,
             rho.element.blocks[1][0, 0].real]
        )
        assert np.allclose(got, want, atol=1e-14)

    def test_large_parameter_no_overflow(self, algebra):
        rho = exp1(400.0 * cone.PAULI[2])
        assert rho.support_rank >= 1


class TestLn0:
    def test_tracial_maps_to_zero(self, algebra):
        assert ln0(tracial_state(algebra)).norm() < 1e-14

    def test_roundtrip(self, algebra, rng):
        for _ in range(10):
            a = random_traceless(algebra, rng)
            assert (ln0(exp1(a)) - a).norm() <= 1e-10

    def test_singular_rejected(self):
        with pytest.raises(PreconditionError):
            ln0(cone.base_circle_state(0.0))


class TestFreeEnergy:
    def test_at_zero(self, algebra):
        f, grad = free_energy(zero(algebra))
        assert f == pytest.approx(np.log(3.0), abs=1e-14)
        assert (grad.element - identity(algebra) / 3.0).norm() < 1e-14

    def test_scalar_oracle(self):
        t = 1.3
        f, _ = free_energy(t * cone.PAULI[2])
        assert f == pytest.approx(np.log(2.0 * np.cosh(t) + 1.0), abs=1e-12)

    def test_gradient_finite_difference(self, algebra, rng):
        h = 1e-5
        for _ in range(10):
            a = random_traceless(algebra, rng)
            b = random_traceless(algebra, rng)
            _, grad = free_energy(a)
            analytic = hs_inner(b, grad.element)
            fp, _ = free_energy(a + h * b)
            fm, _ = free_energy(a - h * b)
            fd = (fp - fm) / (2.0 * h)
            assert abs(analytic - fd) <= 1e-7 * max(1.0, abs(fd))

    def test_equivariance(self, algebra, rng):
        a = random_traceless(algebra, rng)
        f0, _ = free_energy(a)
        f1, _ = free_energy(a + 2.5 * identity(algebra))
        assert f1 == pytest.approx(f0 + 2.5, abs=1e-12)


class TestMakeFamily:
    def test_basis_traceless_orthonormal(self, staffelberg):
        for i, v in enumerate(staffelberg.basis):
            assert abs(v.trace()) < 1e-12
            for j, w in enumerate(staffelberg.basis):
                want = 1.0 if i == j else 0.0
                assert hs_inner(v, w) == pytest.approx(want, abs=1e-12)

    def test_offset_orthogonal(self, algebra, rng):
        gens = [random_traceless(algebra, rng) for _ in range(2)]
        off = random_traceless(algebra, rng)
        fam = make_family(algebra, gens, offset=off)
        for v in fam.basis:
            assert abs(hs_inner(fam.offset, v)) < 1e-12
        assert abs(fam.offset.trace()) < 1e-12

    def test_rank_deficient_rejected(self, algebra, rng):
        a = random_traceless(algebra, rng)
        with pytest.raises(ValueError):
            make_family(algebra, [a, -3.0 * a])


class TestProjection:
    def test_family_member_projects_to_itself(self, staffelberg):
        rho = staffelberg.member([0.4, -0.8])
        res = project_to_family(rho, staffelberg)
        assert res.attained
        assert res.distance <= 1e-12
        assert (res.sigma_star.element - rho.element).norm() < 1e-8

    def test_orthogonality_random(self, staffelberg, rng):
        for _ in range(20):
            rho = random_state(cone.ALGEBRA, rng, invertible=True)
            res = project_to_family(rho, staffelberg)
            assert res.attained
            for v in staffelberg.basis:
                assert abs(hs_inner(rho.element - res.sigma_star.element, v)) <= 1e-9

    def test_hessian_positive_definite(self, staffelberg, rng):
        for _ in range(20):
            rho = random_state(cone.ALGEBRA, rng, invertible=True)
            res = project_to_family(rho, staffelberg)
            assert res.min_hessian_eig > 0.0

    def test_staffelberg_rho0_boundary(self, staffelberg):
        res = project_to_family(cone.base_circle_state(0.0), staffelberg, param_cap=80.0)
        assert not res.attained
        assert res.distance >= np.log(2.0) - 1e-12
        assert res.distance <= np.log(2.0) + 5e-3

    def test_distance_of_member_zero(self, staffelberg):
        value, attained = entropy_distance(staffelberg.member([0.3, 0.2]), staffelberg)
        assert attained
        assert value <= 1e-12

    @pytest.mark.parametrize("name", ["staffelberg", "swallow", "random"])
    def test_members_have_distance_exactly_zero(self, name):
        rng = np.random.default_rng(31)
        fam = {"staffelberg": cone.staffelberg_family, "swallow": cone.swallow_family,
               "random": lambda: random_family(Algebra((4, 4, 4, 4)), 6, rng)}[name]()
        for _ in range(30):
            member = fam.member(rng.normal(scale=4.0, size=fam.dim))
            assert entropy_distance(member, fam) == (0.0, True)

    def test_rho_pi_in_closure(self, staffelberg):
        res = project_to_family(cone.base_circle_state(np.pi), staffelberg, param_cap=80.0)
        assert not res.attained
        assert res.distance <= 1e-6

    def test_continuation_monotone(self, staffelberg):
        ladder = distance_continuation(
            cone.base_circle_state(0.0), staffelberg, caps=(10.0, 20.0, 40.0, 80.0)
        )
        values = [v for _, v, _ in ladder]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-9

    def test_distance_formula_matches_relative_entropy(self, staffelberg, rng):
        # attained case: solver value equals S(rho, sigma*) computed directly
        rho = random_state(cone.ALGEBRA, rng, invertible=True)
        res = project_to_family(rho, staffelberg)
        assert res.distance == pytest.approx(
            relative_entropy(rho, res.sigma_star), abs=1e-9
        )


class TestMeanValueProjection:
    def test_tracial_is_origin(self, staffelberg, algebra):
        m = mean_value_projection(tracial_state(algebra).element, staffelberg)
        assert np.allclose(m, 0.0, atol=1e-14)

    def test_projection_preserves_moments(self, staffelberg, rng):
        rho = random_state(cone.ALGEBRA, rng, invertible=True)
        res = project_to_family(rho, staffelberg)
        m1 = mean_value_projection(rho.element, staffelberg)
        m2 = mean_value_projection(res.sigma_star.element, staffelberg)
        assert np.allclose(m1, m2, atol=1e-9)

    def test_circle_quarter_coordinate(self, staffelberg):
        # <rho(pi/2), s1 + 0> = 1; the orthonormal coordinate rescales by |s1 + 0|
        rho = cone.base_circle_state(np.pi / 2.0)
        m = mean_value_projection(rho.element, staffelberg)
        raw = m[0] * cone.PAULI[0].norm()
        assert raw == pytest.approx(1.0, abs=1e-12)


def _orthogonal_perturbation(family, rng, scale):
    w = random_traceless(family.algebra, rng)
    for v in family.basis:
        w = w - hs_inner(w, v) * v
    return scale * w


class TestPythagoras:
    def test_degenerate_triple(self, staffelberg):
        rho = staffelberg.member([0.1, 0.1])
        assert pythagorean_residual(rho, rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_triples(self, staffelberg, rng):
        for _ in range(20):
            theta1 = rng.normal(size=2)
            theta2 = rng.normal(size=2)
            sigma = staffelberg.member(theta1)
            tau = staffelberg.member(theta2)
            w = _orthogonal_perturbation(staffelberg, rng, 1.0)
            lam = sigma.min_eigenvalue()
            rho = State(sigma.element + (0.5 * lam / max(w.norm(), 1e-12)) * w)
            assert pythagorean_residual(rho, sigma, tau) <= 1e-10

    def test_solver_projection_triple(self, staffelberg, rng):
        rho = random_state(cone.ALGEBRA, rng, invertible=True)
        res = project_to_family(rho, staffelberg)
        tau = staffelberg.member([0.7, -0.2])
        assert pythagorean_residual(rho, res.sigma_star, tau) <= 1e-9

    def test_precondition_violation(self, staffelberg, rng):
        sigma = staffelberg.member([0.0, 0.0])
        tau = staffelberg.member([1.0, 0.0])
        bad = random_state(cone.ALGEBRA, rng)  # not orthogonal to ln tau - ln sigma
        with pytest.raises(PreconditionError):
            pythagorean_residual(bad, sigma, tau)


class TestChartBijectivity:
    def test_moment_chart_roundtrip(self, staffelberg, rng):
        # a state off the family with the same moments projects back to the
        # same family member: ln0 ((pi_V|E)^-1 (pi_V(rho))) recovers theta
        for _ in range(10):
            theta = rng.normal(size=2)
            theta = theta / max(1.0, np.linalg.norm(theta) / 3.0)
            member = staffelberg.member(theta)
            w = _orthogonal_perturbation(staffelberg, rng, 1.0)
            lam = member.min_eigenvalue()
            rho = State(member.element + (0.4 * lam / max(w.norm(), 1e-12)) * w)
            res = project_to_family(rho, staffelberg, tol=1e-12)
            assert res.attained
            recovered = ln0(res.sigma_star)
            assert (recovered - staffelberg.parameter_element(theta)).norm() <= 1e-8


class TestGeodesicMonotonicity:
    def test_distance_decreases_along_exposing_geodesic(self, staffelberg):
        # rho(0) lies in the face of u(0); S(rho(0), exp1(theta + t u)) is
        # strictly decreasing in t
        rho = cone.base_circle_state(0.0)
        u = cone.staffelberg_direction(0.0)
        theta = 0.3 * cone.PAULI[0]
        values = [
            relative_entropy(rho, exp1(theta + t * u)) for t in np.linspace(0.0, 6.0, 13)
        ]
        for a, b in zip(values, values[1:]):
            assert b < a


class TestAbelianFamily:
    def test_diagonal_projection(self, abelian3, rng):
        gens = [
            diagonal(abelian3, [1.0, -1.0, 0.0]),
            diagonal(abelian3, [1.0, 1.0, -2.0]),
        ]
        fam = make_family(abelian3, gens)
        rho = State(diagonal(abelian3, [0.5, 0.3, 0.2]))
        res = project_to_family(rho, fam)
        # a full-dimensional diagonal family contains every invertible diagonal state
        assert res.attained
        assert res.distance <= 1e-10


class TestOffsetFamily:
    def test_projection_with_offset(self, algebra, rng):
        # affine parameter space: offset orthogonal to the tangent plane
        from qexpfam.sampling import random_state

        gens = [random_traceless(algebra, rng) for _ in range(2)]
        off = random_traceless(algebra, rng)
        fam = make_family(algebra, gens, offset=off)
        assert fam.offset.norm() > 1e-6  # genuinely affine
        member = fam.member([0.5, -0.7])
        res = project_to_family(member, fam)
        assert res.attained
        assert res.distance <= 1e-12
        rho = random_state(algebra, rng, invertible=True)
        res = project_to_family(rho, fam)
        assert res.attained
        for v in fam.basis:
            assert abs(hs_inner(rho.element - res.sigma_star.element, v)) <= 1e-9
        assert res.distance == pytest.approx(
            relative_entropy(rho, res.sigma_star), abs=1e-9
        )

    def test_pythagoras_with_offset(self, algebra, rng):
        gens = [random_traceless(algebra, rng) for _ in range(2)]
        off = random_traceless(algebra, rng)
        fam = make_family(algebra, gens, offset=off)
        sigma = fam.member([0.2, 0.1])
        tau = fam.member([-0.4, 0.6])
        # ln tau - ln sigma lies in V + R*identity, so w perp V suffices
        w = _orthogonal_perturbation(fam, rng, 1.0)
        lam = sigma.min_eigenvalue()
        rho = State(sigma.element + (0.4 * lam / max(w.norm(), 1e-12)) * w)
        assert pythagorean_residual(rho, sigma, tau) <= 1e-10


class TestLargerAlgebra:
    def test_projection_on_three_blocks(self, rng):
        from qexpfam.linalg import Algebra
        from qexpfam.sampling import random_family, random_state

        big = Algebra((3, 2, 1))
        fam = random_family(big, 3, rng)
        rho = random_state(big, rng, invertible=True)
        res = project_to_family(rho, fam)
        assert res.attained
        assert res.min_hessian_eig > 0.0
        for v in fam.basis:
            assert abs(hs_inner(rho.element - res.sigma_star.element, v)) <= 1e-9
        assert res.distance == pytest.approx(
            relative_entropy(rho, res.sigma_star), abs=1e-9
        )

    def test_roundtrips_on_three_blocks(self, rng):
        from qexpfam.linalg import Algebra
        from qexpfam.sampling import random_traceless

        big = Algebra((3, 2, 1))
        a = random_traceless(big, rng)
        assert (ln0(exp1(a)) - a).norm() <= 1e-10


class TestStopReason:
    """ProjectionResult.stop_reason records why the Newton loop ended."""

    def _interior(self, staffelberg):
        rng = np.random.default_rng(3)
        return random_state(staffelberg.algebra, rng, invertible=True, min_eig=0.05)

    def test_converged(self, staffelberg):
        res = project_to_family(self._interior(staffelberg), staffelberg)
        assert res.stop_reason == "converged"
        assert res.attained and res.grad_residual <= 1e-10

    def test_cap(self, swallow):
        # the apex is in the swallow's rI-closure but not in the family
        res = project_to_family(cone.APEX_STATE, swallow)
        assert res.stop_reason == "cap"
        assert res.cap_hit and not res.attained

    def test_stalled(self, staffelberg):
        # with tol 0 the gradient never counts as small; at the optimum the
        # Newton steps are rounding-sized and stop moving theta
        res = project_to_family(self._interior(staffelberg), staffelberg, tol=0.0)
        assert res.stop_reason == "stalled"
        assert not res.cap_hit

    def test_armijo_underflow(self, staffelberg, monkeypatch):
        from qexpfam import family as family_mod

        real = family_mod._objective_pieces

        def uphill(fam, theta, moments):
            # every trial point away from theta = 0 looks worse than the start
            obj, *rest = real(fam, theta, moments)
            return (obj + (1.0 if np.any(theta) else 0.0), *rest)

        monkeypatch.setattr(family_mod, "_objective_pieces", uphill)
        res = project_to_family(self._interior(staffelberg), staffelberg)
        assert res.stop_reason == "armijo_underflow"
        assert res.iterations == 1 and not np.any(res.theta_star)
