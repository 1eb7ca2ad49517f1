import dataclasses

import numpy as np
import pytest

from helpers import random_family, same_image
from qexpfam import cone, defaults, maximizer
from qexpfam.errors import PreconditionError
from qexpfam.family import (entropy_distance, make_compressed_family, make_family,
                            project_to_family)
from qexpfam.linalg import Algebra, diagonal, identity, traceless_part
from qexpfam.maximizer import (
    dE_directional_derivative,
    dlnp,
    local_max_search,
    maximizer_certificate,
)
from qexpfam.sampling import random_state, random_traceless
from qexpfam.states import (
    Projector,
    State,
    relative_entropy,
    support_projector,
)


class TestDirectionalDerivative:
    def test_zero_on_family(self, staffelberg, rng):
        rho = staffelberg.member([0.3, -0.4])
        for _ in range(5):
            u = random_traceless(cone.ALGEBRA, rng)
            assert dE_directional_derivative(rho, u, staffelberg) == pytest.approx(
                0.0, abs=1e-8
            )

    def test_matches_finite_difference(self, staffelberg, rng):
        h = 1e-4
        for _ in range(20):
            rho = random_state(cone.ALGEBRA, rng, invertible=True, min_eig=5e-2)
            u = random_traceless(cone.ALGEBRA, rng, 0.3)
            analytic = dE_directional_derivative(rho, u, staffelberg)
            dp, _ = entropy_distance(State(rho.element + h * u), staffelberg, tol=1e-12)
            dm, _ = entropy_distance(State(rho.element - h * u), staffelberg, tol=1e-12)
            fd = (dp - dm) / (2.0 * h)
            assert abs(analytic - fd) <= 1e-5 * max(1e-6, abs(fd))

    def test_abelian_classical_formula(self, abelian3, rng):
        # scalar oracle: derivative = sum_i u_i (ln p_i - theta_i)
        fam = make_family(abelian3, [diagonal(abelian3, [1.0, -1.0, 0.0])])
        p = np.array([0.5, 0.3, 0.2])
        rho = State(diagonal(abelian3, p))
        u_vec = np.array([0.2, -0.3, 0.1])
        u = diagonal(abelian3, u_vec)
        res = project_to_family(rho, fam)
        sigma = np.array([b[0, 0].real for b in res.sigma_star.element.blocks])
        theta = np.log(sigma) - np.log(sigma).sum() / 3.0
        want = float(np.dot(u_vec, np.log(p) - theta))
        got = dE_directional_derivative(rho, u, fam)
        assert got == pytest.approx(want, abs=1e-9)

    def test_requires_support(self, staffelberg):
        rho = cone.base_circle_state(0.3)  # rank one
        u = cone.PAULI[2]  # not supported in the face algebra

        def at_last_iterate(r, v, f):  # the projection of rho is not attained
            return maximizer._certificate(r, f, project_to_family(r, f)).derivative(v)

        for derivative in (dE_directional_derivative, at_last_iterate):
            with pytest.raises(PreconditionError):
                derivative(rho, u, staffelberg)

    def test_requires_attained_projection(self, staffelberg, abelian3):
        rho = cone.base_circle_state(0.0)
        u = traceless_part(
            cone.base_circle_state(0.0).element - cone.APEX
        )
        # u is supported in p A p for p = rho(0) + apex but projection recedes
        for derivative in (dE_directional_derivative,
                           lambda r, v, f: maximizer_certificate(r, f).derivative(v)):
            with pytest.raises(PreconditionError):
                derivative(
                    State(0.5 * cone.base_circle_state(0.0).element + 0.5 * cone.APEX),
                    u,
                    staffelberg,
                )


class TestDlnp:
    def test_commuting_diagonal_weights(self, abelian3):
        lam = np.array([0.6, 0.3, 0.1])
        rho = State(diagonal(abelian3, lam))
        u = diagonal(abelian3, [0.4, -0.1, -0.3])
        got = dlnp(rho, u)
        want = diagonal(abelian3, [0.4 / 0.6, -0.1 / 0.3, -0.3 / 0.1])
        assert (got - want).norm() < 1e-12

    def test_direction_rho_gives_support(self, algebra, rng):
        rho = random_state(algebra, rng, invertible=False)
        out = dlnp(rho, rho.element)
        assert (out - support_projector(rho).element).norm() < 1e-12

    def test_finite_difference(self, algebra, rng):
        from qexpfam.linalg import logm

        h = 1e-5
        for _ in range(5):
            rho = random_state(algebra, rng, invertible=True, min_eig=5e-2)
            u = random_traceless(algebra, rng, 0.3)
            got = dlnp(rho, u)
            fp = logm(State(rho.element + h * u).element + 0 * u)
            fm = logm(State(rho.element - h * u).element + 0 * u)
            fd = (fp - fm) / (2.0 * h)
            assert (got - fd).norm() <= 1e-7 * max(1.0, got.norm())

    def test_resolvent_integral_oracle(self, algebra, rng):
        # 1e4-point log-spaced quadrature of (rho + s p)^-1 u (rho + s p)^-1
        rho = random_state(algebra, rng, invertible=True, min_eig=5e-2)
        u = random_traceless(algebra, rng)
        got = dlnp(rho, u)
        s_grid = np.logspace(-8.0, 8.0, 10000)
        total = [np.zeros_like(b) for b in u.blocks]
        prev_s = 0.0
        for k, (rb, ub) in enumerate(zip(rho.element.blocks, u.blocks)):
            n = rb.shape[0]
            vals = []
            for s in s_grid:
                inv = np.linalg.inv(rb + s * np.eye(n))
                vals.append(inv @ ub @ inv)
            vals = np.array(vals)
            total[k] = np.trapezoid(vals, x=s_grid, axis=0)
            # head correction: integrand is about rho^-1 u rho^-1 below s_min
            inv0 = np.linalg.inv(rb)
            total[k] += s_grid[0] * inv0 @ ub @ inv0
        from qexpfam.linalg import HermitianElement

        quad = HermitianElement(algebra, total)
        assert (got - quad).norm() <= 1e-5 * max(1.0, got.norm())

    def test_unsupported_direction_rejected(self, staffelberg):
        rho = cone.base_circle_state(0.0)
        with pytest.raises(PreconditionError):
            dlnp(rho, cone.PAULI[0])


class TestCertificate:
    def test_family_member_trivial(self, staffelberg):
        rho = staffelberg.member([0.2, 0.5])
        cert = maximizer_certificate(rho, staffelberg)
        assert cert.residual <= 1e-8
        assert cert.certified_value == pytest.approx(0.0, abs=1e-9)
        assert cert.holds

    def test_consistency_invariant(self, staffelberg, rng):
        # whenever the condition holds, the certified value is the distance
        for _ in range(10):
            rho = random_state(cone.ALGEBRA, rng, invertible=True, min_eig=5e-2)
            cert = maximizer_certificate(rho, staffelberg)
            if cert.residual <= 1e-10:
                assert abs(cert.certified_value - cert.distance) <= 1e-8

    def test_abelian_truncation_renormalization(self, abelian3, rng):
        # the compressed member exp1^p(p theta p) is the conditional
        # distribution of the projection on the support (scalar oracle)
        fam = make_family(abelian3, [diagonal(abelian3, [1.0, -1.0, 0.0])])
        for lam in ([0.7, 0.3, 0.0], [0.4, 0.6, 0.0]):
            rho = State(diagonal(abelian3, lam))
            cert = maximizer_certificate(rho, fam)
            sigma = np.array([b[0, 0].real for b in
                              project_to_family(rho, fam).sigma_star.element.blocks])
            trunc = sigma * np.array([1.0, 1.0, 0.0])
            trunc = trunc / trunc.sum()
            candidate_oracle = diagonal(abelian3, trunc)
            residual_oracle = (rho.element - candidate_oracle).norm()
            assert cert.residual == pytest.approx(residual_oracle, abs=1e-10)

    def test_staffelberg_c_limit_certificate(self, staffelberg):
        # c = exp1^p(0); at the solver's limiting iterate the certified value
        # agrees with S(c, sigma*) although the projection is not attained
        c = cone.midpoint_state()
        with pytest.raises(PreconditionError):
            maximizer_certificate(c, staffelberg)
        res = project_to_family(c, staffelberg)
        cert = maximizer._certificate(c, staffelberg, res)
        direct = relative_entropy(c, res.sigma_star)
        assert cert.residual <= 1e-8
        assert cert.certified_value == pytest.approx(direct, abs=1e-8)


class TestLocalMaxSearch:
    def test_staffelberg_face_grid_oracle(self, staffelberg):
        # 1D brute force over the segment [rho(0), apex]
        c = cone.midpoint_state()
        grid = np.linspace(0.0, 1.0, 2001)
        values = []
        for s in grid:
            rho = State(
                (1.0 - s) * cone.base_circle_state(0.0).element + s * cone.APEX
            )
            values.append(relative_entropy(rho, c))
        best_grid = float(np.max(values))

        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        cands = local_max_search(staffelberg, p, n_starts=5)
        best = max(c.value for c in cands)
        assert best == pytest.approx(best_grid, abs=1e-6)
        assert best == pytest.approx(np.log(2.0), abs=1e-6)
        winner = max(cands, key=lambda c: c.value).state
        dist_ends = min(
            (winner.element - cone.base_circle_state(0.0).element).norm(),
            (winner.element - cone.APEX).norm(),
        )
        assert dist_ends <= 1e-6

    def test_full_family_distance_zero(self, algebra, rng):
        # with the whole traceless space as tangent space the distance
        # vanishes everywhere and the search reports zero
        gens = [random_traceless(algebra, rng) for _ in range(algebra.real_dim - 1)]
        from qexpfam.linalg import gram_schmidt

        fam = make_family(algebra, gram_schmidt(gens))
        p = Projector(identity(algebra))
        cands = local_max_search(fam, p, n_starts=3, max_steps=40)
        assert max(c.value for c in cands) <= 1e-8

    def test_proper_face_never_projects_onto_the_full_family(self, staffelberg, monkeypatch):
        # a state on a proper exposed face never attains its full-family
        # projection, so a search over one solves only in the face chain's
        # last family, and its candidates get no certificate
        families = []

        def spy(rho, family, *args, **kwargs):
            families.append(family)
            return project_to_family(rho, family, *args, **kwargs)

        monkeypatch.setattr(maximizer, "project_to_family", spy)
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        cands = local_max_search(staffelberg, p, n_starts=3)
        assert families and all(f is not staffelberg for f in families)
        assert all(same_image(f.support, p) for f in families)
        assert all(c.certificate is None for c in cands)

    def test_interior_search_solves_once_per_evaluation(self, rng, monkeypatch):
        # with an empty face chain each evaluation, a start or a trial step,
        # is one solve at RI_PARAM_CAP in the family itself, and a certificate
        # is built from the last of them: equal to a fresh certificate
        solves, trials = [], []
        real_trial = maximizer._project_face_state

        def spy_solve(rho, family, *args, **kwargs):
            solves.append((family, kwargs.get("param_cap")))
            return project_to_family(rho, family, *args, **kwargs)

        def spy_trial(p, a):
            trials.append(a)
            return real_trial(p, a)

        monkeypatch.setattr(maximizer, "project_to_family", spy_solve)
        monkeypatch.setattr(maximizer, "_project_face_state", spy_trial)
        for dims in ((2,), (3,), (2, 1), (2, 2), (1, 1, 1)):
            fam = random_family(Algebra(dims), 2, rng)
            solves.clear()
            trials.clear()
            cands = local_max_search(fam, Projector(identity(fam.algebra)), n_starts=3,
                                     max_steps=30)
            assert trials and len(solves) == len(cands) + len(trials)
            assert all(f is fam and cap == defaults.RI_PARAM_CAP for f, cap in solves)
            for c in cands:
                assert c.projection_attained and c.certificate is not None
                want = maximizer_certificate(c.state, fam)
                for field in dataclasses.fields(want):
                    a, b = getattr(c.certificate, field.name), getattr(want, field.name)
                    if isinstance(a, float):
                        assert a == b, field.name
                    else:  # State, Projector or HermitianElement
                        for x, y in zip(getattr(a, "element", a).blocks,
                                        getattr(b, "element", b).blocks):
                            assert np.array_equal(x, y), field.name

    def test_face_projector_is_decomposed_once(self, staffelberg, monkeypatch):
        # the image and kernel columns of p come from one eigh per block of p,
        # kept by p and shared by its compressed family; the face search, whose
        # family comes from the face chain, decomposes p once too
        decomposed, real_eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            decomposed.extend(b for b in p.element.blocks if a is b)
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        for _ in range(3):
            assert [q.shape[1] for q in p.columns] == [1, 1]
            assert [k.shape[1] for k in p.kernel] == [1, 0]
        assert len(decomposed) == p.algebra.n_blocks

        decomposed.clear()
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        assert make_compressed_family(staffelberg, p).support is p
        local_max_search(staffelberg, p, n_starts=2, max_steps=5)
        assert len(decomposed) == p.algebra.n_blocks

    def test_deterministic(self, staffelberg):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        a = local_max_search(staffelberg, p, n_starts=3, seed=7)
        b = local_max_search(staffelberg, p, n_starts=3, seed=7)
        for x, y in zip(a, b):
            assert x.value == y.value
            assert (x.state.element - y.state.element).norm() == 0.0
