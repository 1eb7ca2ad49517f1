import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_family, random_support, random_unit_traceless, staffelberg_direction
from qexpfam import cone, defaults
from qexpfam.closures import geodesic_closure_atlas
from qexpfam.errors import PreconditionError
from qexpfam.family import exp1
from qexpfam.linalg import (Algebra, DirectionSweep, HermitianElement, diagonal, hs_inner,
                            identity)
from qexpfam.sampling import haar_unitary, random_hermitian, random_state, random_traceless
from qexpfam.states import (
    Projector,
    State,
    _exposed_face,
    compress,
    exposed_face_membership,
    max_eig_data,
    pinsker_gap,
    pure_state,
    relative_entropy,
    support_projector,
    tracial_state,
    vn_entropy,
)


class TestState:
    def test_clamps_tiny_negative(self, algebra):
        el = HermitianElement(
            algebra, [np.diag([1.0 + 5e-13, -5e-13]), np.array([[0.0]])]
        )
        rho = State(el)
        assert rho.spectral.all_eigenvalues().min() >= 0.0

    def test_rejects_negative(self, algebra):
        el = HermitianElement(algebra, [np.diag([1.1, -0.1]), np.array([[0.0]])])
        with pytest.raises(ValueError):
            State(el)
        # a non-finite eigenvalue in either block fails the checks too
        vectors = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
        for x in (np.nan, np.inf):
            for values in ([np.array([x, 0.5]), np.array([0.5])],
                           [np.array([0.5, 0.5]), np.array([x])]):
                with pytest.raises(ValueError, match="nan|inf"):
                    State._from_spectrum(algebra, values, vectors)

    def test_rejects_wrong_trace(self, algebra):
        with pytest.raises(ValueError):
            State(identity(algebra))

    def test_support_rank(self, algebra):
        assert cone.base_circle_state(0.0).support_rank == 1
        assert tracial_state(algebra).support_rank == 3


class TestProjector:
    def test_accepts_projector(self, algebra):
        p = Projector(cone.base_circle_state(0.3).element)
        assert p.rank == 1

    def test_rejects_non_idempotent(self, algebra):
        with pytest.raises(ValueError):
            Projector(0.5 * identity(algebra))


class TestVnEntropy:
    def test_pure_state(self):
        assert vn_entropy(cone.base_circle_state(1.1)) == pytest.approx(0.0, abs=1e-12)

    def test_tracial(self, algebra):
        assert vn_entropy(tracial_state(algebra)) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_midpoint_two_equal_eigenvalues(self):
        # c = rho(0)/2 + apex/2 has spectrum (1/2, 1/2, 0)
        assert vn_entropy(cone.midpoint_state()) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_range(self, algebra, rng):
        for _ in range(20):
            s = vn_entropy(random_state(algebra, rng, invertible=False))
            assert -1e-12 <= s <= np.log(algebra.dim) + 1e-12


class TestRelativeEntropy:
    def test_self_is_zero(self, algebra, rng):
        rho = random_state(algebra, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_rho0_to_c_is_ln2(self):
        got = relative_entropy(cone.base_circle_state(0.0), cone.midpoint_state())
        assert got == pytest.approx(np.log(2.0), abs=1e-12)

    def test_orthogonal_pures_infinite(self):
        a = cone.base_circle_state(0.0)
        b = cone.base_circle_state(np.pi)
        assert relative_entropy(a, b) == np.inf

    def test_nonnegative_zero_iff_equal(self, algebra, rng):
        for _ in range(40):
            rho = random_state(algebra, rng)
            sigma = random_state(algebra, rng)
            s = relative_entropy(rho, sigma)
            assert s >= 0.0
            if (rho.element - sigma.element).norm() > 1e-9:
                assert s > 0.0

    def test_joint_convexity_spot(self, algebra, rng):
        for _ in range(10):
            r1, r2 = random_state(algebra, rng), random_state(algebra, rng)
            s1, s2 = random_state(algebra, rng), random_state(algebra, rng)
            mix_r = State(0.5 * r1.element + 0.5 * r2.element)
            mix_s = State(0.5 * s1.element + 0.5 * s2.element)
            lhs = relative_entropy(mix_r, mix_s)
            rhs = 0.5 * relative_entropy(r1, s1) + 0.5 * relative_entropy(r2, s2)
            assert lhs <= rhs + 1e-10


class TestMaxEigData:
    def test_staffelberg_u0(self):
        # u(0) = s2 + 1 has top eigenvalue 1 with projector rho(0) + apex = 2c
        mu, p = max_eig_data(staffelberg_direction(0.0))
        assert mu == pytest.approx(1.0, abs=1e-14)
        want = cone.base_circle_state(0.0).element + cone.APEX
        assert (p.element - want).norm() < 1e-12
        assert p.rank == 2

    def test_sigma3(self):
        mu, p = max_eig_data(cone.PAULI[2])
        assert mu == 1.0
        assert p.rank == 1
        assert abs(p.element.blocks[0][0, 0] - 1.0) < 1e-14

    def test_identity(self, algebra):
        mu, p = max_eig_data(identity(algebra))
        assert mu == 1.0
        assert p.rank == algebra.dim

    @pytest.mark.parametrize("split, rank", [(0.5, 2), (2.0, 1)])
    def test_merge_threshold_across_blocks(self, split, rank):
        # top eigenvalues 1 in block 0 and 1 - split * MAX_EIG_GAP in block 1
        # merge exactly when they lie within MAX_EIG_GAP, in max_eig_data and
        # in a one-row sweep alike, and both build the same projector
        algebra = Algebra((2, 2))
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(2, 2)))[0]
        u = HermitianElement(algebra, [
            (q * [1.0, -0.3]) @ q.T, np.diag([1.0 - split * defaults.MAX_EIG_GAP, 0.2])])
        mu, p = max_eig_data(u)
        assert mu == pytest.approx(1.0, abs=1e-15)
        assert p.rank == rank
        ranks, blocks = DirectionSweep(u.blocks, [0.0 * b for b in u.blocks]).spectra(
            [0.0]).max_projectors()
        assert ranks.tolist() == [rank]
        assert all(np.array_equal(b[0], pb) for b, pb in zip(blocks, p.element.blocks))


class TestExposedFaceMembership:
    def test_rho0_in_face_of_u0(self):
        assert exposed_face_membership(
            cone.base_circle_state(0.0), staffelberg_direction(0.0)
        )

    def test_tracial_not_in_face(self, algebra):
        assert not exposed_face_membership(tracial_state(algebra), cone.PAULI[2])

    def test_top_eigenvector_in_face(self, algebra, rng):
        for _ in range(10):
            u = random_traceless(algebra, rng)
            spec_mu, p = max_eig_data(u)
            # take a pure state inside the maximal eigenspace
            for k, blk in enumerate(p.element.blocks):
                w, V = np.linalg.eigh(blk)
                if w[-1] > 0.5:
                    rho = pure_state(algebra, k, V[:, -1])
                    assert exposed_face_membership(rho, u)
                    break

    def test_criteria_agree_randomized(self, algebra, rng):
        # both characterizations decide identically on 1000 random pairs
        for _ in range(1000):
            rho = random_state(algebra, rng, invertible=False)
            u = random_unit_traceless(algebra, rng)
            exposed_face_membership(rho, u)  # raises on disagreement

    def test_zero_direction_rejected(self, algebra):
        from qexpfam.linalg import zero

        with pytest.raises(PreconditionError):
            exposed_face_membership(tracial_state(algebra), zero(algebra))


class TestCompress:
    def test_identity_compresses_to_zero(self, algebra):
        p = Projector(identity(algebra))
        _, cp = compress(p, identity(algebra))
        assert cp.norm() < 1e-14

    def test_swallow_generator(self):
        # p (s1 + 1) p = 0_2 + 1 for p = rho(0) + apex
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        pap, _ = compress(p, cone.PAULI[0] + cone.APEX)
        assert (pap - cone.APEX).norm() < 1e-12

    def test_staffelberg_tangent_collapses(self, staffelberg):
        # c^p kills the whole tangent space when p = 2c
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        for v in staffelberg.basis:
            _, cp = compress(p, v)
            assert cp.norm() < 1e-12

    def test_idempotent_on_corner(self, algebra, rng):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        a = random_traceless(algebra, rng)
        _, c1 = compress(p, a)
        _, c2 = compress(p, c1)
        assert (c1 - c2).norm() < 1e-12

    def test_self_adjoint_on_corner(self, algebra, rng):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        a = random_traceless(algebra, rng)
        b_raw = random_traceless(algebra, rng)
        b, _ = compress(p, b_raw)  # b in pAp
        _, ca = compress(p, a)
        _, cb = compress(p, b)
        assert hs_inner(ca, b) == pytest.approx(hs_inner(a, cb), abs=1e-12)

    def test_zero_projector_rejected(self, algebra):
        z = Projector(HermitianElement(algebra, [np.zeros((2, 2)), np.zeros((1, 1))]))
        with pytest.raises(PreconditionError):
            compress(z, identity(algebra))


class TestSupportProjector:
    def test_invertible(self, algebra, rng):
        rho = random_state(algebra, rng, invertible=True)
        assert support_projector(rho).rank == algebra.dim

    def test_pure(self):
        rho = cone.base_circle_state(0.7)
        p = support_projector(rho)
        assert (p.element - rho.element).norm() < 1e-12

    def test_midpoint(self):
        p = support_projector(cone.midpoint_state())
        want = cone.base_circle_state(0.0).element + cone.APEX
        assert (p.element - want).norm() < 1e-12


class TestPinskerGap:
    def test_equal_states(self, algebra, rng):
        rho = random_state(algebra, rng)
        assert pinsker_gap(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_bit_example(self):
        from qexpfam.linalg import Algebra

        A = Algebra((1, 1))
        point = State(diagonal(A, [1.0, 0.0]))
        fair = State(diagonal(A, [0.5, 0.5]))
        gap = pinsker_gap(point, fair)
        assert gap == pytest.approx(np.log(2.0) - 0.5, abs=1e-12)
        assert gap > 0.19

    def test_literal_constant_counterexample(self):
        # the reversed constant fails on the same pair: S/2 - t^2 = -0.653
        from qexpfam.linalg import Algebra
        from qexpfam.linalg import trace_norm

        A = Algebra((1, 1))
        point = State(diagonal(A, [1.0, 0.0]))
        fair = State(diagonal(A, [0.5, 0.5]))
        s = relative_entropy(point, fair)
        t = trace_norm(point.element - fair.element)
        literal_gap = 0.5 * s - t * t
        assert literal_gap == pytest.approx(-0.653, abs=1e-3)
        assert literal_gap < 0.0

    def test_nonnegative_randomized(self, algebra, rng):
        for _ in range(200):
            rho = random_state(algebra, rng, invertible=False)
            sigma = random_state(algebra, rng, invertible=False)
            assert pinsker_gap(rho, sigma) >= -1e-12


# -- states built from their spectrum -------------------------------------------

spectrum_dims = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda dims: 2 <= sum(dims) <= 8
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(spectrum_dims, st.integers(0, 2**32 - 1), st.floats(0.1, 6.0), st.booleans())
def test_gibbs_state_from_spectrum_matches_public_constructor(dims, seed, scale,
                                                              empty_first_block):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    a = random_hermitian(algebra, rng, scale)
    support = random_support(algebra, rng, empty_first_block)
    for s in (None, support):
        fast = exp1(a, s)
        public = State(fast.element)
        assert (fast.element - public.element).norm() <= 1e-13
        for w, v in zip(fast.spectral.eigenvalues, public.spectral.eigenvalues):
            assert np.max(np.abs(w - v), initial=0.0) <= 1e-13
        assert fast.support_rank == public.support_rank
    assert fast.spectral.all_eigenvalues().min() == 0.0


def test_from_spectrum_rejects_as_the_public_constructor(algebra):
    vectors = [np.eye(2, dtype=complex), np.eye(1, dtype=complex)]
    for values in ([np.array([1.1, -0.1]), np.zeros(1)],
                   [np.array([0.5, 0.3]), np.array([0.1])]):
        with pytest.raises(ValueError) as public:
            State(HermitianElement(algebra, [np.diag(w) for w in values]))
        with pytest.raises(ValueError) as fast:
            State._from_spectrum(algebra, values, vectors)
        assert str(fast.value) == str(public.value)


def _state_of_rank(algebra, rank, rng):
    """A state of the given support rank, its weights at least 0.1 / (0.1 rank + 1)
    on a random set of eigenvectors of Haar-random block bases."""
    w = np.zeros(algebra.dim)
    lam = 0.1 + rng.dirichlet(np.ones(rank))
    w[rng.permutation(algebra.dim)[:rank]] = lam / lam.sum()
    edges, blocks = np.cumsum((0,) + algebra.block_dims), []
    for k, l in zip(edges, edges[1:]):
        u = haar_unitary(l - k, rng)
        blocks.append((u * w[k:l]) @ u.conj().T)
    return State(HermitianElement(algebra, blocks))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda d: sum(d) <= 6),
       st.integers(0, 2**32 - 1))
def test_projectors_built_unchecked_pass_the_check(dims, seed):
    # support_projector, max_eig_data, _exposed_face and AtlasGroup.projector
    # take V_r V_r* of eigenvectors in hand without Projector's check; the
    # checked constructor accepts each of them, with the same rank
    algebra, rng = Algebra(tuple(dims)), np.random.default_rng(seed)
    built = []
    for rank in range(1, algebra.dim + 1):
        rho = _state_of_rank(algebra, rank, rng)
        q = support_projector(rho)
        assert q.rank == rho.support_rank == rank
        # rho is on the rank-r face of q + (1 - q) x (1 - q), |x| <= 1/2
        x = random_hermitian(algebra, rng)
        x = x / (2.0 * x.norm())
        v = HermitianElement(algebra, [qb + (np.eye(len(qb)) - qb) @ xb @ (np.eye(len(qb)) - qb)
                                       for qb, xb in zip(q.element.blocks, x.blocks)])
        face = _exposed_face(rho, v)
        assert face is not None and face.rank == rank
        u = random_hermitian(algebra, rng)
        built += [q, face, max_eig_data(u)[1], max_eig_data(v)[1]]
        built += [p for p in [_exposed_face(rho, u)] if p is not None]
    if algebra.real_dim >= 3:  # two independent traceless generators
        atlas = geodesic_closure_atlas(random_family(algebra, 2, rng), n_directions=32)
        built += [g.projector for g in atlas.groups]
    for p in built:
        assert Projector(p.element).rank == p.rank
