"""Exposed faces in every commutant dimension: attainment, face chains, and
their oracle, monotonicity and invariance properties."""

import collections
import functools
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from qexpfam import cli, closures, cone, defaults, family, states
from qexpfam.boundary import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam.closures import rI_membership
from qexpfam.errors import PreconditionError
from qexpfam.family import (entropy_distance, face_chain, make_compressed_family, make_family,
                            mean_value_projection, project_to_family)
from qexpfam.linalg import Algebra, HermitianElement, coords, diagonal, hs_inner, trace_norm
from qexpfam.maximizer import maximizer_certificate
from qexpfam.sampling import haar_unitary, random_state, random_traceless
from qexpfam.states import State, pure_state, tracial_state


def _full_diagonal(n):
    """All invertible diagonal states of (1,)^n, generators e_i - e_n."""
    algebra = Algebra((1,) * n)
    eye = np.eye(n)
    return algebra, make_family(algebra, [diagonal(algebra, eye[i] - eye[-1])
                                          for i in range(n - 1)])


def _moment_family(points):
    """The abelian family whose mean value set is the convex hull of the
    rows of ``points``: coordinate j of the moments is generator j."""
    points = np.asarray(points, dtype=float)
    algebra = Algebra((1,) * len(points))
    return algebra, make_family(algebra, [diagonal(algebra, c) for c in points.T])


def _superfamily():
    return make_family(cone.ALGEBRA, [cone.PAULI[0] + cone.APEX,
                                      cone.PAULI[1] + cone.APEX, cone.PAULI[2]])


def _exact_distance(rho, family):
    """rho's distance, solved in the last family of its chain (attained)."""
    projectors, last = face_chain(rho, family)
    res = project_to_family(rho, last, param_cap=defaults.RI_PARAM_CAP)
    assert res.attained
    return res.distance, [p.rank for p in projectors]


class TestBoundaryStates:
    @pytest.mark.parametrize("p", [[0.3, 0.7, 0, 0], [0.3, 0.3, 0.4, 0],
                                   [0.3, 0.7, 0, 0, 0]])
    def test_singular_diagonal_state_is_not_attained(self, p):
        # the moments lie on the boundary of the simplex: no minimizer, though
        # Newton stops inside the cap with a tiny gradient
        algebra, fam = _full_diagonal(len(p))
        rho = State(diagonal(algebra, p))
        assert not project_to_family(rho, fam).attained
        with pytest.raises(PreconditionError):
            maximizer_certificate(rho, fam)

    def test_vertex_chain(self):
        algebra, fam = _full_diagonal(4)
        rho = State(diagonal(algebra, [1.0, 0, 0, 0]))
        assert not project_to_family(rho, fam).attained
        assert [p.rank for p in face_chain(rho, fam)[0]] == [1]

    def test_edge_chain(self):
        algebra, fam = _full_diagonal(5)
        rho = State(diagonal(algebra, [0.5, 0.5, 0, 0, 0]))
        assert [p.rank for p in face_chain(rho, fam)[0]] == [2]

    def test_superfamily_apex(self):
        # the commutant of the apex is 3-dimensional; the apex is exposed
        projectors, last = face_chain(cone.APEX_STATE, _superfamily())
        assert [p.rank for p in projectors] == [1]
        assert last.dim == 0
        assert rI_membership(cone.APEX_STATE, _superfamily())

    def test_point_inside_an_edge(self):
        # (1/2, 1/2, 0) lies inside the edge of the tetrahedron between its
        # first two vertices: the smallest face holds coordinates 1, 2 and 5
        algebra, fam = _moment_family([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1],
                                       [0.5, 0.5, 0]])
        rho = State(diagonal(algebra, [0, 0, 0, 0, 1.0]))
        distance, ranks = _exact_distance(rho, fam)
        assert ranks == [3]
        assert distance == pytest.approx(np.log(3.0), abs=1e-12)


def _base_disk_state(a, b, t):
    """(1 - t) rho(a) + t rho(b), a chord of the base circle: the base disk."""
    return State((1.0 - t) * cone.base_circle_state(a).element
                 + t * cone.base_circle_state(b).element)


class TestConeFrameFamily:
    """The 3D family spanned by sigma1, sigma2 and z (cone.FRAME): its mean
    value set is the cone over the base disk with the apex on top, and each
    state in the span of the frame and the identity is at distance zero.
    The face chain names the smallest face holding it: the apex or a rim
    point (rank 1), the base disk or a ruling (rank 2), none inside."""

    family = make_family(cone.ALGEBRA, list(cone.FRAME))

    @pytest.mark.parametrize("label, rho, ranks", [
        ("apex", cone.APEX_STATE, [1]),
        ("rim", cone.base_circle_state(0.3), [1]),
        ("rim", cone.base_circle_state(4.0), [1]),
        ("base disk", _base_disk_state(0.3, 2.0, 0.5), [2]),
        ("base disk", _base_disk_state(0.0, np.pi, 0.3), [2]),
        ("ruling", cone.tau_state(0.5), [2]),
        ("tracial", tracial_state(cone.ALGEBRA), []),
    ])
    def test_face_chain_and_zero_distance(self, label, rho, ranks):
        assert [p.rank for p in face_chain(rho, self.family)[0]] == ranks, label
        distance, attained = entropy_distance(rho, self.family)
        assert abs(distance) <= 1e-12, label
        assert attained == (ranks == []), label

    def test_a_sigma3_state_is_off_the_family(self):
        # a block-0 state with a sigma3 component also sits on the base
        # disk's face, but sigma3 is no tangent direction: distance 0.082
        rho = State(HermitianElement(cone.ALGEBRA, [np.diag([0.7, 0.3]), np.zeros((1, 1))]))
        assert [p.rank for p in face_chain(rho, self.family)[0]] == [2]
        assert entropy_distance(rho, self.family)[0] == pytest.approx(0.0822828785, abs=1e-9)


def _minimal_face(points, support):
    """(on the boundary, indices of the smallest face holding the support)
    of the polytope spanned by integer ``points``, by brute force over the
    facet hyperplanes through d of them (integer cofactor normals)."""
    n, d = points.shape
    lifted = np.hstack([points, np.ones((n, 1), dtype=int)])
    face, boundary = set(range(n)), False
    for rows in itertools.combinations(range(n), d):
        sub = lifted[list(rows)]
        normal = np.array([(-1) ** k * round(np.linalg.det(np.delete(sub, k, axis=1)))
                           for k in range(d + 1)])
        values = lifted @ normal
        if not normal.any() or (values.min() < 0 < values.max()):
            continue
        on = set(np.flatnonzero(values == 0).tolist())
        if set(support) <= on:
            face, boundary = face & on, True
    return boundary, face


def _polytope_case(n, d, seed):
    """A full-dimensional integer polytope family and a state on a random support."""
    rng = np.random.default_rng(seed)
    while True:
        points = rng.integers(-2, 3, size=(n, d))
        try:
            algebra, fam = _moment_family(points)
            break
        except ValueError:  # points in a hyperplane: a lower-dimensional family
            continue
    support = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    weights = np.zeros(n)
    weights[support] = rng.dirichlet(np.ones(len(support)))
    return points, support, fam, State(diagonal(algebra, weights))


class TestAbelianOracle:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(4, 7), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_attainment_and_chain_match_the_facets(self, n, d, seed):
        # attained exactly when the moments are interior; on the boundary the
        # chain is the one face holding every point on the smallest face
        d = min(d, n - 1)
        points, support, fam, rho = _polytope_case(n, d, seed)
        boundary, face = _minimal_face(points, support)
        assert project_to_family(rho, fam).attained == (not boundary)
        projectors, _ = face_chain(rho, fam)
        assert [p.rank for p in projectors] == ([len(face)] if boundary else [])


def _gibbs_on_face_distance(points, weights, face):
    """D(p || q*) at 30 digits, q* the Gibbs distribution on the points of
    ``face`` with p's mean: its moment equations are solved by mpmath in
    integer coordinates y_i = <b, x_i> over directions b spanning the face."""
    idx = sorted(face)
    dirs = []
    for i in idx[1:]:
        cand = dirs + [points[i] - points[idx[0]]]
        if np.linalg.matrix_rank(np.array(cand)) == len(cand):
            dirs = cand
    with mpmath.workdps(30):
        y = [[mpmath.mpf(int(b @ points[i])) for b in dirs] for i in idx]
        p = [mpmath.mpf(float(weights[i])) for i in idx]
        mean = [mpmath.fsum(pi * yi[j] for pi, yi in zip(p, y)) for j in range(len(dirs))]

        def gibbs(c):
            e = [mpmath.exp(mpmath.fsum(cj * yj for cj, yj in zip(c, yi))) for yi in y]
            return [ei / mpmath.fsum(e) for ei in e]

        def moments(*c):
            q = gibbs(c)
            return [mpmath.fsum(qi * yi[j] for qi, yi in zip(q, y)) - mean[j]
                    for j in range(len(dirs))]

        c = []
        if dirs:
            root = mpmath.findroot(moments, [mpmath.mpf(0)] * len(dirs),
                                   tol=mpmath.mpf(10) ** -50, maxsteps=100)
            c = [root[j] for j in range(len(dirs))]
        q = gibbs(c)
        return float(mpmath.fsum(pi * mpmath.log(pi / qi) for pi, qi in zip(p, q) if pi))


class TestAbelianDistanceOracle:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(4, 7), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_distance_is_the_gibbs_distribution_on_the_smallest_face(self, n, d, seed):
        # classical closures face by face (Csiszar & Matus): the closure
        # member nearest p is the Gibbs distribution on the smallest face
        # holding p's support, with p's mean
        d = min(d, n - 1)
        points, support, fam, rho = _polytope_case(n, d, seed)
        _, face = _minimal_face(points, support)
        weights = [b[0, 0].real for b in rho.element.blocks]
        want = _gibbs_on_face_distance(points, weights, face)
        assert entropy_distance(rho, fam)[0] == pytest.approx(want, abs=1e-10)


class TestFinderAskedOnce:
    @pytest.fixture
    def asked(self, monkeypatch):
        """The (rho, family) pairs put to the face finder, by identity."""
        pairs = []
        real = family._exposing_direction

        def counting(rho, fam):
            pairs.append((rho, fam))
            return real(rho, fam)

        monkeypatch.setattr(family, "_exposing_direction", counting)
        return pairs

    @staticmethod
    def _repeats(pairs):
        keys = [(id(rho), id(fam)) for rho, fam in pairs]
        return len(keys) - len(set(keys))

    @pytest.mark.parametrize("make, alpha", [(cone.staffelberg_family, 0.0),
                                             (cone.swallow_family, 0.0),
                                             (cone.swallow_family, 0.7)])
    def test_rI_membership(self, asked, make, alpha):
        rI_membership(cone.base_circle_state(alpha), make())
        assert asked and self._repeats(asked) == 0

    @pytest.mark.parametrize("state", ["circle:0", "c", "apex", "tau:0.6", "circle:1.3"])
    def test_distance_command(self, asked, tmp_path, state):
        assert cli.main(["distance", "--state", state, "--out", str(tmp_path),
                         "--quiet"]) == 0
        assert asked and self._repeats(asked) == 0


@pytest.mark.parametrize("make", [cone.staffelberg_family, cone.swallow_family])
def test_face_chain_decomposes_each_direction_once(monkeypatch, make):
    # each direction that decides a face is decomposed once: the decision
    # kernel reads both criteria and the maximal projector off one eigh
    chains, real_chain, real_top = [], closures.face_chain, states._maximal_projector

    def chain(rho, fam):
        chains.append([])
        return real_chain(rho, fam)

    def decompose(u):
        chains[-1].append(b"".join(b.tobytes() for b in u.blocks))
        return real_top(u)

    monkeypatch.setattr(closures, "face_chain", chain)
    for module in (family, states):
        monkeypatch.setattr(module, "_maximal_projector", decompose)
    fam = make()
    for alpha in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
        rI_membership(cone.base_circle_state(alpha), fam)
    assert len(chains) == 20 and any(chains)
    assert all(len(set(c)) == len(c) for c in chains)


def test_face_chain_builds_projectors_only_for_supports_and_faces(monkeypatch):
    # a candidate direction that misses the state builds no Projector: the
    # only ones are the state's support projector and one per chain face,
    # checked (__init__) or built from eigenvectors in hand (_trusted)
    counts = {}
    real_init, real_support = states.Projector.__init__, family.support_projector
    real_trusted = states.Projector._trusted
    real_face, real_chain = family._exposed_face, closures.face_chain

    def init(self, element):
        counts["projector"] += 1
        real_init(self, element)

    def trusted(cls, element, rank):
        counts["projector"] += 1
        return real_trusted(element, rank)

    def support(rho):
        counts["support"] += 1
        return real_support(rho)

    def face(rho, u, below=np.inf):
        p = real_face(rho, u, below)
        counts["miss" if p is None else "face"] += 1
        return p

    def chain(rho, fam):
        projectors, last = real_chain(rho, fam)
        counts["chain_faces"] += len(projectors)
        return projectors, last

    monkeypatch.setattr(states.Projector, "__init__", init)
    monkeypatch.setattr(states.Projector, "_trusted", classmethod(trusted))
    monkeypatch.setattr(family, "support_projector", support)
    monkeypatch.setattr(family, "_exposed_face", face)
    monkeypatch.setattr(closures, "face_chain", chain)
    misses = 0
    for make in (cone.staffelberg_family, cone.swallow_family):
        fam = make()
        fam.support_projector  # the identity, cached per algebra
        counts.update(projector=0, support=0, face=0, miss=0, chain_faces=0)
        for alpha in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
            rI_membership(cone.base_circle_state(alpha), fam)
        assert counts["chain_faces"] == counts["face"] > 0
        assert counts["projector"] == counts["support"] + counts["chain_faces"]
        misses += counts["miss"]
    assert misses > 0


def _unit(n, i, j):
    """The matrix unit E_ij of Mat(n), 1-based."""
    m = np.zeros((n, n))
    m[i - 1, j - 1] = 1.0
    return m


class TestFaceChainSkip:
    """face_chain's skip.  rho = E_11 lies at distance ln 2, which no member
    attains, is not an rI member, and its chain ends on the face {e_1, e_4}.
    On Mat(4) the first face found for rho has rank 3.  With all three
    generators, a direction of the same family, lifted from that face's
    family, exposes {e_1, e_4} at once, so the chain holds that face only.
    Without the third generator {e_1, e_4} is not exposed, and the chain
    takes both steps.  On the diagonal algebra outcomes 1 and 4 share their
    statistics, and the margin search finds {e_1, e_4} as the first face."""

    @staticmethod
    def _cases():
        diag4 = Algebra((1, 1, 1, 1))
        full4 = Algebra((4,))
        gens = [_unit(4, 2, 2), _unit(4, 3, 3) + _unit(4, 2, 4) + _unit(4, 4, 2),
                _unit(4, 2, 4) + _unit(4, 4, 2)]
        e11 = State(HermitianElement(full4, [_unit(4, 1, 1)]))
        return [
            (make_family(diag4, [diagonal(diag4, [0, 1, 0, 0]), diagonal(diag4, [0, 0, 1, 0])]),
             State(diagonal(diag4, [1, 0, 0, 0])), 2, [2]),
            (make_family(full4, [HermitianElement(full4, [g]) for g in gens]), e11, 3, [2]),
            (make_family(full4, [HermitianElement(full4, [g]) for g in gens[:2]]), e11, 3, [3, 2]),
        ]

    @pytest.mark.parametrize("case", range(3), ids=["diag_1111", "full_4", "full_4_no_third"])
    def test_chain_distance_and_membership(self, case):
        fam, rho, first, ranks = self._cases()[case]
        assert family._exposing_direction(rho, fam)[1].rank == first
        projectors, _ = face_chain(rho, fam)
        assert [p.rank for p in projectors] == ranks
        face = np.concatenate([np.diag(b).real for b in projectors[-1].element.blocks])
        assert np.abs(face - [1, 0, 0, 1]).max() <= 1e-12
        distance, attained = entropy_distance(rho, fam)
        assert distance == pytest.approx(np.log(2.0), abs=1e-12) and not attained
        assert not rI_membership(rho, fam)

    @classmethod
    def _rotations(cls, case):
        """The case's family and rho conjugated by 5 Haar unitaries
        (default_rng(5)), and its chain ranks."""
        fam, rho, _, ranks = cls._cases()[case]
        rng, out = np.random.default_rng(5), []
        for _ in range(5):
            u = haar_unitary(4, rng)

            def rotate(a):
                return HermitianElement(a.algebra, [u @ a.blocks[0] @ u.conj().T])

            out.append((make_family(fam.algebra, [rotate(g) for g in fam.generators]),
                        State(rotate(rho.element))))
        return out, ranks

    @pytest.mark.parametrize("case", [1, 2], ids=["full_4", "full_4_no_third"])
    def test_rotated_copies(self, case):
        # off the axes the margin search ends off its kink by about 1e-11
        # (the top eigenvalues of its direction split by that much), which
        # only a merge threshold above that split absorbs
        rotations, ranks = self._rotations(case)
        for rotated, r in rotations:
            assert [p.rank for p in face_chain(r, rotated)[0]] == ranks
            distance, attained = entropy_distance(r, rotated)
            assert distance == pytest.approx(np.log(2.0), abs=1e-12) and not attained
            assert not rI_membership(r, rotated)

    def test_margin_search_on_coordinates(self, monkeypatch):
        # the margin search builds no element, and with two coordinates its
        # first great circle is the whole unit circle of L, so it searches
        # one circle: one DirectionSweep on each rotated full_4_no_third (the
        # axis-aligned start already exposes rho, with no circle at all)
        counts, searches, real = collections.Counter(), [], family._steepest_margin

        def counting(key, method):
            def spy(*args, **kwargs):
                counts[key] += 1
                return method(*args, **kwargs)
            return spy

        def steepest(*args):
            before = counts.copy()
            c = real(*args)
            searches.append((counts["element"] - before["element"],
                             counts["sweep"] - before["sweep"]))
            return c

        monkeypatch.setattr(HermitianElement, "__init__",
                            counting("element", HermitianElement.__init__))
        monkeypatch.setattr(HermitianElement, "_trusted",
                            classmethod(counting("element", HermitianElement._trusted.__func__)))
        monkeypatch.setattr(family.DirectionSweep, "__init__",
                            counting("sweep", family.DirectionSweep.__init__))
        monkeypatch.setattr(family, "_steepest_margin", steepest)
        for case in (1, 2):  # dim L = 3, then 2
            fam, rho, _, _ = self._cases()[case]
            rotations, _ = self._rotations(case)
            for rotated, r in [(fam, rho)] + rotations:
                searches.clear()
                face_chain(r, rotated)
                [(elements, sweeps)] = searches
                assert elements == 0
                if case == 2:
                    assert sweeps == (0 if rotated is fam else 1)

    def test_guard_refuses_a_face_of_equal_rank(self, staffelberg):
        # the skip asks for a face of rank below p's (below=p.rank): on
        # Staffelberg rho(0) the direction at angle 0 exposes the rank-2
        # face rho(0) + apex, which below=2 refuses and below=3 returns
        rho = cone.base_circle_state(0.0)
        u = closures.sweep_direction(staffelberg, 0.0)
        assert states._exposed_face(rho, u, below=2) is None
        p = states._exposed_face(rho, u, below=3)
        assert p.rank == 2 and (p.element - (rho.element + cone.APEX)).norm() <= 1e-12


def _unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _generator_face_case(seed, extra):
    """A block algebra, generators [g1, ...] with a rank-r top eigenspace of
    g1 in block 0, and two states: one full rank on that face and one member
    of the family compressed to it (a geodesic limit)."""
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(2, 5))
    algebra = Algebra((n0, *rng.integers(1, 3, size=int(rng.integers(0, 3)))))
    r = int(rng.integers(1, n0))
    blocks, top = [], None
    for k, n in enumerate(algebra.block_dims):
        u, w = _unitary(n, rng), rng.uniform(-1.0, 0.5, size=n)
        if k == 0:
            w[:r], top = 1.0, u[:, :r]
        blocks.append((u * w) @ u.conj().T)
    dim = min(2 + extra, algebra.real_dim - 2)
    gens = [HermitianElement(algebra, blocks)] + [random_traceless(algebra, rng)
                                                  for _ in range(dim)]
    lam, v = rng.dirichlet(np.ones(r)) + 0.05, _unitary(r, rng)
    state = [np.zeros((n, n)) for n in algebra.block_dims]
    state[0] = top @ ((v * (lam / lam.sum())) @ v.conj().T) @ top.conj().T
    face_state = State(HermitianElement(algebra, state))
    fam = make_family(algebra, gens[:-1])
    _, last = face_chain(face_state, fam)
    limit = last.member(rng.normal(size=last.dim))
    return rng, algebra, gens, face_state, limit


class TestMonotonicity:
    ZERO = 1e-3  # a distance below this counts as zero

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    def test_swallow_superfamily_on_the_base_circle(self, alpha):
        rho = cone.base_circle_state(alpha)
        small, big = cone.swallow_family(), _superfamily()
        assert _exact_distance(rho, big)[0] <= _exact_distance(rho, small)[0] + 1e-9
        assert rI_membership(rho, big) or not rI_membership(rho, small)

    @settings(derandomize=True, deadline=None, max_examples=15)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_one_more_generator(self, seed, extra):
        # E' = E + one generator: d(rho, E') <= d(rho, E), and rI(E) => rI(E'),
        # read here as the exact distance below ZERO
        _, _, gens, face_state, limit = _generator_face_case(seed, extra)
        small = make_family(face_state.algebra, gens[:-1])
        big = make_family(face_state.algebra, gens)
        for rho in (face_state, limit):
            d_small, d_big = _exact_distance(rho, small)[0], _exact_distance(rho, big)[0]
            assert d_big <= d_small + 1e-9
            assert d_big < self.ZERO or not d_small < self.ZERO
        assert _exact_distance(limit, small)[0] < self.ZERO


def _summary(rho, family):
    distance, ranks = _exact_distance(rho, family)
    return project_to_family(rho, family).attained, ranks, distance


class TestInvariance:
    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_block_unitary_and_basis_mixing(self, seed, extra):
        # attained, chain ranks and distance do not depend on the basis of
        # the algebra or of the family
        rng, algebra, gens, face_state, limit = _generator_face_case(seed, extra)
        fam = make_family(algebra, gens)
        us = [_unitary(n, rng) for n in algebra.block_dims]

        def conj(a):
            return HermitianElement(algebra, [u @ b @ u.conj().T for u, b in zip(us, a.blocks)])

        mix = np.linalg.qr(rng.normal(size=(len(gens), len(gens))))[0]
        mixed = make_family(algebra, [sum((float(m) * g for m, g in zip(row, gens)),
                                          0.0 * gens[0]) for row in mix])
        rotated = make_family(algebra, [conj(g) for g in gens])
        for rho in (face_state, limit):
            want = _summary(rho, fam)
            for got in (_summary(rho, mixed), _summary(State(conj(rho.element)), rotated)):
                assert got[:2] == want[:2]
                assert got[2] == pytest.approx(want[2], abs=1e-9)

    @staticmethod
    def _state(algebra, kind, rng):
        """A random state of full rank, of rank 2 to N - 1, or pure."""
        if kind == "pure":
            k = int(rng.integers(algebra.n_blocks))
            n = algebra.block_dims[k]
            return pure_state(algebra, k, rng.normal(size=n) + 1j * rng.normal(size=n))
        rho = random_state(algebra, rng)
        if kind == "full":
            return rho
        w = np.concatenate(rho.spectral.eigenvalues)
        w[rng.permutation(len(w))[:int(rng.integers(1, len(w) - 1))]] = 0.0
        edges = np.cumsum((0,) + algebra.block_dims)
        return State(HermitianElement(algebra, [(V * w[i:j] / w.sum()) @ V.conj().T for V, i, j
                                                in zip(rho.spectral.eigenvectors, edges, edges[1:])]))

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(st.sampled_from([(4,), (2, 2), (3, 1), (2, 2, 1), (3, 2), (1,) * 5]),
           st.sampled_from(["full", "deficient", "pure"]), st.integers(2, 4),
           st.integers(0, 2**32 - 1))
    def test_mixing_the_generators_changes_no_answer(self, dims, kind, k, seed):
        # the family is the same set of states whatever spanning set names it:
        # mixed by an invertible matrix and reordered, the generators give the
        # same face chain ranks and attained flag, and the distance within
        # rounding; the state kind is drawn apart from the algebra
        algebra, rng = Algebra(dims), np.random.default_rng(seed)
        gens = [random_traceless(algebra, rng) for _ in range(k)]
        rho = self._state(algebra, kind, rng)
        mix = rng.normal(size=(k, k))
        while np.linalg.cond(mix) > 1e3:
            mix = rng.normal(size=(k, k))
        order = rng.permutation(k)
        mixed = [sum((float(m) * gens[j] for m, j in zip(row, order)), 0.0 * gens[0])
                 for row in mix]
        (want_chain, want), (got_chain, got) = (
            family._chain_projections([rho], make_family(algebra, g))[0] for g in (gens, mixed))
        assert [p.rank for p in got_chain] == [p.rank for p in want_chain]
        assert got.attained == want.attained
        assert abs(got.distance - want.distance) <= 1e-12 * max(1.0, want.distance)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.integers(4, 7), st.integers(3, 4), st.integers(0, 2**32 - 1))
    def test_polytope_basis_mixing(self, n, d, seed):
        d = min(d, n - 1)
        points, _, fam, rho = _polytope_case(n, d, seed)
        mix = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))[0]
        _, mixed = _moment_family(points @ mix)
        want, got = _summary(rho, fam), _summary(rho, mixed)
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], abs=1e-9)


def _lp_facial_set(points, weights):
    """The atoms of the smallest face of conv(points) holding the mean of
    ``weights``, by one LP (HiGHS): the atoms that some representation
    z >= 0, sum(z) = s, points^T z = s * mean can weight.  That set is a
    cone, so the maximum of sum(y), y <= min(z, 1), puts y = 1 exactly on
    the facial set."""
    n, d = points.shape
    mean = points.T @ weights
    # variables (z, s, y), all non-negative
    eq = np.zeros((d + 1, 2 * n + 1))
    eq[:d, :n], eq[:d, n] = points.T, -mean
    eq[d, :n], eq[d, n] = 1.0, -1.0
    ub = np.hstack([-np.eye(n), np.zeros((n, 1)), np.eye(n)])
    res = linprog(np.concatenate([np.zeros(n + 1), -np.ones(n)]), A_ub=ub, b_ub=np.zeros(n),
                  A_eq=eq, b_eq=np.zeros(d + 1), bounds=[(0, None)] * (n + 1) + [(0, 1)] * n,
                  method="highs")
    assert res.status == 0
    return set(np.flatnonzero(res.x[n + 1:] > 0.5).tolist())


def _classical_distance(points, weights, face):
    """D(p || q*), q* the Gibbs distribution exp(<theta, x_i>) / Z on the
    atoms of ``face`` with p's mean, by damped Newton on the log-partition
    function (least-squares steps, since the face may not be full-dimensional)."""
    x, p = points[sorted(face)].astype(float), weights[sorted(face)]
    mean, theta = p @ x, np.zeros(points.shape[1])

    def dual(t):  # ln Z(t) - <t, mean>, convex, minimized at q*
        logits = x @ t
        top = logits.max()
        return top + np.log(np.exp(logits - top).sum()) - t @ mean

    for _ in range(100):
        logits = x @ theta
        q = np.exp(logits - logits.max())
        q /= q.sum()
        grad = q @ x - mean
        if np.abs(grad).max() < 1e-15:
            break
        step = np.linalg.lstsq((x * q[:, None]).T @ x - np.outer(q @ x, q @ x), grad,
                               rcond=None)[0]
        t = 1.0
        while dual(theta - t * step) > dual(theta) and t > 1e-12:
            t /= 2.0
        theta = theta - t * step
    on = p > 0
    return float(p[on] @ np.log(p[on]) + dual(theta))


def _abelian_case(n, d, seed):
    """An abelian family with generator entries in {-1, 0, 1} and a state on
    a random support: (points, weights, family, state)."""
    rng = np.random.default_rng(seed)
    while True:
        points = rng.integers(-1, 2, size=(n, d))
        try:
            algebra, fam = _moment_family(points)
            break
        except ValueError:  # dependent generators once their trace parts go
            continue
    support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    weights = np.zeros(n)
    weights[support] = rng.dirichlet(np.ones(len(support)))
    return points, weights, fam, State(diagonal(algebra, weights))


class TestAbelianLPOracle:
    """In an abelian algebra the mean value set is a polytope: every face is
    exposed, the face of a state is an LP facial set, and the distance is the
    classical I-projection onto the Gibbs family of that face."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.integers(5, 16), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_chain_support_and_distance(self, n, d, seed):
        points, weights, fam, rho = _abelian_case(n, min(d, n - 1), seed)
        projectors, last = face_chain(rho, fam)
        assert len(projectors) <= 1
        face = _lp_facial_set(points, weights)
        carrier = last.support_projector.element.blocks
        assert {i for i, b in enumerate(carrier) if b[0, 0].real > 0.5} == face
        want = _classical_distance(points, weights, face)
        assert entropy_distance(rho, fam)[0] == pytest.approx(want, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(st.integers(5, 16), st.integers(0, 2**32 - 1))
    def test_planar_polygons_have_no_nonexposed_point(self, n, seed):
        _, _, fam, _ = _abelian_case(n, 2, seed)
        boundary = mean_value_boundary_sweep(fam)
        assert classify_boundary_faces(boundary).n_nonexposed == 0


def _vertex_case(d, seed):
    """n standard normal points in R^d, the last one P_k moved onto a facet of
    the hull of the others (seed % 3 == 1) or inside it (seed % 3 == 2): the
    points, k, their abelian family and the state e_k, whose commutant L has
    dimension d."""
    rng = np.random.default_rng([seed, 23])
    n = int(rng.integers(d + 2, d + 5))
    points = rng.normal(size=(n, d))
    k = n - 1
    if seed % 3 == 1:
        hull = ConvexHull(points[:-1])
        facet = hull.simplices[rng.integers(len(hull.simplices))]
        points[k] = rng.dirichlet(np.ones(len(facet))) @ points[facet]
    elif seed % 3 == 2:
        points[k] = rng.dirichlet(np.ones(k)) @ points[:-1]
    algebra, fam = _moment_family(points)
    return points, k, fam, State(diagonal(algebra, np.eye(n)[k]))


def _lp_interior(points, k):
    """Whether P_k is interior to conv(points), by one LP (HiGHS): the largest
    t with sum(l_j P_j) = P_k, sum(l_j) = 1 and every l_j >= t is positive."""
    n, d = points.shape
    # variables (l, t), free: maximize t
    eq = np.zeros((d + 1, n + 1))
    eq[:d, :n], eq[d, :n] = points.T, 1.0
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([-np.eye(n), np.ones((n, 1))]),
                  b_ub=np.zeros(n), A_eq=eq, b_eq=np.r_[points[k], 1.0],
                  bounds=[(None, None)] * (n + 1), method="highs")
    assert res.status == 0
    return -res.fun > 1e-9


# at these d = 4 facet points the margin search stops at a stationary point
# of the margin on the unit sphere where the margin is negative, so no face
# is found
_MISSED_FACETS = [pytest.param(4, s, marks=pytest.mark.xfail(strict=True, reason=(
    "the dim L >= 3 margin search stops below zero and misses the facet")))
    for s in (22, 31, 67)]


@pytest.mark.parametrize("d, seed", [(2, s) for s in range(18)] + [(3, s) for s in range(9)]
                         + [(4, s) for s in range(9)] + _MISSED_FACETS)
def test_vertex_state_faces_against_an_lp(d, seed):
    # rho = e_k lies on no proper face exactly when P_k is interior, and
    # then, and only then, its projection is attained
    points, k, fam, rho = _vertex_case(d, seed)
    interior = _lp_interior(points, k)
    assert (not face_chain(rho, fam)[0]) == interior
    assert entropy_distance(rho, fam)[1] == interior


def _seven_point_case(seed):
    """Seven points in R^4: P_1 ... P_5 on the hyperplane x_4 = 0, P_6 above
    it and P_7 a random mixture of P_1 ... P_5, all rotated by one random
    orthogonal matrix.  Their abelian family and rho = e_7, which lies
    inside the facet {1, ..., 5, 7}, whose commutant L has dimension 4."""
    rng = np.random.default_rng([seed, 7])
    points = rng.normal(size=(7, 4))
    points[:5, 3] = 0.0
    points[5, 3] = abs(points[5, 3])
    points[6] = rng.dirichlet(np.ones(5)) @ points[:5]
    algebra, fam = _moment_family(points @ np.linalg.qr(rng.normal(size=(4, 4)))[0].T)
    return fam, State(diagonal(algebra, np.eye(7)[6]))


# at these seeds the margin search stops at a stationary point of the margin
# where it is negative: the chain is empty and the distance reads attained
_MISSED_SEVEN_POINT_FACETS = [pytest.param(s, marks=pytest.mark.xfail(strict=True, reason=(
    "the dim L >= 3 margin search stops below zero and misses the facet"))) for s in (23, 57)]


@pytest.mark.parametrize("seed", [39, 40, 42] + _MISSED_SEVEN_POINT_FACETS)
def test_seven_point_facet(seed):
    fam, rho = _seven_point_case(seed)
    projectors, last = face_chain(rho, fam)
    assert [p.rank for p in projectors] == [6]
    carrier = [b[0, 0].real for b in last.support_projector.element.blocks]
    assert carrier == pytest.approx([1, 1, 1, 1, 1, 0, 1], abs=1e-12)
    assert not entropy_distance(rho, fam)[1]


class TestCornerCheck:
    """A state outside a compressed family's corner algebra is at infinite
    distance: face_chain and entropy_distance raise PreconditionError, and
    it is no rI member."""

    @staticmethod
    def _check(rho, fam):
        assert not rI_membership(rho, fam)
        for call in (face_chain, entropy_distance):
            with pytest.raises(PreconditionError, match="corner algebra"):
                call(rho, fam)

    def test_staffelberg_state_off_a_support(self, staffelberg):
        p = states.support_projector(cone.base_circle_state(1.0))
        self._check(cone.base_circle_state(0.0), make_compressed_family(staffelberg, p))

    def test_random_family_off_a_rank_3_corner(self):
        algebra, rng = Algebra((4,)), np.random.default_rng(1)
        fam = make_family(algebra, [random_traceless(algebra, rng) for _ in range(3)])
        corner = make_compressed_family(fam, states.Projector(diagonal(algebra, [1, 1, 1, 0])))
        self._check(State(diagonal(algebra, [0, 0, 0, 1])), corner)


_QUBIT_PAULI = (np.array([[0, 1], [1, 0]], complex), np.array([[0, -1j], [1j, 0]]),
                np.diag([1.0 + 0j, -1.0]))


def _product_family(n):
    """The n-qubit product family: generators sigma_a on one qubit, 1 on the others."""
    algebra = Algebra((2**n,))
    gens = [functools.reduce(np.kron, [s if j == i else np.eye(2) for j in range(n)])
            for i in range(n) for s in _QUBIT_PAULI]
    return algebra, make_family(algebra, [HermitianElement(algebra, [g]) for g in gens])


def _marginal(m, n, i):
    """The reduced density matrix of qubit i of an n-qubit matrix m."""
    t = m.reshape((2**i, 2, 2 ** (n - i - 1)) * 2)
    return np.einsum("aibajb->ij", t)


def _mixed(d, rank, rng):
    w = rng.dirichlet(np.ones(rank))
    u = haar_unitary(d, rng)[:, :rank]
    return (u * w) @ u.conj().T


def _mp_distance(rho, fam, theta, dps=50):
    """rho's entropy distance from fam by Newton in mpmath at ``dps`` digits,
    fed the package's double moments m and entropy offset: min over theta of
    ln tr exp(offset + sum theta_i v_i) - theta.m, from ``theta`` until the
    gradient vanishes to the working precision."""
    with mpmath.workdps(dps):
        m = mpmath.matrix(mean_value_projection(rho.element, fam).tolist())
        base = mpmath.mpf(states.vn_entropy(rho) + hs_inner(rho.element, fam.offset))
        offset = [mpmath.matrix(b.tolist()) for b in fam.offset.blocks]
        basis = [[mpmath.matrix(b.tolist()) for b in v.blocks] for v in fam.basis]

        def pieces(x):
            exps = [mpmath.expm(o + sum((t * v[k] for t, v in zip(x, basis)),
                                        mpmath.zeros(o.rows)))
                    for k, o in enumerate(offset)]
            z = sum(mpmath.re(sum(e[i, i] for i in range(e.rows))) for e in exps)
            means = mpmath.matrix([sum(mpmath.re(sum((e * v[k])[i, i] for i in range(e.rows)))
                                       for k, e in enumerate(exps)) / z for v in basis])
            return mpmath.log(z) - mpmath.fsum(x[i] * m[i] for i in range(len(m))), means - m

        x, h = mpmath.matrix(theta.tolist()), mpmath.mpf(10) ** (-dps // 2)
        for _ in range(20):
            f, g = pieces(x)
            if mpmath.norm(g) <= mpmath.mpf(10) ** (15 - dps):
                return float(f - base)
            H = mpmath.matrix(len(m), len(m))
            for j in range(len(m)):
                e = mpmath.matrix(len(m), 1)
                e[j] = h
                H[:, j] = (pieces(x + e)[1] - g) / h
            step, t = mpmath.lu_solve(H, -g), 1
            while pieces(x + t * step)[0] > f:
                t /= 2
            x += t * step
        raise AssertionError("the mpmath Newton solve did not converge")


class TestExactPath:
    """The one exact path, family._chain_projections: its distance and sigma*
    against closed forms, and the Pythagorean identity at sigma*."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(st.sampled_from((2, 3, 4)), st.sampled_from(("full", "deficient", "pure marginal")),
           st.integers(0, 2**32 - 1))
    def test_product_family_oracle(self, n, kind, seed):
        # the rI-projection onto the product family is the product of the
        # marginals, at distance sum_i S(rho_i) - S(rho); a pure marginal puts
        # rho on a proper face, so its chain is not empty
        rng = np.random.default_rng(seed)
        algebra, fam = _product_family(n)
        d = 2**n
        if kind == "full":
            m = _mixed(d, d, rng)
        elif kind == "deficient":
            m = _mixed(d, int(rng.integers(1, d)), rng)
        else:
            m = np.kron(_mixed(2, 1, rng), _mixed(d // 2, int(rng.integers(1, d // 2 + 1)), rng))
        rho = State(HermitianElement(algebra, [m]))
        ((projectors, res),) = family._chain_projections([rho], fam)
        assert bool(projectors) == (kind == "pure marginal")
        marginals = [_marginal(m, n, i) for i in range(n)]
        qubit = Algebra((2,))
        want = (sum(states.vn_entropy(State(HermitianElement(qubit, [r]))) for r in marginals)
                - states.vn_entropy(rho))
        assert abs(res.distance - want) <= 1e-10
        product = functools.reduce(np.kron, marginals)
        assert np.abs(res.sigma_star.element.blocks[0] - product).max() <= 1e-9

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans(), st.booleans())
    def test_distance_depends_only_on_mean_values(self, seed, extra, offset, deficient):
        # d(rho) + S(rho) + <rho, offset> = min over theta of F(offset + theta.v)
        # - theta.m, a function of the mean values m alone: rho + s Delta, Delta
        # traceless and orthogonal to the tangent space, gives the same value.
        # A deficient rho is full rank on the top eigenspace q of g1, so its
        # chain is not empty, and Delta lies in qAq, so rho + s Delta keeps it
        rng = np.random.default_rng(seed)
        n0 = int(rng.integers(3, 5))
        algebra = Algebra((n0, *rng.integers(1, 3, size=int(rng.integers(0, 3)))))
        r = n0 - 1
        q = [np.zeros((n, n), dtype=complex) for n in algebra.block_dims]
        blocks = []
        for k, n in enumerate(algebra.block_dims):
            u, w = _unitary(n, rng), rng.uniform(-1.0, 0.5, size=n)
            if k == 0:
                w[:r], q[0] = 1.0, u[:, :r] @ u[:, :r].conj().T
            blocks.append((u * w) @ u.conj().T)
        gens = [HermitianElement(algebra, blocks)]
        gens += [random_traceless(algebra, rng) for _ in range(extra)]
        fam = make_family(algebra, gens, random_traceless(algebra, rng) if offset else None)
        if deficient:
            m = q[0] @ _mixed(n0, n0, rng) @ q[0]
            rho = State(HermitianElement(algebra, [m / np.trace(m).real] + q[1:]))
            def in_q(a):  # q a q
                return HermitianElement(algebra, [p @ b @ p for p, b in zip(q, a.blocks)])

            span = [HermitianElement(algebra, q)] + [in_q(v) for v in fam.basis]
            x = in_q(random_traceless(algebra, rng))
        else:
            rho = random_state(algebra, rng)
            span = [HermitianElement(algebra, [np.eye(n) for n in algebra.block_dims]),
                    *fam.basis]
            x = random_traceless(algebra, rng)
        for _ in range(2):  # Delta: x minus its projection onto span, twice for accuracy
            coeffs = np.linalg.lstsq(np.column_stack([coords(v) for v in span]), coords(x),
                                     rcond=None)[0]
            x = x - functools.reduce(HermitianElement.__add__,
                                     (float(c) * v for c, v in zip(coeffs, span)))
        assert all(abs(hs_inner(x, v)) <= 1e-12 for v in span) and x.norm() > 1e-3
        low = min(w[w > 1e-9].min() for w in rho.spectral.eigenvalues if (w > 1e-9).any())
        moved = State(rho.element + (0.5 * low / trace_norm(x)) * x)
        pairs = family._chain_projections([rho, moved], fam)
        assert [len(c) > 0 for c, _ in pairs] == [deficient] * 2
        values = [res.distance + states.vn_entropy(s) + hs_inner(s.element, fam.offset)
                  for s, (_, res) in zip((rho, moved), pairs)]
        assert abs(values[0] - values[1]) <= 1e-12

    @pytest.mark.parametrize("make", [cone.staffelberg_family, cone.swallow_family])
    def test_pythagorean_identity_at_sigma_star(self, make):
        # D(rho||sigma) = d(rho) + D(sigma*||sigma) for members sigma, attained
        # or not; the swallow open-arc states whose exact solve still stops at
        # RI_PARAM_CAP (ROADMAP item 1) are left out
        fam = make()
        rng = np.random.default_rng(35)
        rhos = [cone.base_circle_state(0.0), cone.base_circle_state(np.pi / 2),
                cone.midpoint_state(), cone.APEX_STATE, cone.tau_state(0.5)]
        rhos += [random_state(cone.ALGEBRA, rng) for _ in range(4)]
        members = [fam.member(t) for t in ([0.0, 0.0], [0.5, -0.3], [-1.2, 0.8], [3.0, 2.0])]
        for rho, (_, res) in zip(rhos, family._chain_projections(rhos, fam)):
            assert not res.cap_hit
            for sigma in members:
                gap = (states.relative_entropy(rho, sigma) - res.distance
                       - states.relative_entropy(res.sigma_star, sigma))
                assert abs(gap) <= 1e-9

    @pytest.mark.parametrize("rhos", [
        [cone.base_circle_state(a) for a in (1e-2, np.pi / 2.0 - 1e-2)],
        [cone.base_circle_state(a) for a in (1e-3, np.pi / 2.0 - 1e-3)],
        [State((1 - 1e-4) * cone.base_circle_state(0.0).element + 1e-4 * cone.THIRD)],
    ], ids=["open arc 1e-2", "open arc 1e-3", "rho_t"])
    def test_swallow_against_an_mpmath_oracle(self, swallow, rhos):
        # swallow rho(alpha) and rho(pi/2 - alpha) near the non-exposed points,
        # where |theta*| grows like 1/alpha (10128 at 1e-3), and the full-rank
        # rho_t (|theta*| = 621): the uncapped exact solve converges
        for rho, (projectors, res) in zip(rhos, family._chain_projections(rhos, swallow)):
            assert projectors == [] and res.attained
            want = _mp_distance(rho, swallow, res.theta_star)
            assert abs(res.distance - want) <= 1e-10 * want

    def test_swallow_rho_1e4_converges_near_the_oracle(self, swallow):
        # Armijo's floor at the scale of F: at the floor of f alone the solve
        # stalled at rounding, 2.1e-8 off the oracle, and read not attained
        rho = cone.base_circle_state(1e-4)
        ((projectors, res),) = family._chain_projections([rho], swallow)
        assert projectors == [] and res.attained and res.stop_reason == "converged"
        want = _mp_distance(rho, swallow, res.theta_star)
        assert abs(res.distance - want) <= 1e-8 * want

    def test_open_arc_grid_never_stops_at_a_cap(self, swallow):
        # the 719 open-arc states in one call: a solve that is not attained
        # stalled at rounding, none ran into a cap
        alphas = np.linspace(0.0, np.pi / 2.0, 721)[1:-1]
        out = family._chain_projections([cone.base_circle_state(a) for a in alphas], swallow)
        assert not any(res.cap_hit for _, res in out)
        assert all(res.stop_reason == "stalled" for _, res in out if not res.attained)
        assert sum(res.attained for _, res in out) >= 700

    def test_exact_distance_not_above_an_attained_projection(self, swallow):
        # rho_t = (1 - t) rho(0) + t 1/3 at t = 1e-4 is full rank; at cap 1250
        # its projection converges to 0.0620919149
        rho = State((1 - 1e-4) * cone.base_circle_state(0.0).element + 1e-4 * cone.THIRD)
        reference = project_to_family(rho, swallow, param_cap=1250.0)
        assert reference.attained
        assert entropy_distance(rho, swallow)[0] <= reference.distance
