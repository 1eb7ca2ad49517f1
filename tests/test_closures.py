import dataclasses
import functools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qexpfam import closures, cone, defaults
from qexpfam.closures import (
    _polar_sweep,
    egeodesic_limit,
    geodesic_closure_atlas,
    inclusion_chain_check,
    rI_membership,
    reduce_distance_to_face,
    sweep_direction,
)
from qexpfam.errors import PreconditionError
from qexpfam.family import (
    ExponentialFamily,
    _exposing_direction,
    entropy_distance,
    exp1,
    face_chain,
    free_energy,
    make_compressed_family,
    make_family,
    mean_value_projection,
    project_to_family,
)
from qexpfam.linalg import (
    Algebra,
    HermitianElement,
    coords,
    diagonal,
    eigh,
    hs_inner,
    identity,
    traceless_part,
)
from qexpfam.sampling import haar_unitary, random_hermitian, random_traceless
from qexpfam.states import (
    Projector,
    State,
    compress,
    exposed_face_membership,
    max_eig_data,
    relative_entropy,
    support_projector,
    tracial_state,
)


from helpers import (decoupled_pair, random_family, same_image, staffelberg_direction,
                     swallow_direction)


class TestEgeodesicLimit:
    def test_sigma3_direction(self, algebra):
        from qexpfam.linalg import zero

        limit, asym = egeodesic_limit(zero(algebra), cone.PAULI[2])
        want = np.zeros((2, 2))
        want[0, 0] = 1.0
        assert np.linalg.norm(limit.element.blocks[0] - want) < 1e-14
        assert asym == pytest.approx(0.0, abs=1e-14)

    def test_staffelberg_u0_limits_to_c(self, algebra):
        from qexpfam.linalg import zero

        limit, asym = egeodesic_limit(zero(algebra), staffelberg_direction(0.0))
        assert (limit.element - cone.midpoint_state().element).norm() < 1e-12
        assert asym == pytest.approx(np.log(2.0), abs=1e-12)

    def test_identity_direction(self, algebra, rng):
        theta = random_traceless(algebra, rng)
        limit, asym = egeodesic_limit(theta, identity(algebra))
        assert (limit.element - exp1(theta).element).norm() < 1e-12
        f, _ = free_energy(theta)
        assert asym == pytest.approx(f, abs=1e-12)

    def test_decoupled_convergence(self, algebra, rng):
        for _ in range(25):
            theta, u = decoupled_pair(algebra, rng)
            limit, asym = egeodesic_limit(theta, u)
            mu, _ = max_eig_data(u)
            lam = 40.0
            state = exp1(theta + lam * u)
            assert (state.element - limit.element).norm() <= 1e-8
            f, _ = free_energy(theta + lam * u)
            assert abs(f - lam * mu - asym) <= 1e-8

    def test_coupled_pairs_converge_slowly(self, algebra, rng):
        # with top-block coupling the approach is only O(1/lambda): still a
        # limit, but visible only at large parameters
        theta = 0.5 * cone.PAULI[0]
        u = staffelberg_direction(0.7)
        limit, _ = egeodesic_limit(theta, u)
        errs = [
            (exp1(theta + lam * u).element - limit.element).norm()
            for lam in (1e2, 1e3, 1e4)
        ]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 1e-3


class TestCompressedFamily:
    def test_identity_projector_keeps_family(self, staffelberg):
        p = Projector(identity(cone.ALGEBRA))
        fam = make_compressed_family(staffelberg, p)
        assert fam.dim == staffelberg.dim
        member = fam.member([0.3, -0.2])
        # same set: its projection onto the parent family is itself
        res = project_to_family(member, staffelberg)
        assert res.distance <= 1e-10

    def test_staffelberg_collapses_to_c(self, staffelberg):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        fam = make_compressed_family(staffelberg, p)
        assert fam.dim == 0
        assert (fam.member([]).element - cone.midpoint_state().element).norm() < 1e-12

    def test_swallow_gives_open_segment(self, swallow):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        fam = make_compressed_family(swallow, p)
        assert fam.dim == 1
        # members are mixtures of rho(0) and the apex, never the endpoints
        for t in (-6.0, -1.0, 0.0, 1.0, 6.0):
            member = fam.member([t])
            w = np.array([
                hs_inner(member.element, cone.base_circle_state(0.0).element),
                hs_inner(member.element, cone.APEX),
            ])
            assert w.min() > 0.0
            assert w.sum() == pytest.approx(1.0, abs=1e-10)


@functools.lru_cache(maxsize=None)
def _default_atlas(name: str):
    """Default-resolution atlas of a named family, shared between tests."""
    fam = {"staffelberg": cone.staffelberg_family, "swallow": cone.swallow_family,
           "cone:0.7": lambda: cone.plane_for_angle(0.7)}[name]()
    return geodesic_closure_atlas(fam)


class TestAtlas:
    def test_staffelberg_structure(self, staffelberg):
        atlas = geodesic_closure_atlas(staffelberg)
        spikes = atlas.spike_groups()
        assert len(spikes) == 1
        assert spikes[0].rank == 2
        assert spikes[0].family_dim == 0
        assert (
            spikes[0].representative.element - cone.midpoint_state().element
        ).norm() < 1e-10
        for g in atlas.groups:
            if not g.spike:
                assert g.rank == 1

    def test_swallow_transitions_and_intervals(self, swallow):
        atlas = geodesic_closure_atlas(swallow)
        spikes = sorted(atlas.spike_groups(), key=lambda g: g.alpha_lo)
        assert len(spikes) == 2
        assert abs(spikes[0].alpha_lo - 0.0) <= 1e-8
        assert abs(spikes[1].alpha_lo - np.pi / 2.0) <= 1e-8
        assert all(g.family_dim == 1 for g in spikes)
        apex_groups = [
            g for g in atlas.groups if not g.spike and g.n_samples > 10
        ]
        assert len(apex_groups) == 1
        g = apex_groups[0]
        assert 0.0 < g.alpha_lo and g.alpha_hi < np.pi / 2.0
        assert (g.representative.element - cone.APEX_STATE.element).norm() < 1e-10

    def test_abelian_simplex_brute_force(self, abelian3):
        # oracle: the maximal projector of a diagonal direction is the
        # indicator of its argmax entries
        gens = [
            diagonal(abelian3, [1.0, -1.0, 0.0]),
            diagonal(abelian3, [1.0, 1.0, -2.0]),
        ]
        fam = make_family(abelian3, gens)
        atlas = geodesic_closure_atlas(fam, n_directions=360)
        assert len(atlas.spike_groups()) == 3  # the three edges of the triangle
        for g in atlas.groups:
            alpha = 0.5 * (g.alpha_lo + g.alpha_hi)
            u = sweep_direction(fam, alpha)
            entries = np.array([b[0, 0].real for b in u.blocks])
            top = entries.max()
            want = (entries >= top - 1e-9).astype(float)
            got = np.array([b[0, 0].real for b in g.projector.element.blocks])
            assert np.allclose(got, want, atol=1e-9)

    def test_rank_one_groups_are_singleton_families(self, staffelberg):
        atlas = geodesic_closure_atlas(staffelberg, n_directions=90)
        for g in atlas.groups:
            if g.rank == 1:
                assert g.family_dim == 0

    @pytest.mark.parametrize("name", ["staffelberg", "swallow", "cone:0.7"])
    def test_mid_angle_exposes_every_group(self, name):
        # runs that wrap past 2 pi (alpha_lo > alpha_hi) take the midpoint
        # along the arc; cone:0.7 has one such run, whose naive midpoint pi
        # exposes a face without the representative
        atlas = _default_atlas(name)
        fam = atlas.family
        wrapped = [g for g in atlas.groups if g.alpha_lo > g.alpha_hi]
        assert len(wrapped) == (1 if name == "cone:0.7" else 0)
        for g in atlas.groups:
            assert exposed_face_membership(g.representative, sweep_direction(fam, g.mid_angle))
        for g in wrapped:
            naive = sweep_direction(fam, 0.5 * (g.alpha_lo + g.alpha_hi))
            assert not exposed_face_membership(g.representative, naive)


class TestLazyAtlas:
    def test_atlas_builds_no_compressed_family(self, staffelberg, monkeypatch):
        calls = []

        def counting(parent, p):
            calls.append(p)
            return make_compressed_family(parent, p)

        monkeypatch.setattr(closures, "make_compressed_family", counting)
        atlas = geodesic_closure_atlas(staffelberg)
        assert calls == []
        g = atlas.groups[0]
        assert g.family is g.family and g.representative is g.representative
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["staffelberg", "swallow", "random-2,2-seed4"])
    def test_atlas_validates_nothing_and_groups_are_sweep_rows(self, name, monkeypatch):
        fam = {"staffelberg": cone.staffelberg_family, "swallow": cone.swallow_family,
               "random-2,2-seed4": lambda: random_family(Algebra((2, 2)), 2,
                                                         np.random.default_rng(4))}[name]()
        built = []
        for cls in (Projector, HermitianElement):
            def init(self, *args, _real=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _real(self, *args)
            monkeypatch.setattr(cls, "__init__", init)
        atlas = geodesic_closure_atlas(fam)
        assert built == []
        g = atlas.groups[0]
        assert g.projector is g.projector
        assert built.count("Projector") == 1
        monkeypatch.undo()

        # each group's projector is its row of the sweep, bit for bit: a grid
        # row at alpha_lo, or the row of the crossing at alpha_lo
        n = atlas.n_directions
        alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        kernel = _polar_sweep(fam)
        ranks, rows = kernel.spectra(alphas).max_projectors()
        found, at = kernel.crossings(alphas, ranks, rows)
        spike_ranks, spike_rows = at.max_projectors()
        for g in atlas.groups:
            if g.n_samples:
                j = int(np.flatnonzero(alphas == g.alpha_lo)[0])
                rank, row = ranks[j], [b[j] for b in rows]
            else:
                i = int(np.flatnonzero(found == g.alpha_lo)[0])
                rank, row = spike_ranks[i], [b[i] for b in spike_rows]
            assert g.rank == rank == g.projector.rank
            assert [b.tobytes() for b in g.projector.element.blocks] == [
                b.tobytes() for b in row]

    @pytest.mark.parametrize("name", ["staffelberg", "swallow"])
    def test_lazy_equals_eager(self, name):
        atlas = _default_atlas(name)
        fam = atlas.family
        for g in atlas.groups:
            eager = make_compressed_family(fam, g.projector)
            lazy = g.family
            assert len(lazy.basis) == len(eager.basis)
            assert len(lazy.generators) == len(eager.generators)
            pairs = zip(
                (*lazy.basis, lazy.offset, *lazy.generators,
                 lazy.support.element, g.representative.element),
                (*eager.basis, eager.offset, *eager.generators,
                 eager.support.element, eager.member(np.zeros(eager.dim)).element),
            )
            for a, b in pairs:
                assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


def _random_face_case():
    """(state, family, direction): a full-rank state on the rank-2 top face,
    in block 0, of the first generator of a random 6-dim 4x(4x4) family."""
    rng = np.random.default_rng(11)
    algebra = Algebra((4, 4, 4, 4))
    blocks = []
    for k in range(4):
        u = haar_unitary(4, rng)
        w = rng.uniform(-1.0, 0.5, size=4)
        if k == 0:
            w[:2] = 1.0
            top = u[:, :2]
        blocks.append((u * w) @ u.conj().T)
    gens = [HermitianElement(algebra, blocks)] + [random_traceless(algebra, rng)
                                                  for _ in range(5)]
    fam = make_family(algebra, gens)
    lam = 0.05 + 0.95 * rng.dirichlet(np.ones(2))
    u = haar_unitary(2, rng)
    face = [np.zeros((4, 4), dtype=complex) for _ in range(4)]
    face[0] = top @ ((u * (lam / lam.sum())) @ u.conj().T) @ top.conj().T
    return State(HermitianElement(algebra, face)), fam, fam.generators[0]


class TestReduceDistance:
    def test_segment_states_match_relative_entropy(self, staffelberg):
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        c = cone.midpoint_state()
        for s in (0.1, 0.5, 0.9):
            rho = State(
                (1.0 - s) * cone.base_circle_state(0.0).element + s * cone.APEX
            )
            got = reduce_distance_to_face(rho, staffelberg, v2)
            assert got == pytest.approx(relative_entropy(rho, c), abs=1e-10)

    def test_family_member_of_compressed(self, swallow):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        fam_p = make_compressed_family(swallow, p)
        rho = fam_p.member([0.8])
        u = swallow_direction(0.0)
        assert reduce_distance_to_face(rho, swallow, u) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.0, np.pi / 2.0])
    def test_swallow_corner_distance_zero(self, swallow, alpha):
        # rho lies on a proper face of the face's family: the chain's second
        # step reaches distance 0 exactly
        rho = cone.base_circle_state(alpha)
        got = reduce_distance_to_face(rho, swallow, swallow_direction(alpha))
        assert got == 0.0
        assert got == entropy_distance(rho, swallow)[0]

    def test_equals_the_face_family_solve_off_its_faces(self, staffelberg):
        # on no proper face of the face's family the chain stops there, and
        # the value is that family's own solve, bit for bit
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        rho0 = cone.base_circle_state(0.0)
        upper = State(0.5 * (cone.midpoint_state().element + cone.APEX))
        cases = [(State((1.0 - s) * rho0.element + s * cone.APEX), staffelberg, v2)
                 for s in np.linspace(0.05, 0.95, 7)]
        cases += [(rho0, staffelberg, v2), (upper, staffelberg, v2), _random_face_case()]
        for rho, fam, v in cases:
            face_family = make_compressed_family(fam, max_eig_data(v)[1])
            direct = project_to_family(rho, face_family, param_cap=defaults.RI_PARAM_CAP)
            assert reduce_distance_to_face(rho, fam, v) == direct.distance

    def test_agrees_with_direct_where_direct_converges(self, staffelberg):
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        rho = State(0.5 * cone.base_circle_state(0.0).element + 0.5 * cone.APEX)
        reduced = reduce_distance_to_face(rho, staffelberg, v2)
        direct = project_to_family(rho, staffelberg, param_cap=200.0)
        assert not direct.attained
        assert abs(direct.distance - reduced) <= 1e-6

    def test_membership_precondition(self, staffelberg):
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        with pytest.raises(PreconditionError):
            reduce_distance_to_face(tracial_state(cone.ALGEBRA), staffelberg, v2)

    def test_direction_outside_tangent_rejected(self, staffelberg):
        with pytest.raises(PreconditionError):
            reduce_distance_to_face(
                cone.base_circle_state(0.0), staffelberg, cone.PAULI[2]
            )


class TestRIMembership:
    def test_family_member(self, staffelberg):
        assert rI_membership(staffelberg.member([0.2, 0.4]), staffelberg)

    def test_staffelberg_rho0_excluded(self, staffelberg):
        assert not rI_membership(cone.base_circle_state(0.0), staffelberg)

    def test_staffelberg_circle_included(self, staffelberg):
        assert rI_membership(cone.base_circle_state(0.3), staffelberg)

    def test_swallow_corners_included(self, swallow):
        assert rI_membership(cone.base_circle_state(0.0), swallow)
        assert rI_membership(cone.base_circle_state(np.pi / 2.0), swallow)


def _superfamily():
    """{s1 + 1, s2 + 1, s3}: a 3D family containing the swallow family."""
    return make_family(cone.ALGEBRA, [cone.PAULI[0] + cone.APEX,
                                      cone.PAULI[1] + cone.APEX, cone.PAULI[2]])


class TestFaceChain:
    @pytest.mark.parametrize("make", [_superfamily, cone.swallow_family])
    @pytest.mark.parametrize("alpha", [0.0, np.pi / 2.0])
    def test_tangent_points_are_two_step_chains(self, make, alpha):
        # the exposed face rho + apex first, then the non-exposed point rho
        rho = cone.base_circle_state(alpha)
        projectors, last = face_chain(rho, make())
        assert [p.rank for p in projectors] == [2, 1]
        face = rho.element + cone.APEX
        assert (projectors[0].element - face).norm() <= defaults.MAX_EIG_GAP
        assert last.dim == 0
        assert rI_membership(rho, make())

    def test_superfamily_open_arc_excluded(self):
        rho = cone.base_circle_state(0.7)
        projectors, last = face_chain(rho, _superfamily())
        assert projectors == [] and last.dim == 3
        assert not rI_membership(rho, _superfamily())

    @pytest.mark.parametrize("turn", np.linspace(0.0, np.pi, 9))
    def test_staffelberg_segment_ends_in_any_basis(self, turn):
        # rho(0) and the apex lie on the rank-2 face rho(0) + apex, exposed by
        # one direction, at which the mean value set's boundary is smooth;
        # the family left is the single state c, at distance ln 2 from both
        c, s = float(np.cos(turn)), float(np.sin(turn))
        g1, g2 = cone.PAULI[0], cone.PAULI[1] + cone.APEX
        fam = make_family(cone.ALGEBRA, [c * g1 + s * g2, c * g2 - s * g1])
        face = cone.base_circle_state(0.0).element + cone.APEX
        for rho in (cone.base_circle_state(0.0), cone.APEX_STATE):
            projectors, last = face_chain(rho, fam)
            assert [p.rank for p in projectors] == [2]
            assert (projectors[0].element - face).norm() <= defaults.MAX_EIG_GAP
            value, attained = entropy_distance(rho, last)
            assert attained
            assert value == pytest.approx(np.log(2.0), abs=1e-12)

    def test_interior_state_has_no_face(self, staffelberg):
        projectors, last = face_chain(staffelberg.member([0.2, 0.4]), staffelberg)
        assert projectors == [] and last is staffelberg

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(2, 4), st.lists(st.integers(1, 3), max_size=2),
           st.integers(1, 3), st.integers(0, 12), st.integers(0, 2**32 - 1))
    def test_face_of_a_generator(self, n0, rest, r, extra, seed):
        # rho is a full-rank state on the rank-r top eigenspace of g1: its
        # chain is g1's maximal projector, where the projection is attained,
        # whatever the dimension of the directions that could expose rho
        r = min(r, n0 - 1)
        algebra = Algebra((n0, *rest))
        dim = min(1 + extra, algebra.real_dim - 1)
        rng = np.random.default_rng(seed)

        def unitary(n):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            return q

        blocks, top = [], None
        for k, n in enumerate(algebra.block_dims):
            u, w = unitary(n), rng.uniform(-1.0, 0.5, size=n)
            if k == 0:
                w[:r], top = 1.0, u[:, :r]
            blocks.append((u * w) @ u.conj().T)
        g1 = HermitianElement(algebra, blocks)
        fam = make_family(algebra, [g1] + [random_traceless(algebra, rng)
                                           for _ in range(dim - 1)])
        lam, v = rng.dirichlet(np.ones(r)) + 0.05, unitary(r)
        state = [np.zeros((n, n)) for n in algebra.block_dims]
        state[0] = top @ ((v * (lam / lam.sum())) @ v.conj().T) @ top.conj().T
        rho = State(HermitianElement(algebra, state))

        projectors, last = face_chain(rho, fam)
        assert len(projectors) == 1
        assert same_image(projectors[0], max_eig_data(g1)[1])
        res = project_to_family(rho, last, param_cap=defaults.RI_PARAM_CAP)
        assert res.attained
        reduced = reduce_distance_to_face(rho, fam, g1)
        assert abs(res.distance - reduced) <= 1e-9
        value, attained = entropy_distance(rho, fam)
        assert not attained
        assert abs(value - reduced) <= 1e-9


class TestInclusionChain:
    def test_staffelberg_chain(self, staffelberg):
        report = inclusion_chain_check(staffelberg)
        assert report.ok, [f for f in report.failures()]

    def test_swallow_chain(self, swallow):
        report = inclusion_chain_check(swallow)
        assert report.ok, [f for f in report.failures()]
        # each norm finding names its group only, not the t its e-geodesic
        # ends at
        norm = [f for f in report.findings if f.check == "rI_subset_norm"]
        assert len(norm) == len(report.findings) // 2
        assert all(re.search(r"\] rank [0-9]+$", f.detail) for f in norm)

    def test_swallow_every_group(self, swallow):
        report = inclusion_chain_check(swallow, max_groups=10**6)
        assert report.ok, [f for f in report.failures()]
        assert len(_sampled_groups(report)) == len(_default_atlas("swallow").groups)

    def test_staffelberg_small_gaps(self, staffelberg, monkeypatch):
        # the groups within 0.22 rad of alpha = 0, where the direction's top
        # gap falls to 3.8e-5: at t = RI_PARAM_CAP 50 of them missed the bound
        atlas = _default_atlas("staffelberg")
        near = tuple(g for g in atlas.groups if min(g.mid_angle, 2.0 * np.pi - g.mid_angle) < 0.22)
        monkeypatch.setattr(closures, "geodesic_closure_atlas",
                            lambda family, n_directions: dataclasses.replace(atlas, groups=near))
        report = inclusion_chain_check(staffelberg, max_groups=10**6)
        assert report.ok, [f for f in report.failures()]
        assert len(_sampled_groups(report)) == len(near) == 51

    @pytest.mark.parametrize("name", ["staffelberg", "swallow", "cone:0.7", "random"])
    def test_group_projector_is_its_mid_angle_face(self, name):
        # the chain solves each sample in its group's family, which holds
        # only if the group's projector is the maximal projector of the
        # direction at its mid-angle, the face that direction exposes: equal
        # ranks and images as helpers.same_image compares them
        if name == "random":
            atlases = [geodesic_closure_atlas(random_family(
                Algebra(dims), 2, np.random.default_rng([seed, *dims])))
                for dims in ((2, 2), (1, 2, 1), (3,), (2, 1)) for seed in (0, 1)]
        else:
            atlases = [_default_atlas(name)]
        for atlas in atlases:
            spectra = _polar_sweep(atlas.family).spectra([g.mid_angle for g in atlas.groups])
            ranks, blocks = spectra.max_projectors()
            for i, g in enumerate(atlas.groups):
                dist = np.sqrt(sum(np.linalg.norm(b[i] - gb) ** 2
                                   for b, gb in zip(blocks, g.blocks)))
                assert ranks[i] == g.rank and dist <= defaults.MAX_EIG_GAP, g

    @pytest.mark.parametrize("name", ["staffelberg", "swallow", "cone:0.7"])
    def test_at_most_max_groups(self, name):
        # 542 // 24 and 566 // 24 strides sampled 25 of swallow's and cone:0.7's groups
        family = _default_atlas(name).family
        for max_groups in (24, 7):
            assert len(_sampled_groups(inclusion_chain_check(family, max_groups=max_groups))) \
                == max_groups

    def test_offset_family_chain(self, staffelberg, algebra, rng):
        fam = make_family(algebra, list(staffelberg.generators),
                          offset=random_hermitian(algebra, rng))
        assert fam.offset.norm() > 0.1
        report = inclusion_chain_check(fam)
        assert report.ok, [f for f in report.failures()]

    def test_chain_does_not_import_scipy(self):
        code = ("import sys\n"
                "from qexpfam import cone\n"
                "from qexpfam.closures import inclusion_chain_check\n"
                "assert inclusion_chain_check(cone.staffelberg_family()).ok\n"
                "print('scipy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(closures.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"

    def test_abelian_chain(self, abelian3):
        gens = [
            diagonal(abelian3, [1.0, -1.0, 0.0]),
            diagonal(abelian3, [1.0, 1.0, -2.0]),
        ]
        fam = make_family(abelian3, gens)
        report = inclusion_chain_check(fam, max_groups=8, n_directions=360)
        assert report.ok, [f for f in report.failures()]

    def test_staffelberg_second_inclusion_strict(self, staffelberg):
        # the midpoint of [rho(0), c] is a norm limit of the family but keeps
        # positive entropy distance: tau-path approximable, rI excluded
        m_sigma, m = cone.staffelberg_tau_path(0.5, 4.0e4)
        assert (m_sigma.element - m.element).norm() <= 1e-2
        assert not rI_membership(m, staffelberg)

    def test_swallow_first_inclusion_strict(self, swallow):
        # rho(0) has distance zero but is not a member of any atlas family
        rho0 = cone.base_circle_state(0.0)
        assert rI_membership(rho0, swallow)
        atlas = geodesic_closure_atlas(swallow, n_directions=180)
        for g in atlas.groups:
            if g.rank == 1:
                assert (g.representative.element - rho0.element).norm() > 1e-3
            else:
                try:
                    res = project_to_family(rho0, g.family, param_cap=60.0)
                    assert not res.attained
                except PreconditionError:
                    pass  # not even supported in that corner algebra


def _per_rung_ladder(family, group, theta_p, s, u):
    """The norm leg as it was before each e-geodesic got one rung: the
    smallest distance over t = 0, 5, 10, 20, ... doubling, ending on the
    RI_PARAM_CAP sphere, one family.member per rung."""
    p = group.projector
    cols = [coords(compress(p, v)[1]) for v in family.basis] + [coords(p.element)]
    rhs = group.family.parameter_element(theta_p) - compress(p, family.offset)[1]
    x = np.linalg.lstsq(np.column_stack(cols), coords(rhs), rcond=None)[0][:-1]
    u_hat = mean_value_projection(u, family)
    u_hat /= np.linalg.norm(u_hat)

    param_cap = defaults.RI_PARAM_CAP
    ladder, t = [0.0], 5.0
    while np.linalg.norm(x + t * u_hat) < param_cap:
        ladder.append(t)
        t *= 2.0
    b = float(x @ u_hat)
    disc = b * b - float(x @ x) + param_cap**2
    if disc >= 0.0 and -b + np.sqrt(disc) > ladder[-1]:
        ladder.append(-b + np.sqrt(disc))
    return min((s.element - family.member(x + t * u_hat).element).norm() for t in ladder)


def _one_rung(family, group, u, thetas):
    """The norm values of group's samples, one family.member each at
    x + t_end u_hat: the bit-for-bit reference.  Both samples are lifted in
    one least-squares solve, as a one-column solve may move bits."""
    p = group.projector
    cols = [coords(compress(p, v)[1]) for v in family.basis] + [coords(p.element)]
    rhs = [coords(group.family.parameter_element(theta_p) - compress(p, family.offset)[1])
           for theta_p in thetas]
    x = np.linalg.lstsq(np.column_stack(cols), np.column_stack(rhs), rcond=None)[0][:-1]
    u_hat = mean_value_projection(u, family)
    norm = np.linalg.norm(u_hat)
    u_hat /= norm
    gap = _polar_sweep(family).spectra([group.mid_angle]).top_gap(group.rank)[0]
    t_end = defaults.CHAIN_GAP_T * norm / gap
    return [(group.family.member(theta_p).element - family.member(xi + t_end * u_hat).element).norm()
            for theta_p, xi in zip(thetas, x.T)]


def _chain_atlas(name):
    if name == "offset":  # the family of test_offset_family_chain
        fam = cone.staffelberg_family()
        fam = make_family(fam.algebra, list(fam.generators), offset=random_hermitian(
            fam.algebra, np.random.default_rng(20260809)))
        return geodesic_closure_atlas(fam)
    if name == "random-2,2":
        return geodesic_closure_atlas(random_family(Algebra((2, 2)), 2, np.random.default_rng(5)))
    return _default_atlas(name)


def _sampled_groups(report):
    """The group part of each finding's detail, once per sampled group."""
    return {re.sub(r"^\w+ of ", "", f.detail) for f in report.findings}


def _check_samples(atlas, report):
    """(group, u, thetas) of each group the report sampled, in its order."""
    sampled = _sampled_groups(report)
    for g in atlas.groups:
        if f"group at alpha [{g.alpha_lo:.6f}, {g.alpha_hi:.6f}] rank {g.rank}" in sampled:
            thetas = [np.zeros(g.family_dim)]
            if g.family_dim >= 1:
                thetas.append(0.7 * np.ones(g.family_dim))
            yield g, sweep_direction(atlas.family, g.mid_angle), thetas


CHAIN_FAMILIES = ["staffelberg", "swallow", "cone:0.7", "offset", "random-2,2"]


class TestNormLeg:
    @pytest.mark.parametrize("name", CHAIN_FAMILIES)
    def test_values_are_single_members(self, name):
        atlas = _chain_atlas(name)
        report = inclusion_chain_check(atlas.family)
        want = [v for g, u, thetas in _check_samples(atlas, report)
                for v in _one_rung(atlas.family, g, u, thetas)]
        assert [f.value for f in report.findings if f.check == "rI_subset_norm"] == want

    @pytest.mark.parametrize("name", ["swallow", "abelian-111"])
    def test_one_eigh_per_block_and_no_member(self, name, monkeypatch):
        if name == "abelian-111":
            algebra = Algebra((1, 1, 1))
            family = make_family(algebra, [
                diagonal(algebra, [1.0, -1.0, 0.0]), diagonal(algebra, [1.0, 1.0, -2.0])])
        else:
            family = _default_atlas(name).family
        members, eighs, leg_calls = [], [], []
        member, real_eigh, norm_leg = ExponentialFamily.member, np.linalg.eigh, closures._norm_leg

        def spy(calls, fn):
            def counted(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return counted

        def spied_leg(family, legs):  # the norm leg, with member and eigh counted
            leg_calls.append(legs)
            with monkeypatch.context() as m:
                m.setattr(ExponentialFamily, "member", spy(members, member))
                m.setattr(np.linalg, "eigh", spy(eighs, real_eigh))
                return norm_leg(family, legs)

        monkeypatch.setattr(closures, "_norm_leg", spied_leg)
        report = inclusion_chain_check(family)
        monkeypatch.undo()
        assert members == []
        dims = family.algebra.block_dims
        assert len(eighs) == len(set(dims))
        # one call, and one stack per block size, (blocks, samples, n, n),
        # holds every sample of the check
        (legs,) = leg_calls
        n_samples = sum(len(samples) for *_, samples in legs)
        assert sorted(np.shape(m)[:2] for (m,) in eighs) == sorted(
            (dims.count(n), n_samples) for n in set(dims))
        assert n_samples == len(report.findings) // 2

    @pytest.mark.parametrize("name", CHAIN_FAMILIES)
    def test_no_worse_than_the_ladder(self, name):
        atlas = _chain_atlas(name)
        report = inclusion_chain_check(atlas.family)
        norms = iter(f.value for f in report.findings if f.check == "rI_subset_norm")
        for g, u, thetas in _check_samples(atlas, report):
            for theta_p in thetas:
                old = _per_rung_ladder(atlas.family, g, theta_p, g.family.member(theta_p), u)
                assert next(norms) <= old + 1e-12
        assert next(norms, None) is None


class TestNormClosureUpperBound:
    def test_limit_points_lie_on_exposed_faces(self, staffelberg, swallow):
        # every sampled geodesic limit outside the family passes the
        # exposed-face test for its sweep direction
        from qexpfam.states import exposed_face_membership

        for fam in (staffelberg, swallow):
            atlas = geodesic_closure_atlas(fam, n_directions=90)
            for g in atlas.groups[:: max(1, len(atlas.groups) // 12)]:
                mid = 0.5 * (g.alpha_lo + g.alpha_hi)
                u = sweep_direction(fam, mid)
                assert exposed_face_membership(g.representative, u)


class TestMonotonicityRandomized:
    def test_distance_decreases_along_random_exposing_geodesics(self, rng):
        # for rho in the face of u, S(rho, exp1(theta + t u)) strictly drops
        from qexpfam.sampling import random_traceless
        from qexpfam.states import max_eig_data, pure_state

        algebra = cone.ALGEBRA
        for _ in range(10):
            u = random_traceless(algebra, rng)
            _, p = max_eig_data(u)
            rho = None
            for k, blk in enumerate(p.element.blocks):
                w, V = np.linalg.eigh(blk)
                if w[-1] > 0.5:
                    rho = pure_state(algebra, k, V[:, -1])
                    break
            theta = random_traceless(algebra, rng, 0.5)
            values = [
                relative_entropy(rho, exp1(theta + t * u))
                for t in np.linspace(0.0, 5.0, 11)
            ]
            for a, b in zip(values, values[1:]):
                assert b < a + 1e-14


def _object_path_direction(family, alpha):
    g1, g2 = family.generators
    return float(np.sin(alpha)) * g1 + float(np.cos(alpha)) * g2


# base-circle states of the parity families that no tangent direction
# exposes: swallow's open arc (0, pi/2) and the arc around alpha = 0 of the
# 0.03 tilt, recorded from the 720-angle search this finder replaced
_NO_FACE = {"swallow": (1, 2, 3, 4), "tilt-0.03": (0, 1, 2, 3, 4, 16, 17, 18, 19)}


def _parity_family(name):
    if name == "staffelberg":
        return cone.staffelberg_family()
    if name == "swallow":
        return cone.swallow_family()
    if name == "tilt-0.03":
        return cone.plane_for_angle(0.03)
    dims = {"abelian-111": (1, 1, 1), "blocks-321": (3, 2, 1)}[name]
    return random_family(Algebra(dims), 2, np.random.default_rng(list(dims)))


class TestSweepKernelParity:
    @pytest.mark.parametrize(
        "name", ["staffelberg", "swallow", "tilt-0.03", "abelian-111", "blocks-321"]
    )
    def test_kernel_matches_object_path(self, name):
        # the batched kernel reproduces the per-angle object path bit for bit
        fam = _parity_family(name)
        kernel = _polar_sweep(fam)
        alphas = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        spectra = kernel.spectra(alphas)
        mu, gap = spectra.top(), spectra.top_gap()
        ranks, blocks = spectra.max_projectors()
        for i, alpha in enumerate(alphas):
            u = _object_path_direction(fam, alpha)
            for a, b in zip(sweep_direction(fam, alpha).blocks, u.blocks):
                assert np.array_equal(a, b)
            mu_i, p = max_eig_data(u)
            w = eigh(u).all_eigenvalues()
            assert mu[i] == mu_i
            assert gap[i] == w[0] - w[1]
            assert ranks[i] == p.rank
            for b, pb in zip(blocks, p.element.blocks):
                assert np.array_equal(b[i], pb)

        # the face finder on the base circle in the cone algebra, otherwise on
        # the normalized maximal projectors of 20 grid directions: it finds a
        # direction exactly where one exists, and its face holds the state
        angles = np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False)
        if fam.algebra == cone.ALGEBRA:
            states = [cone.base_circle_state(a) for a in angles]
        else:
            states = []
            for a in angles:
                _, p = max_eig_data(_object_path_direction(fam, a))
                states.append(State(p.element / p.rank))
        for k, rho in enumerate(states):
            face = _exposing_direction(rho, fam)
            assert (face is None) == (k in _NO_FACE.get(name, ())), k
            if face is not None:
                u, _ = face
                assert exposed_face_membership(rho, u)
                _, p = max_eig_data(u)
                assert p.contains(support_projector(rho).element)
