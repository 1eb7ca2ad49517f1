"""Limits of e-geodesics and the three closures of an exponential family.

An e-geodesic exp1(theta + lambda u) concentrates, as lambda grows, on the
maximal eigenspace of u; its limit is the compressed-family member
p e^{p theta p} / tr(p e^{p theta p}) with p the maximal projector of u.  The
geodesic closure is therefore a disjoint union of families in corner
algebras, one per maximal projector of a tangent direction.  For 2D tangent
spaces the projectors are enumerated by an angular sweep; isolated directions
where eigenvalue branches cross (higher-rank projectors, measure zero in the
sweep) come from DirectionSweep.crossings, the rule that gives the boundary
sweep its segments: a grid interval across which the maximal projector
jumps holds one.  Two crossings inside one grid interval leave at most one
spike.  The sweep runs on linalg.DirectionSweep (a = g2, b = g1).

The reverse-information closure collects the states at entropy distance zero.
On an exposed face cut out by a tangent direction, the distance equals the
distance from the compressed family, which turns several boundary distances
into exactly solvable problems.  family.face_chain applies this face by face
(Weis & Knauf, arXiv:1007.5464; Csiszar & Matus, IEEE Trans. IT 49, 2003),
and family.entropy_distance solves in the family it ends in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import defaults
from .errors import PreconditionError
from .family import (  # face_chain and _face_direction are re-exported
    ExponentialFamily,
    _face_direction,
    entropy_distance,
    face_chain,
    free_energy,
    make_compressed_family,
    mean_value_projection,
    project_to_family,
)
from .findings import Report
from .linalg import (DirectionSweep, HermitianElement, coords, project_out,
                     traceless_part)
from .states import (
    Projector,
    State,
    SupportBasis,
    _rank_one_state,
    compress,
    exposed_face_membership,
    max_eig_data,
)


def egeodesic_limit(
    theta: HermitianElement, u: HermitianElement
) -> tuple[State, float]:
    """Limit state and free-energy asymptote of the geodesic exp1(theta + t u).

    Returns (p e^{p theta p} / tr(p e^{p theta p}), ln tr(p e^{p theta p}))
    for the maximal projector p of u; the second value is the limit of
    F(theta + t u) - t mu_+(u).
    """
    if u.norm() == 0.0:
        raise PreconditionError("geodesic direction must be non-zero")
    _, p = max_eig_data(u)
    support = SupportBasis(p)
    ptp, _ = compress(p, theta)
    asymptote, limit = free_energy(ptp, support)
    return limit, float(asymptote)


# -- geodesic closure atlas -----------------------------------------------------


@dataclass(frozen=True)
class AtlasGroup:
    """All sweep directions sharing one maximal projector, with their family.

    Interval groups cover [alpha_lo, alpha_hi] (a run that wraps past 2 pi
    has alpha_lo > alpha_hi); spike groups (isolated crossing angles, where
    the projector rank jumps) have alpha_lo=alpha_hi.  The compressed family
    and its representative are built from the parent family on first use.
    """

    projector: Projector
    rank: int
    alpha_lo: float
    alpha_hi: float
    n_samples: int
    spike: bool
    parent: ExponentialFamily = field(repr=False, compare=False)

    @cached_property
    def family(self) -> ExponentialFamily:
        return make_compressed_family(self.parent, self.projector)

    @cached_property
    def representative(self) -> State:
        if self.rank == 1:  # pAp = C p: the family is the single state p, on
            # p's eigenvector as the compressed family's support basis finds it
            k, p = next((k, b) for k, b in enumerate(self.projector.element.blocks)
                        if b.trace().real > 0.5)
            return _rank_one_state(self.parent.algebra, k, np.linalg.eigh(p)[1][:, ::-1])
        return self.family.member(np.zeros(self.family.dim))

    @property
    def family_dim(self) -> int:
        return 0 if self.rank == 1 else self.family.dim

    @property
    def mid_angle(self) -> float:
        """Midpoint of the group's arc, taken along the arc for wrapped runs."""
        mid = 0.5 * (self.alpha_lo + self.alpha_hi)
        if self.alpha_lo > self.alpha_hi:
            mid = (mid + np.pi) % (2.0 * np.pi)
        return mid


@dataclass(frozen=True)
class ClosureAtlas:
    """Sampled geodesic closure of a 2D family, grouped by maximal projector."""

    family: ExponentialFamily
    n_directions: int
    groups: tuple[AtlasGroup, ...]

    def spike_groups(self) -> list[AtlasGroup]:
        return [g for g in self.groups if g.spike]


def sweep_direction(family: ExponentialFamily, alpha: float) -> HermitianElement:
    """Polar direction sin(alpha) g1 + cos(alpha) g2 over the family generators.

    This is the parametrization in which the named families' projector
    transitions sit at round angles; any full sweep covers the same set of
    directions as the orthonormal-basis convention.
    """
    blocks = _polar_sweep(family).blocks([alpha])
    return HermitianElement(family.algebra, [u[0] for u in blocks])


def _polar_sweep(family: ExponentialFamily) -> DirectionSweep:
    """The kernel of sweep_direction: cos(alpha) g2 + sin(alpha) g1."""
    if len(family.generators) != 2:
        raise PreconditionError("polar sweeps need exactly two generators")
    g1, g2 = family.generators
    return DirectionSweep(g2.blocks, g1.blocks)


def geodesic_closure_atlas(
    family: ExponentialFamily, n_directions: int = defaults.SWEEP_ANGLES
) -> ClosureAtlas:
    """Sample the geodesic closure of a 2D family over a polar direction grid.

    Directions are grouped by equality of their maximal projectors (within
    1e-9, robust to phase ambiguity inside degenerate eigenspaces).  A run
    of one whose rank exceeds both neighbours is a spike on the grid; each
    eigenvalue crossing between grid angles (DirectionSweep.crossings,
    located to SWEEP_CROSSING_TOL) adds one spike with the higher-rank
    projector there.  Grid projectors stay raw blocks; one Projector is
    built per run.
    """
    if family.dim != 2:
        raise PreconditionError("closure atlases require a 2D tangent space")
    if family.support is not None:
        raise PreconditionError("closure atlases require a full-algebra family")
    n = int(n_directions)
    alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kernel = _polar_sweep(family)
    spectra = kernel.spectra(alphas)
    ranks, blocks = spectra.max_projectors()

    # distance from each grid projector to the next one (cyclically); equal
    # images: equal rank and distance within the merge tolerance
    dist = np.sqrt(sum(
        np.linalg.norm(b - np.roll(b, -1, axis=0), axis=(1, 2)) ** 2 for b in blocks
    ))
    same_next = (ranks == np.roll(ranks, -1)) & (dist <= defaults.MAX_EIG_GAP)

    # runs of consecutive equal projectors (cyclically)
    runs: list[list[int]] = [[0]]
    for j in range(1, n):
        if same_next[j - 1]:
            runs[-1].append(j)
        else:
            runs.append([j])
    if len(runs) > 1 and same_next[n - 1]:
        runs[0] = runs.pop() + runs[0]

    def group(stack, j: int, a_lo, a_hi, count: int, spike: bool) -> AtlasGroup:
        p = Projector(HermitianElement(family.algebra, [b[j] for b in stack]))
        return AtlasGroup(p, p.rank, float(a_lo), float(a_hi), count, spike, family)

    groups = []
    for r in runs:
        spike = len(r) == 1 and ranks[r[0]] > min(ranks[r[0] - 1], ranks[(r[0] + 1) % n])
        groups.append(group(blocks, r[0], alphas[r[0]], alphas[r[-1]], len(r), spike))
    # one spike per eigenvalue crossing between grid angles
    found = kernel.crossings(alphas, spectra)
    spikes = kernel.spectra(found).max_projectors()[1]
    groups += [group(spikes, i, a, a, 0, True) for i, a in enumerate(found)]
    groups.sort(key=lambda g: (g.alpha_lo, g.alpha_hi))
    return ClosureAtlas(family=family, n_directions=n, groups=tuple(groups))


# -- distance reduction and rI membership ----------------------------------------


def reduce_distance_to_face(
    rho: State,
    family: ExponentialFamily,
    v: HermitianElement,
    param_cap: float = defaults.RI_PARAM_CAP,
) -> float:
    """Entropy distance of a state on the exposed face of v, computed inside
    the compressed family of the maximal projector of v.

    Requires v (up to its trace part) in the tangent space and rho in the
    exposed face; the result agrees with the direct entropy distance.  One
    step of face_chain, with the direction given instead of found.
    """
    vt = traceless_part(v)
    resid = project_out(vt, family.basis)
    if vt.norm() == 0.0 or resid.norm() > 1e-9 * max(1.0, vt.norm()):
        raise PreconditionError("direction is not in the tangent space")
    if not exposed_face_membership(rho, v):
        raise PreconditionError("state is not in the exposed face of v")
    fam_p = make_compressed_family(family, max_eig_data(v)[1])
    return project_to_family(rho, fam_p, param_cap=param_cap).distance


def rI_membership(rho: State, family: ExponentialFamily) -> bool:
    """Whether rho's exact entropy distance (entropy_distance) is below RI_EPS."""
    return entropy_distance(rho, family)[0] < defaults.RI_EPS


# -- the inclusion chain ----------------------------------------------------------


def _geodesic_ladder(
    family: ExponentialFamily,
    group: AtlasGroup,
    theta_p: np.ndarray,
    s: State,
    u: HermitianElement,
) -> float:
    """Hilbert-Schmidt distance from s = group.family.member(theta_p) to the
    family along the e-geodesic that converges to s.

    theta_p is lifted to parent coordinates x by least squares through c^p
    (multiples of p are dropped: exp1^p ignores them); then member(x + t u_hat)
    is evaluated for t = 0, 5, 10, 20, ... doubling, ending on the RI_PARAM_CAP
    sphere, where u_hat is the unit coordinate vector of u.  The smallest value
    comes from an explicit family member, so it bounds the distance above.
    """
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


def inclusion_chain_check(
    family: ExponentialFamily,
    n_directions: int = defaults.SWEEP_ANGLES,
    max_groups: int = 24,
) -> Report:
    """Verify the closure inclusion chain on sampled states.

    Geodesic-closure members must have entropy distance below RI_EPS; states
    at distance below RI_EPS must be approximable in norm, within the bound
    that the Pinsker-Csiszar inequality grants (||.||_1 <= sqrt(2 RI_EPS)).
    The norm approximation follows each sampled group's own e-geodesic.
    """
    report = Report(name="closure_inclusion_chain")
    atlas = geodesic_closure_atlas(family, n_directions=n_directions)

    groups = list(atlas.groups)
    if len(groups) > max_groups:
        stride = max(1, len(groups) // max_groups)
        groups = groups[::stride]

    norm_bound = float(np.sqrt(2.0 * defaults.RI_EPS)) * 1.5
    for g in groups:
        u = sweep_direction(family, g.mid_angle)
        thetas = [("representative", np.zeros(g.family_dim))]
        if g.family_dim >= 1:
            thetas.append(("member", 0.7 * np.ones(g.family_dim)))
        for tag, theta_p in thetas:
            where = (f"{tag} of group at alpha [{g.alpha_lo:.6f}, {g.alpha_hi:.6f}] "
                     f"rank {g.rank}")
            s = g.family.member(theta_p)
            d = reduce_distance_to_face(family=family, rho=s, v=u)
            report.add("geo_subset_rI", where, d, defaults.RI_EPS)
            gap = _geodesic_ladder(family, g, theta_p, s, u)
            report.add("rI_subset_norm", where, gap, norm_bound)
    return report
