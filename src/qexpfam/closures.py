"""Limits of e-geodesics and the three closures of an exponential family.

An e-geodesic exp1(theta + lambda u) concentrates, as lambda grows, on the
maximal eigenspace of u; its limit is the compressed-family member
p e^{p theta p} / tr(p e^{p theta p}) with p the maximal projector of u.  The
geodesic closure is therefore a disjoint union of families in corner
algebras, one per maximal projector of a tangent direction.  For 2D tangent
spaces the projectors are enumerated by an angular sweep; isolated directions
where eigenvalue branches merge (higher-rank projectors, measure zero in the
sweep) are located by a ternary search on the top spectral gap.  The sweep
and the face-direction search run on boundary.DirectionSweep (a = g2, b = g1).

The reverse-information closure collects the states at entropy distance zero.
On an exposed face cut out by a tangent direction, the distance equals the
distance from the compressed family, which turns several boundary distances
into exactly solvable problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import defaults
from .boundary import DirectionSweep
from .errors import PreconditionError
from .family import (
    ExponentialFamily,
    entropy_distance,
    free_energy,
    make_compressed_family,
    mean_value_projection,
    project_to_family,
)
from .findings import Report
from .linalg import HermitianElement, coords, project_out, traceless_part
from .states import (
    Projector,
    State,
    SupportBasis,
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
        return self.family.member(np.zeros(self.family.dim))

    @property
    def family_dim(self) -> int:
        return self.family.dim

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
    transition_angles: tuple[float, ...]

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


def _angle_dist(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * np.pi)
    return min(d, 2.0 * np.pi - d)


def geodesic_closure_atlas(
    family: ExponentialFamily, n_directions: int = defaults.SWEEP_ANGLES
) -> ClosureAtlas:
    """Sample the geodesic closure of a 2D family over a polar direction grid.

    Directions are grouped by equality of their maximal projectors (within
    1e-9, robust to phase ambiguity inside degenerate eigenspaces);
    projector discontinuities between grid angles are refined by a ternary
    gap search to 1e-10 and checked for a higher-rank crossing direction
    there.  Grid projectors stay raw blocks; one Projector is built per run.
    """
    if family.dim != 2:
        raise PreconditionError("closure atlases require a 2D tangent space")
    if family.support is not None:
        raise PreconditionError("closure atlases require a full-algebra family")
    n = int(n_directions)
    alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kernel = _polar_sweep(family)
    ranks, blocks = kernel.spectra(alphas).max_projectors()

    def projector(stack: list[np.ndarray], j: int) -> Projector:
        return Projector(HermitianElement(family.algebra, [b[j] for b in stack]))

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

    step = 2.0 * np.pi / n
    jump_tol = 5.0 * step

    groups: list[AtlasGroup] = []
    transitions: list[float] = []

    def add_group(p: Projector, a_lo: float, a_hi: float, count: int, spike: bool):
        groups.append(AtlasGroup(p, p.rank, float(a_lo), float(a_hi), count, spike,
                                 family))

    for run in runs:
        p = projector(blocks, run[0])
        a_lo = float(alphas[run[0]])
        a_hi = float(alphas[run[-1]])
        spike = len(run) == 1 and p.rank > min(
            ranks[(run[0] - 1) % n], ranks[(run[0] + 1) % n]
        )
        add_group(p, a_lo, a_hi, len(run), spike)
        if spike:
            transitions.append(a_lo)

    # hidden crossings between adjacent samples with a genuine projector jump
    known_spikes = [g.alpha_lo for g in groups if g.spike]
    for j in range(n):
        k = (j + 1) % n
        if same_next[j]:
            continue
        if dist[j] <= jump_tol:
            continue  # smooth drift of a moving rank-one projector
        lo = float(alphas[j])
        hi = float(alphas[j] + step)
        if any(
            _angle_dist(lo, s) < 1.5 * step or _angle_dist(hi, s) < 1.5 * step
            for s in known_spikes
        ):
            continue  # the crossing is already a sampled spike
        alpha_star = kernel.locate_crossing(lo, hi, defaults.TRANSITION_ANGLE_TOL * 0.5)
        if alpha_star is None:
            continue
        p_star = projector(kernel.spectra([alpha_star]).max_projectors()[1], 0)
        transitions.append(alpha_star % (2.0 * np.pi))
        if not (p_star.same_image(projector(blocks, j))
                or p_star.same_image(projector(blocks, k))):
            add_group(p_star, alpha_star, alpha_star, 0, True)

    groups.sort(key=lambda g: (g.alpha_lo, g.alpha_hi))
    return ClosureAtlas(
        family=family,
        n_directions=n,
        groups=tuple(groups),
        transition_angles=tuple(sorted(t % (2.0 * np.pi) for t in transitions)),
    )


# -- distance reduction and rI membership ----------------------------------------


def reduce_distance_to_face(
    rho: State,
    family: ExponentialFamily,
    v: HermitianElement,
    tol: float = defaults.SOLVER_TOL,
    param_cap: float = defaults.RI_PARAM_CAP,
) -> float:
    """Entropy distance of a state on the exposed face of v, computed inside
    the compressed family of the maximal projector of v.

    Requires v (up to its trace part) in the tangent space and rho in the
    exposed face; the result agrees with the direct entropy distance.
    """
    vt = traceless_part(v)
    resid = project_out(vt, family.basis)
    if vt.norm() == 0.0 or resid.norm() > 1e-9 * max(1.0, vt.norm()):
        raise PreconditionError("direction is not in the tangent space")
    if not exposed_face_membership(rho, v):
        raise PreconditionError("state is not in the exposed face of v")
    _, p = max_eig_data(v)
    fam_p = make_compressed_family(family, p)
    res = project_to_family(rho, fam_p, tol=tol, param_cap=param_cap)
    return res.distance


def _search_face_direction(
    rho: State, family: ExponentialFamily, n_grid: int = 720
) -> HermitianElement | None:
    """Search the 2D direction sphere for a face containing rho.

    Maximizes <rho, u(alpha)> - mu_+(u(alpha)) (always <= 0, zero exactly on
    a face) on a grid, evaluated in one kernel call, with golden-section
    refinement of the best candidate.
    """
    if family.dim != 2 or len(family.generators) != 2:
        return None
    kernel = _polar_sweep(family)

    def slack(alpha: float) -> float:
        return float(kernel.slack(rho.element.blocks, [alpha])[0])

    alphas = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    j = int(np.argmax(kernel.slack(rho.element.blocks, alphas)))
    lo = alphas[j] - 2.0 * np.pi / n_grid
    hi = alphas[j] + 2.0 * np.pi / n_grid
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fa, fb = slack(a), slack(b)
    for _ in range(120):
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + phi * (hi - lo)
            fb = slack(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - phi * (hi - lo)
            fa = slack(a)
    alpha = 0.5 * (lo + hi)
    if slack(alpha) < -1e-9:
        return None
    # golden section stalls at sqrt(eps) on a smooth maximum; a parabola fit
    # through slack samples super-resolves the face angle, which keeps the
    # maximal projector (and any compressed family built from it) clean
    for h in (1e-4, 1e-6):
        s0, sp, sm = slack(alpha), slack(alpha + h), slack(alpha - h)
        curv = sp - 2.0 * s0 + sm
        if curv >= -1e-300:
            break
        shift = -0.5 * h * (sp - sm) / curv
        if abs(shift) > h:
            shift = np.sign(shift) * h
        if slack(alpha + shift) >= s0:
            alpha += shift
    if slack(alpha) < -1e-9:
        return None
    return sweep_direction(family, alpha)


def rI_membership(
    rho: State,
    family: ExponentialFamily,
    eps: float = defaults.RI_EPS,
    param_cap: float = defaults.RI_PARAM_CAP,
    face_direction: HermitianElement | None = None,
) -> bool:
    """Whether rho lies in the reverse-information closure (distance < eps).

    When rho sits on an exposed face of a tangent direction the distance is
    first reduced to the compressed family, which answers exactly; otherwise
    the direct minimization at the given parameter cap decides.
    """
    if face_direction is None:
        face_direction = _search_face_direction(rho, family)
    if face_direction is not None:
        try:
            return (
                reduce_distance_to_face(
                    rho, family, face_direction, param_cap=param_cap
                )
                < eps
            )
        except PreconditionError:
            pass
    value, _ = entropy_distance(rho, family, param_cap=param_cap)
    return value < eps


# -- the inclusion chain ----------------------------------------------------------


def _geodesic_ladder(
    family: ExponentialFamily,
    group: AtlasGroup,
    theta_p: np.ndarray,
    s: State,
    u: HermitianElement,
    param_cap: float,
) -> tuple[float, float]:
    """Hilbert-Schmidt distance from s = group.family.member(theta_p) to the
    family along the e-geodesic that converges to s; returns (distance, t).

    theta_p is lifted to parent coordinates x by least squares through c^p
    (multiples of p are dropped: exp1^p ignores them); then member(x + t u_hat)
    is evaluated for t = 0, 5, 10, 20, ... doubling, ending on the param_cap
    sphere, where u_hat is the unit coordinate vector of u.  The smallest value
    comes from an explicit family member, so it bounds the distance above.
    """
    p = group.projector
    cols = [coords(compress(p, v)[1]) for v in family.basis] + [coords(p.element)]
    rhs = group.family.parameter_element(theta_p) - compress(p, family.offset)[1]
    x = np.linalg.lstsq(np.column_stack(cols), coords(rhs), rcond=None)[0][:-1]
    u_hat = mean_value_projection(u, family)
    u_hat /= np.linalg.norm(u_hat)

    ladder, t = [0.0], 5.0
    while np.linalg.norm(x + t * u_hat) < param_cap:
        ladder.append(t)
        t *= 2.0
    b = float(x @ u_hat)
    disc = b * b - float(x @ x) + param_cap**2
    if disc >= 0.0 and -b + np.sqrt(disc) > ladder[-1]:
        ladder.append(-b + np.sqrt(disc))
    return min(
        ((s.element - family.member(x + t * u_hat).element).norm(), t) for t in ladder
    )


def inclusion_chain_check(
    family: ExponentialFamily,
    eps: float = defaults.RI_EPS,
    param_cap: float = defaults.RI_PARAM_CAP,
    n_directions: int = defaults.SWEEP_ANGLES,
    max_groups: int = 24,
) -> Report:
    """Verify the closure inclusion chain on sampled states.

    Geodesic-closure members must have entropy distance below eps; states at
    distance below eps must be approximable in norm, within the bound that
    the Pinsker-Csiszar inequality grants (||.||_1 <= sqrt(2 eps)).  The norm
    approximation follows each sampled group's own e-geodesic.
    """
    report = Report(name="closure_inclusion_chain")
    atlas = geodesic_closure_atlas(family, n_directions=n_directions)

    groups = list(atlas.groups)
    if len(groups) > max_groups:
        stride = max(1, len(groups) // max_groups)
        groups = groups[::stride]

    norm_bound = float(np.sqrt(2.0 * eps)) * 1.5
    for g in groups:
        u = sweep_direction(family, g.mid_angle)
        thetas = [("representative", np.zeros(g.family_dim))]
        if g.family_dim >= 1:
            thetas.append(("member", 0.7 * np.ones(g.family_dim)))
        for tag, theta_p in thetas:
            where = (f"{tag} of group at alpha [{g.alpha_lo:.6f}, {g.alpha_hi:.6f}] "
                     f"rank {g.rank}")
            s = g.family.member(theta_p)
            d = reduce_distance_to_face(family=family, rho=s, v=u, param_cap=param_cap)
            report.add("geo_subset_rI", where, d, eps)
            gap, t = _geodesic_ladder(family, g, theta_p, s, u, param_cap)
            report.add("rI_subset_norm", f"{where}, t={t:g}", gap, norm_bound)
    return report
