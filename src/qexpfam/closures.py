"""Limits of e-geodesics and the three closures of an exponential family.

An e-geodesic exp1(theta + lambda u) concentrates, as lambda grows, on the
maximal eigenspace of u; its limit is the compressed-family member
p e^{p theta p} / tr(p e^{p theta p}) with p the maximal projector of u.  The
geodesic closure is therefore a disjoint union of families in corner
algebras, one per maximal projector of a tangent direction.  For 2D tangent
spaces the projectors are enumerated by an angular sweep; isolated directions
where eigenvalue branches cross (higher-rank projectors, measure zero in the
sweep) come from DirectionSweep.crossings, the rule of the boundary sweep's
segments: one per grid interval across which the maximal projector jumps,
or two where a third branch passes the top, and none where it swaps back
inside one.  The sweep runs on linalg.DirectionSweep (a = g2, b = g1), and
each atlas group is a row of its stacked maximal projectors: the public,
validated Projector is built only when a caller reads it.

The reverse-information closure collects the states at entropy distance zero.
On an exposed face cut out by a tangent direction, the distance equals the
distance from the compressed family, which turns several boundary distances
into exactly solvable problems.  family.face_chain applies this face by face
(Weis & Knauf, arXiv:1007.5464; Csiszar & Matus, IEEE Trans. IT 49, 2003),
and family.entropy_distance solves in the family it ends in.

inclusion_chain_check verifies geodesic closure in rI-closure in norm
closure on sampled atlas groups.  Each sample is a member of its group's
compressed family, the family of the face that the group's directions
expose, so its distance is entropy_distance in that family, where the face
chain of the full family would lead.  The directions and top gaps come from
one sweep; each norm leg evaluates the group's e-geodesic once, at the t its
gap sets (defaults.CHAIN_GAP_T), every sample in one stacked Gibbs
evaluation per algebra block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import defaults
from .errors import PreconditionError
from .family import (
    ExponentialFamily,
    _chain_projection,
    _check_tangent,
    _combine,
    _gibbs,
    _gibbs_spectra,
    entropy_distance,
    free_energy,
    make_compressed_family,
    mean_value_projection,
)
from .findings import Report
from .linalg import DirectionSweep, HermitianElement, coords
from .states import (
    Projector,
    State,
    _on_exposed_face,
    _rank_one_spectrum,
    _rank_one_state,
    _state_blocks,
    compress,
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
    ptp, _ = compress(p, theta)
    asymptote, limit = free_energy(ptp, p)
    return limit, float(asymptote)


# -- geodesic closure atlas -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class AtlasGroup:
    """All sweep directions sharing one maximal projector, with their family.

    Interval groups cover [alpha_lo, alpha_hi] (a run that wraps past 2 pi
    has alpha_lo > alpha_hi); spike groups (isolated crossing angles, where
    the projector rank jumps) have alpha_lo=alpha_hi.  blocks and rank are
    the group's row of the sweep's maximal projectors; the validated
    Projector, the compressed family and its representative are built on
    first use.  A rank-one group's representative is the pure state on
    column 0 of pure = (block, columns), the eigenvectors (descending) of its
    projector block, decomposed with the atlas.  Groups compare by identity.
    """

    blocks: tuple[np.ndarray, ...] = field(repr=False)
    rank: int
    alpha_lo: float
    alpha_hi: float
    n_samples: int
    spike: bool
    parent: ExponentialFamily = field(repr=False)
    pure: tuple[int, np.ndarray] | None = field(default=None, repr=False)

    @cached_property
    def projector(self) -> Projector:
        return Projector(HermitianElement(self.parent.algebra, self.blocks))

    @cached_property
    def family(self) -> ExponentialFamily:
        return make_compressed_family(self.parent, self.projector)

    @cached_property
    def representative(self) -> State:
        if self.pure is not None:  # pAp = C p: the family is the single state p
            return _rank_one_state(self.parent.algebra, *self.pure)
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

    def representative_blocks(self) -> list[np.ndarray]:
        """Per algebra block, the stacked blocks of every group's
        representative, in group order, bit for bit those of
        ``g.representative``; the rank-one groups' come from one stacked
        reconstruction per block."""
        algebra = self.family.algebra
        out = [np.empty((len(self.groups), n, n), dtype=complex) for n in algebra.block_dims]
        pure: dict[int, list[int]] = {}  # block: rows of its rank-one groups
        for i, g in enumerate(self.groups):
            if g.pure is None:
                for stack, b in zip(out, g.representative.element.blocks):
                    stack[i] = b
            else:
                pure.setdefault(g.pure[0], []).append(i)
        for k, rows in pure.items():
            columns = np.stack([self.groups[i].pure[1] for i in rows])
            blocks = _state_blocks(algebra, *_rank_one_spectrum(algebra, k, columns))
            for stack, b in zip(out, blocks):
                stack[rows] = b
        return out


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
    projector there.  The crossing rows join the grid's projector stacks,
    and each group keeps its row: nothing is validated while the atlas is
    built.  The rank-one rows are decomposed with one stacked eigh per
    algebra block, over the rows whose projector that block carries.
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
    runs = [r.tolist() for r in np.split(np.arange(n), np.flatnonzero(~same_next[:-1]) + 1)]
    if len(runs) > 1 and same_next[n - 1]:
        runs[0] = runs.pop() + runs[0]

    # (row, alpha_lo, alpha_hi, n_samples, spike) per group; the rows of the
    # crossings, one spike each, follow the grid's
    rows = [(r[0], alphas[r[0]], alphas[r[-1]], len(r),
             len(r) == 1 and ranks[r[0]] > min(ranks[r[0] - 1], ranks[(r[0] + 1) % n]))
            for r in runs]
    found, at = kernel.crossings(alphas, ranks, blocks)
    rows += [(n + i, a, a, 0, True) for i, a in enumerate(found)]
    spike_ranks, spike_blocks = at.max_projectors()
    ranks = np.concatenate([ranks, spike_ranks])
    blocks = [np.concatenate(pair) for pair in zip(blocks, spike_blocks)]

    # a rank-one projector lives in the block where its trace is 1
    ones = np.array([row[0] for row in rows if ranks[row[0]] == 1], dtype=int)
    owner = np.argmax([np.trace(b[ones], axis1=1, axis2=2).real for b in blocks], axis=0)
    pure = {}
    for k, b in enumerate(blocks):
        mine = ones[owner == k]
        if mine.size:
            columns = np.linalg.eigh(b[mine])[1][..., ::-1]
            pure.update((j, (k, c)) for j, c in zip(mine.tolist(), columns))

    groups = [AtlasGroup(tuple(b[j] for b in blocks), int(ranks[j]), float(lo), float(hi),
                         count, bool(spike), family, pure.get(j))
              for j, lo, hi, count, spike in rows]
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
    exposed face.  The first step of face_chain, with the direction given
    instead of found; the chain then continues inside the face's family and
    one solve at ``param_cap`` in the family it ends in gives the value, as
    in entropy_distance: exact, also where rho lies on a proper face of the
    face's family (swallow rho(0) on the face of its tangent direction).
    It stays for callers that hold a face direction, such as perfbench's
    boundary reference; the package reads entropy_distance, which needs only rho.
    """
    _check_tangent(family, v)
    mu, p = max_eig_data(v)
    if not _on_exposed_face(rho, v, mu, p):
        raise PreconditionError("state is not in the exposed face of v")
    return _chain_projection(rho, make_compressed_family(family, p), param_cap).distance


def rI_membership(rho: State, family: ExponentialFamily) -> bool:
    """Whether rho's exact entropy distance (entropy_distance) is below RI_EPS."""
    return entropy_distance(rho, family)[0] < defaults.RI_EPS


# -- the inclusion chain ----------------------------------------------------------


def _norm_leg(family: ExponentialFamily, legs: list) -> list[float]:
    """Hilbert-Schmidt distance from each sample s = g.family.member(theta_p)
    of legs, entries (g, u, gap, [(theta_p, s), ...]), to the member
    family.member(x + t_end u_hat) on the e-geodesic that converges to s: an
    explicit member, so the value bounds the distance to the family above.

    A group's theta_p are lifted to x by one least-squares solve through c^p
    (multiples of p are dropped: exp1^p ignores them); u_hat is the unit
    coordinate vector of u, and t_end = CHAIN_GAP_T ||u|| / gap.  All members
    are one stack per algebra block (family._gibbs: one eigh per block, no
    State), each row bit for bit the member's element.
    """
    params, states = [], []
    for g, u, gap, samples in legs:
        p = g.projector
        cols = [coords(compress(p, v)[1]) for v in family.basis] + [coords(p.element)]
        off = compress(p, family.offset)[1]
        rhs = [coords(g.family.parameter_element(theta_p) - off) for theta_p, _ in samples]
        x = np.linalg.lstsq(np.column_stack(cols), np.column_stack(rhs), rcond=None)[0][:-1]
        u_hat = mean_value_projection(u, family)
        norm = np.linalg.norm(u_hat)
        u_hat /= norm
        params += [xi + defaults.CHAIN_GAP_T * norm / gap * u_hat for xi in x.T]
        states += [s for _, s in samples]
    # parameter_element per row, stacked (one product over the stack moves bits)
    a = [np.stack([o + _combine(x, s) for x in params])
         for o, s in zip(family.offset.blocks, family.stacks)]
    gibbs = _gibbs([(m + m.conj().swapaxes(-1, -2)) / 2.0 for m in a], family.support)
    values, vectors = _gibbs_spectra(family.support, gibbs)
    members = _state_blocks(family.algebra, values, vectors)
    # s.element - member, symmetrized as _trusted does; each row's norm as
    # HermitianElement.norm takes it (one norm over a stack moves bits)
    targets = [np.stack(blocks) for blocks in zip(*(s.element.blocks for s in states))]
    diff = [(d + d.conj().swapaxes(-1, -2)) / 2.0 for d in map(np.subtract, targets, members)]
    return [float(np.sqrt(sum(np.linalg.norm(d[i]) ** 2 for d in diff)))
            for i in range(len(states))]


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

    groups = atlas.groups[::-(-len(atlas.groups) // max_groups)]  # at most max_groups
    norm_bound = float(np.sqrt(2.0 * defaults.RI_EPS)) * 1.5
    kernel, mids = _polar_sweep(family), [g.mid_angle for g in groups]
    directions = kernel.blocks(mids)
    gaps = kernel.spectra(mids).top_gap([g.rank for g in groups])
    rows, legs = [], []
    for i, g in enumerate(groups):
        u = HermitianElement(family.algebra, [b[i] for b in directions])
        thetas = [("representative", np.zeros(g.family_dim))]
        if g.family_dim >= 1:
            thetas.append(("member", 0.7 * np.ones(g.family_dim)))
        samples = [(theta_p, g.family.member(theta_p)) for _, theta_p in thetas]
        for (tag, _), (_, s) in zip(thetas, samples):
            where = (f"{tag} of group at alpha [{g.alpha_lo:.6f}, {g.alpha_hi:.6f}] "
                     f"rank {g.rank}")
            rows.append((where, entropy_distance(s, g.family)[0]))
        legs.append((g, u, gaps[i], samples))
    for (where, d), norm in zip(rows, _norm_leg(family, legs)):
        report.add("geo_subset_rI", where, d, defaults.RI_EPS)
        report.add("rI_subset_norm", where, norm, norm_bound)
    return report
