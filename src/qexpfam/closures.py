"""Limits of e-geodesics and the three closures of an exponential family.

An e-geodesic exp1(theta + lambda u) concentrates, as lambda grows, on the
maximal eigenspace of u; its limit is the compressed-family member
p e^{p theta p} / tr(p e^{p theta p}) with p the maximal projector of u.  The
geodesic closure is therefore a disjoint union of families in corner
algebras, one per maximal projector of a tangent direction.  For 2D tangent
spaces the projectors are enumerated by an angular sweep; isolated directions
where eigenvalue branches cross (higher-rank projectors, measure zero in the
sweep) come from DirectionSweep.crossings: one per grid interval across
which the maximal projector jumps, two where a third branch passes the top,
none where it swaps back inside one.  The sweep runs on linalg.DirectionSweep
(a = g2, b = g1); runs of equal projectors are read off as arrays, and each
atlas group is a row of the stacked maximal projectors, built when first read
and kept; its Projector (V_r V_r*, unchecked) is built only when a caller reads it.
A rank-one group's family is the single state p (make_compressed_family
compresses nothing); its projector is eigendecomposed when the group is
first read, one stacked eigh per block over the rank-one rows of the read.

The reverse-information closure collects the states at entropy distance zero.
On an exposed face cut out by a tangent direction, the distance equals the
distance from the compressed family, which turns several boundary distances
into exactly solvable problems.  family.face_chain applies this face by face
(Weis & Knauf, arXiv:1007.5464; Csiszar & Matus, IEEE Trans. IT 49, 2003),
family.entropy_distance solves in the family it ends in, and rI_membership
asks without a solve whether the state lies in it.

inclusion_chain_check verifies geodesic closure in rI-closure in norm
closure on sampled atlas groups, with no solve, each sample one row of
stacked decisions.  A sample must lie on the exposed face of its group's
mid-angle direction (states._on_faces, one eigh per algebra block for all
directions) and in the group's compressed family (_rI_rows, the linear test
of rI_membership).  The norm leg compresses all groups in one pass and
evaluates each e-geodesic once, at the t its top gap and the lifted point
set (defaults.CHAIN_GAP_T), in one stacked Gibbs evaluation per block.  A
rank-one group's family is the single state p and is not built; its sample
is a row of one stacked reconstruction per block (_sample_stacks), no State.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import defaults
from .errors import PreconditionError
from .family import (
    ExponentialFamily,
    _combine,
    _gibbs,
    _gibbs_spectra,
    _mean_values,
    _project_ladder,
    face_chain,
    free_energy,
    make_compressed_family,
)
from .findings import Report
from .linalg import (DirectionSweep, HermitianElement, SweepSpectra, _coords, _hs_norm,
                     _inner_rows, _project_out, _reconstruct_stack, _sym, project_out,
                     traceless_part)
from .states import (
    Projector,
    State,
    _compress_blocks,
    _exposed_face,
    _on_faces,
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
    the group's row of the sweep's maximal projectors; the Projector (from
    the row, unchecked), the compressed family and its representative are
    built on first use.  A rank-one group's family is the single state p: its
    representative is the pure state on column 0 of pure = (block, columns),
    the eigenvectors (descending) of its projector block, decomposed on first
    read, and the inclusion chain never builds its family.  Groups compare by identity.
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
        return Projector._trusted(HermitianElement._trusted(self.parent.algebra, self.blocks),
                                  self.rank)

    @cached_property
    def family(self) -> ExponentialFamily:
        return make_compressed_family(self.parent, self.projector)

    @cached_property
    def representative(self) -> State:
        """The member at theta = 0, the Gibbs state at family.origin."""
        if self.pure is not None:  # pAp = C p: the family is the single state p
            return _rank_one_state(self.parent.algebra, *self.pure)
        fam = self.family
        return State._from_spectrum(fam.algebra, *_gibbs_spectra(fam.support, fam.origin[0]))

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


class _Groups(Sequence):
    """AtlasGroups made when first read, then kept: one make call per read (an
    index, a slice, or every row on iteration) builds its rows not yet built."""

    def __init__(self, rows: list, make):
        self._rows, self._make, self._built = rows, make, {}

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        at = range(len(self._rows))[i]  # negative indices
        return tuple(self._read(at)) if isinstance(at, range) else self._read([at])[0]

    def __iter__(self):
        return iter(self._read(range(len(self._rows))))

    def _read(self, at) -> list[AtlasGroup]:
        new = [j for j in at if j not in self._built]
        self._built.update(zip(new, self._make([self._rows[j] for j in new])))
        return [self._built[j] for j in at]


@dataclass(frozen=True)
class ClosureAtlas:
    """Sampled geodesic closure of a 2D family, grouped by maximal projector:
    groups, in (alpha_lo, alpha_hi) order, are each built when first read (its
    rank-one projectors then decomposed, one stacked eigh per block) and kept."""

    family: ExponentialFamily
    n_directions: int
    groups: Sequence[AtlasGroup]

    def spike_groups(self) -> list[AtlasGroup]:
        return [g for g in self.groups if g.spike]

    def representative_blocks(self) -> list[np.ndarray]:
        """Per algebra block, the stacked blocks of every group's
        representative, in group order, bit for bit those of
        ``g.representative``, the rank-one groups' with no State (_sample_stacks)."""
        return _sample_stacks(self.family.algebra,
                              [g.pure or g.representative for g in self.groups])[0]


def _sample_stacks(algebra, samples) -> tuple[list, list, list, np.ndarray]:
    """Per algebra block, the element blocks, eigenvalues and eigenvectors of
    the samples stacked in order, and their support ranks.  A sample is a
    State or a rank-one group's pure = (block, columns), the pure state on
    column 0, bit for bit its g.representative: the pure ones are one stacked
    _rank_one_spectrum and _state_blocks reconstruction per owner block, with
    no State."""
    dims, n = algebra.block_dims, len(samples)
    stacks = ([np.empty((n, d, d), dtype=complex) for d in dims],
              [np.empty((n, d)) for d in dims], [np.empty((n, d, d), dtype=complex) for d in dims])
    ranks = np.array([s.support_rank if isinstance(s, State) else 1 for s in samples], dtype=int)
    pure: dict[int, list[int]] = {}  # block: rows of its pure samples

    def put(rows, parts):  # per block: element blocks, eigenvalues, eigenvectors
        for a, xs in zip(stacks, parts):
            for stack, x in zip(a, xs):
                stack[rows] = x
    for i, s in enumerate(samples):
        if isinstance(s, State):
            put(i, (s.element.blocks, s.spectral.eigenvalues, s.spectral.eigenvectors))
        else:
            pure.setdefault(s[0], []).append(i)
    for k, rows in pure.items():
        values, vectors = _rank_one_spectrum(algebra, k, np.stack([samples[i][1] for i in rows]))
        put(rows, (_state_blocks(algebra, values, vectors), values, vectors))
    return *stacks, ranks


def sweep_direction(family: ExponentialFamily, alpha: float) -> HermitianElement:
    """Polar direction sin(alpha) g1 + cos(alpha) g2 over the family generators.

    This is the parametrization in which the named families' projector
    transitions sit at round angles; any full sweep covers the same set of
    directions as the orthonormal-basis convention.
    """
    blocks = _polar_sweep(family).blocks([alpha])
    return HermitianElement._trusted(family.algebra, [u[0] for u in blocks])


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
    projector there.  Runs, wrap-around and grid spikes are read as arrays
    off the boundaries of equal neighbours; the crossing rows join the grid's
    projector stacks; each group is built from its row when first read, and
    nothing is validated.  The rank-one rows of a read take one stacked eigh
    per block with any.
    """
    if family.dim != 2:
        raise PreconditionError("closure atlases require a 2D tangent space")
    if family.support is not None:
        raise PreconditionError("closure atlases require a full-algebra family")
    n = int(n_directions)
    if n < 1:
        raise PreconditionError(f"a closure atlas needs at least one direction, got {n}")
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

    # runs of consecutive equal projectors (cyclically): first rows and
    # counts; a last run that continues into the first joins it
    starts = np.flatnonzero(np.concatenate([[True], ~same_next[:-1]]))
    counts = np.diff(np.append(starts, n))
    if len(starts) > 1 and same_next[n - 1]:
        starts[0], counts[0] = starts[-1], counts[0] + counts[-1]
        starts, counts = starts[:-1], counts[:-1]
    spikes = (counts == 1) & (ranks[starts] > np.minimum(ranks[starts - 1],
                                                         ranks[(starts + 1) % n]))

    # (row, alpha_lo, alpha_hi, n_samples, spike) per group; the rows of the
    # crossings, one spike each, follow the grid's
    rows = list(zip(starts.tolist(), alphas[starts].tolist(),
                    alphas[(starts + counts - 1) % n].tolist(), counts.tolist(), spikes.tolist()))
    found, at = kernel.crossings(alphas, ranks, blocks)
    rows += [(n + i, a, a, 0, True) for i, a in enumerate(found.tolist())]
    spike_ranks, spike_blocks = at.max_projectors()
    ranks = np.concatenate([ranks, spike_ranks])
    blocks = [np.concatenate(pair) for pair in zip(blocks, spike_blocks)]

    def make(read: list) -> list[AtlasGroup]:  # a rank-one p lives where its trace is 1
        js = np.array([row[0] for row in read], dtype=int)
        ones = js[ranks[js] == 1]
        owner = np.argmax([np.trace(b[ones], axis1=1, axis2=2).real for b in blocks], axis=0)
        pure = {}
        for k, b in enumerate(blocks):
            mine = ones[owner == k]
            if mine.size:
                columns = np.linalg.eigh(b[mine])[1][..., ::-1]
                pure.update((j, (k, c)) for j, c in zip(mine.tolist(), columns))
        return [AtlasGroup(tuple(b[j] for b in blocks), int(ranks[j]), lo, hi, count, spike,
                           family, pure.get(j)) for j, lo, hi, count, spike in read]
    rows.sort(key=lambda row: row[1:3])
    return ClosureAtlas(family=family, n_directions=n, groups=_Groups(rows, make))


# -- distance reduction and rI membership ----------------------------------------


def reduce_distance_to_face(
    rho: State,
    family: ExponentialFamily,
    v: HermitianElement,
    param_cap: float = np.inf,
) -> float:
    """Entropy distance of a state on the exposed face of v, computed inside
    the compressed family of the maximal projector of v.

    Requires v (up to its trace part) in the tangent space and rho in the
    exposed face.  The first step of face_chain, with the direction given
    instead of found; the chain then continues inside the face's family and
    one solve, uncapped by default, in the family it ends in gives the value,
    as in entropy_distance: exact, also where rho lies on a proper face of
    the face's family (swallow rho(0) on the face of its tangent direction).
    It stays for callers that hold a face direction, such as perfbench's
    boundary reference; the package reads entropy_distance, which needs only rho.
    """
    vt = traceless_part(v)
    if vt.norm() == 0.0 or (project_out(vt, family.basis).norm()
                            > defaults.MAX_EIG_GAP * max(1.0, vt.norm())):
        raise PreconditionError("direction is not in the tangent space")
    p = _exposed_face(rho, v)
    if p is None:
        raise PreconditionError("state is not in the exposed face of v")
    chain, last = face_chain(rho, make_compressed_family(family, p))
    res = _project_ladder([rho], last, (param_cap,), lambda _: bool(chain))[0][0]
    return res.distance


def rI_membership(rho: State, family: ExponentialFamily) -> bool:
    """Whether rho is in the rI-closure, with no solve: face_chain decides its
    faces on eigenpairs, and _rI_rows, rho its one row, whether it lies in the
    family the chain ends in.  A state outside the family's corner algebra is
    not a member: face_chain checks that on entry (PreconditionError)."""
    try:
        _, last = face_chain(rho, family)
    except PreconditionError:
        return False
    p, spec = last.support_projector, rho.spectral
    return bool(_rI_rows(rho.element.blocks, spec.eigenvalues, spec.eigenvectors,
                         rho.support_rank, p.element.blocks, p.rank, last.offset.blocks,
                         [v.blocks for v in last.basis])[0])


def _rI_rows(rho, values, vectors, support, p, rank, offset,
             basis) -> tuple[np.ndarray, np.ndarray]:
    """The linear rI test, one state per row, and the rows it leaves to
    face_chain (of another support rank than p's).  A member lies in pAp
    (_check_corner's test) and has p's support rank; for a p of rank one that
    decides it (pAp = C p is the single state p), else x = c^p(ln^p rho) -
    offset must lie in span(basis) within make_compressed_family's cut
    MAX_EIG_GAP max(1, |x|), and the span arithmetic runs only if such a row
    is left.  The states (element blocks, eigenpairs) and p, offset and each
    basis element (zero rows padding) are per-block stacks (K, n_k, n_k), or
    one state's or element's blocks; support ranks and ranks are (K,)."""
    corner = _inner_rows(rho, p) >= 1.0 - defaults.SUPPORT_CUTOFF
    same = support == rank
    if not (corner & same & (rank > 1)).any():  # no row is left for the span test
        return corner & same, corner & ~same
    log = [_reconstruct_stack(np.log(np.where(w > defaults.SUPPORT_CUTOFF, w, 1.0)), V)
           for w, V in zip(values, vectors)]
    x = list(map(np.subtract, _compress_blocks(p, rank, log)[1], offset))
    size, x = np.sqrt(_inner_rows(x, x)), _project_out(x, basis)
    in_span = np.sqrt(_inner_rows(x, x)) <= defaults.MAX_EIG_GAP * np.maximum(1.0, size)
    return corner & same & (in_span | (rank == 1)), corner & ~same


# -- the inclusion chain ----------------------------------------------------------


def _norm_leg(family: ExponentialFamily, legs: list, u: list,
              targets: list) -> tuple[list[float], list, list]:
    """Hilbert-Schmidt distance from each sample s = g.family.member(theta_p)
    of legs, entries (g, gap, [theta_p, ...]), with element blocks the rows
    of targets, to the member family.member(x + t_end u_hat) on the
    e-geodesic that converges to s: an explicit member, so the value bounds
    the distance to the family above; and p and c^p(offset) per block, stacked
    (K, n_k, n_k) over the groups, as are u, their mid-angle directions.

    The stacked projectors p of all groups compress the basis and offset in
    one pass (_compress_blocks); one least-squares solve through c^p lifts the
    theta_p of a group of rank >= 2 to x (multiples of p are dropped: exp1^p
    ignores them).  A rank-one group's family, the single state p, is not
    built: its x is 0.  u_hat, the unit coordinate vector of the direction u
    at g's mid-angle, comes from one product per block; t_end = CHAIN_GAP_T
    ||u|| max(1, |x|^2) / gap, as the coupling of x to the complement of p
    shifts the limit by about |x|^2 / (t gap).  All members are one stack per
    algebra block (family._gibbs: one eigh per block, no State), each row bit
    for bit the member's element.
    """
    p = [np.stack(b)[:, None] for b in zip(*(g.projector.element.blocks for g, _, _ in legs))]
    a = [np.concatenate([s, o[None]]) for s, o in zip(family.stacks, family.offset.blocks)]
    c = _compress_blocks(p, np.array([[g.rank] for g, _, _ in legs]), a)[1]  # K x (dim + 1)
    cols = np.concatenate([_coords(c)[:, :-1], _coords(p)], axis=1)  # c^p(v_i), then p
    wide = [(i, t) for i, (g, _, thetas) in enumerate(legs) if g.rank > 1 for t in thetas]
    owner = np.array([i for i, _ in wide], dtype=int)
    rhs = _coords([np.stack(x) - ck[owner, -1] for x, ck in zip(zip(*(
        legs[i][0].family.parameter_element(t).blocks for i, t in wide)), c)]) if wide else None
    u_hats = _mean_values([_sym(b) for b in u], family)
    params = []
    for i, ((g, gap, thetas), A, u_hat) in enumerate(zip(legs, cols, u_hats)):
        x = (np.linalg.lstsq(A.T, rhs[owner == i].T, rcond=None)[0][:-1] if g.rank > 1
             else np.zeros((family.dim, len(thetas))))
        norm = np.linalg.norm(u_hat)
        params += [xi + defaults.CHAIN_GAP_T * norm / gap * max(1.0, xi @ xi) * (u_hat / norm)
                   for xi in x.T]
    # parameter_element per row, stacked (one product over the stack moves bits)
    a = [np.stack([o + _combine(x, s) for x in params])
         for o, s in zip(family.offset.blocks, family.stacks)]
    gibbs = _gibbs([_sym(m) for m in a], family.support)
    members = _state_blocks(family.algebra, *_gibbs_spectra(family.support, gibbs))
    # |s.element - member| per row as HermitianElement.norm takes it (one norm
    # over a stack moves bits)
    diff = list(map(np.subtract, targets, members))
    norms = [_hs_norm([d[i] for d in diff]) for i in range(len(params))]
    return norms, [b[:, 0] for b in p], [ck[:, -1] for ck in c]


def inclusion_chain_check(
    family: ExponentialFamily,
    n_directions: int = defaults.SWEEP_ANGLES,
    max_groups: int = 24,
) -> Report:
    """Verify the closure inclusion chain on sampled states, with no solve.

    geo_subset_rI flags whether each sample (g.representative, and the member
    at theta = 0.7) lies on the rank-g.rank exposed face of the direction u at
    g's mid-angle and in g.family.  The samples are the rows of one stacked
    decision each (_sample_stacks): each u is evaluated once, one eigh per
    algebra block gives it its maximal projector for _on_faces, and _rI_rows
    reads _norm_leg's c^p(offset); a rank-one group builds no family and no
    State, and a row of another support rank than its group's goes to
    rI_membership.  rI_subset_norm is its norm distance to its e-geodesic
    (_norm_leg) against 5 / CHAIN_GAP_T, about 10 times the largest value over
    272 cone tilts and random families."""
    if max_groups < 1:
        raise PreconditionError(f"max_groups must be at least 1, got {max_groups}")
    report = Report(name="closure_inclusion_chain")
    atlas = geodesic_closure_atlas(family, n_directions=n_directions)

    groups = atlas.groups[::-(-len(atlas.groups) // max_groups)]  # at most max_groups
    mids, ranks = [g.mid_angle for g in groups], np.array([g.rank for g in groups])
    u = _polar_sweep(family).blocks(mids)
    spectra = SweepSpectra(*map(list, zip(*map(np.linalg.eigh, u))))  # DirectionSweep.spectra
    legs, samples = [], []
    for g, gap in zip(groups, spectra.top_gap(ranks)):
        thetas = [np.zeros(g.family_dim)] + [0.7 * np.ones(g.family_dim)] * (g.family_dim >= 1)
        samples += [g.pure or g.representative] + [g.family.member(t) for t in thetas[1:]]
        legs.append((g, gap, thetas))
    rho, values, vectors, support = _sample_stacks(family.algebra, samples)
    norms, carriers, offsets = _norm_leg(family, legs, u, rho)

    owner = np.array([i for i, (_, _, thetas) in enumerate(legs) for _ in thetas])
    top, faces = spectra.max_projectors()
    on_face = _on_faces(rho, [b[owner] for b in u], [f[owner] for f in faces],
                        spectra.top()[owner]) & (top == ranks)[owner]
    # per basis element, its rows: each sample's group's, zero past the group's
    # dimension; a rank-one group's family is the single state p (no family built)
    spans = [[v.blocks for v in g.family.basis] if g.rank > 1 else [] for g in groups]
    zero = [np.zeros_like(o[0]) for o in offsets]
    basis = [list(map(np.array, zip(*(spans[i][j] if j < len(spans[i]) else zero
                                      for i in owner)))) for j in range(max(map(len, spans)))]
    member, rest = _rI_rows(rho, values, vectors, support, [b[owner] for b in carriers],
                            ranks[owner], [o[owner] for o in offsets], basis)
    for j in np.flatnonzero(on_face & rest):  # never a pure sample: its support rank is 1
        member[j] = rI_membership(samples[j], groups[owner[j]].family)
    rows = iter(zip(on_face & member, norms))
    for g, _, thetas in legs:
        for tag, _ in zip(("representative", "member"), thetas):
            flag, norm = next(rows)
            where = f"{tag} of group at alpha [{g.alpha_lo:.6f}, {g.alpha_hi:.6f}] rank {g.rank}"
            report.flag("geo_subset_rI", where, bool(flag))
            report.add("rI_subset_norm", where, norm, 5.0 / defaults.CHAIN_GAP_T)
    return report
