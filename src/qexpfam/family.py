"""Exponential families: charts, free energy and the entropy-distance solver.

A family is the image under the trace-normalized exponential of an affine
subspace offset + span(basis) of traceless self-adjoint elements.  Families in
a compressed corner algebra pAp carry a support projector and use the
superscript-p calculus throughout; the full algebra is the special case
p = identity.  The basis is also stacked per block, so tangent elements are
one product per block.  One Gibbs kernel, _gibbs, serves exp1, free_energy,
the solver and the chain's norm leg; it stacks the blocks of equal size (and
rank, with a support) into one eigendecomposition and one exp per size group.

The projection onto the family minimizes the strictly convex objective

    f(theta) = F(offset + sum_i theta_i v_i) - <rho, sum_i theta_i v_i>

by damped Newton with Armijo backtracking in the eigenbasis of the parameter
element: one eigendecomposition per iterate and size group gives f, the mean
values and the BKM Hessian.  Each state walks its ascending cap ladder in
one Newton iteration of its own (_newton_row), rewinding to where a cap first
acted for the next cap, and one driver (_newton) runs the states of one
family side by side: each round the states that ask share one evaluation of
their Armijo trials and one Hessian call for their Newton steps, stacked
(g, K, n_k, n_k) per size group when several ask and with the shapes of a
single solve when one asks.  Every solve starts from the family's cached
point at theta = 0 and takes its first Newton step with the family's cached
Hessian there, and a result builds sigma* on first read.  Sums over blocks
run in block order, so every value has the bits of a block-by-block
evaluation, and every state those of its own solve.  f recovers the relative
entropy as S(rho, exp1(a)) = f(theta) - S(rho) - <rho, offset>, which stays
meaningful when the infimum recedes to the boundary and no minimizer exists.
That happens exactly when rho lies on a proper exposed face of the mean value
set; the face finder decides it and the solver reports it as a flag, not an
error.  The one exact path, _chain_projections, solves in the face family of
face_chain, where the minimum is attained, without a cap: caps extrapolate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import defaults
from .errors import AlgebraMismatchError, PreconditionError, SolverError
from .linalg import (
    Algebra,
    DirectionSweep,
    HermitianElement,
    _coords,
    _hs_norm,
    _orthonormalize,
    _reconstruct_stack,
    _sym,
    coords,
    divided_differences,
    eigh,
    gram_schmidt,
    hs_inner,
    project_out,
    size_groups,
    stack_groups,
    top_eigenspace,
    traceless_part,
    zero,
)
from .states import (
    Projector,
    State,
    _compress_blocks,
    _exposed_face,
    _maximal_projector,
    full_support,
    log_on_support,
    relative_entropy,
    support_projector,
    vn_entropy,
)

_EPS = float(np.finfo(float).eps)


# -- the trace-normalized exponential and its inverse chart -------------------


class _Gibbs(NamedTuple):
    """A _gibbs result: F, then per size group (linalg.size_groups) the
    eigenvalues w - mu of a - mu within Im(p), descending, the eigenvectors
    as columns of the ambient blocks, and the Gibbs weights e^(w - mu) / z,
    each a stack
    whose first axis runs over the group's blocks; order is each block's
    (group, row) in block order."""

    free: np.ndarray
    values: list[np.ndarray]
    vectors: list[np.ndarray]
    weights: list[np.ndarray]
    z: np.ndarray
    order: tuple[tuple[int, int], ...]

    def per_block(self, stacks) -> list:
        """The rows of per-group ``stacks``, one per block, in block order."""
        return [stacks[g][j] for g, j in self.order]


def _size_groups(support: Projector | None, blocks):
    """The size groups _gibbs decomposes, (groups, order) of
    linalg.size_groups: the blocks by n_k, or with a support by (n_k, r_k)."""
    if support is None:
        return size_groups(tuple([b.shape[-1] for b in blocks]))
    return support.grouped_columns[0]


def _gibbs(blocks, support: Projector | None) -> _Gibbs:
    """_gibbs_stacks for the blocks of a in pAp; a block may be a (rows, n_k,
    n_k) stack, each row with the bits of its own call."""
    groups, order = _size_groups(support, blocks)
    return _gibbs_stacks(stack_groups(blocks, groups), order, support)


def _gibbs_stacks(stacks: list[np.ndarray], order, support: Projector | None) -> _Gibbs:
    """The Gibbs kernel: F = ln tr(p e^a) and the Gibbs state of a in pAp,
    from the blocks of a stacked (g, *rows, n_k, n_k) per size group, with
    ``order`` from _size_groups.

    Each group takes one eigh and one exp.  With mu the largest eigenvalue,
    z = tr(p e^(a - mu)) lies in [1, N] and F = mu + ln z cannot overflow;
    z sums the blocks in block order, so every block and row has the bits
    of its own decomposition."""
    row_axes = stacks[0].ndim - 3
    if support is None:
        pairs = [(w[..., ::-1], V[..., ::-1]) for w, V in map(np.linalg.eigh, stacks)]
    else:  # values descending, vectors as columns of the ambient blocks
        qs = [q.reshape(q.shape[:1] + (1,) * row_axes + q.shape[1:]) if row_axes else q
              for q in support.grouped_columns[1]]
        restricted = [q.conj().swapaxes(-1, -2) @ b @ q for q, b in zip(qs, stacks)]
        pairs = [(w[..., ::-1], q @ Y[..., ::-1])
                 for q, (w, Y) in zip(qs, map(np.linalg.eigh, restricted))]
    values = [w for w, _ in pairs]
    # the largest eigenvalue; a one-block group's top needs no reduction
    mu = reduce(np.maximum, [w[0, ..., 0] if len(w) == 1 else w[..., 0].max(0)
                             for w in values if w.shape[-1]])
    shifted = [w - (mu[..., None] if row_axes else mu) for w in values]
    e = [np.exp(x) for x in shifted]
    sums = [x.sum(-1) for x in e]
    z = sum([sums[g][j] for g, j in order])  # terms >= +0: the start 0 moves no bit
    weights = [x / (z[..., None] if row_axes else z) for x in e]
    return _Gibbs(mu + np.log(z), shifted, [V for _, V in pairs], weights, z, order)


def _gibbs_spectra(support: Projector | None, gibbs: _Gibbs):
    """A _gibbs result's states as per-block eigenvalues and eigenvectors,
    completed by the kernel columns of p with zero weights; stacked blocks give
    one state per row.  Unchecked: State._from_spectrum and the inclusion
    chain's norm leg run _state_spectrum on them."""
    weights, vectors = gibbs.per_block(gibbs.weights), gibbs.per_block(gibbs.vectors)
    if support is None:  # no kernel columns
        return weights, [np.ascontiguousarray(V) for V in vectors]
    values = [np.concatenate([x, np.zeros(x.shape[:-1] + k.shape[1:])], axis=-1)
              for x, k in zip(weights, support.kernel)]
    vectors = [np.concatenate([V, np.broadcast_to(k, V.shape[:-1] + k.shape[1:])], axis=-1)
               for V, k in zip(vectors, support.kernel)]
    return values, vectors


def _combine(theta, stack: np.ndarray) -> np.ndarray:
    """sum_i theta_i stack[i] for a (dim, n, n) stack: the single BLAS call
    np.tensordot(theta, stack, axes=1) makes after its reshapes, without its
    Python overhead."""
    dim, n, _ = stack.shape
    return np.dot(np.asarray(theta).reshape(1, dim), stack.reshape(dim, n * n)).reshape(n, n)


def exp1(a: HermitianElement, support: Projector | None = None) -> State:
    """Trace-normalized exponential e^a / tr(e^a).

    With a support projector p the superscript-p version p e^a / tr(p e^a) is
    computed for a in pAp.  Overflow is avoided by shifting a by its largest
    eigenvalue first; the result is invariant under a -> a + t*identity.
    """
    return free_energy(a, support)[1]


def ln0(rho: State) -> HermitianElement:
    """Canonical chart: ln(rho) minus its trace part.  Requires rho invertible.

    Inverse of exp1 on traceless elements: exp1(ln0(rho)) = rho.
    """
    spec = rho.spectral
    return HermitianElement._trusted(rho.algebra, _chart(spec.eigenvalues, spec.eigenvectors))


def _chart(values, vectors) -> list[np.ndarray]:
    """The blocks of ln0 for per-block eigenvalues and eigenvectors of a
    state, or stacks of them with one state per row; every state must be
    invertible."""
    dim = sum(w.shape[-1] for w in values)
    if (sum((w > defaults.SUPPORT_CUTOFF).sum(-1) for w in values) < dim).any():
        raise PreconditionError("canonical chart needs an invertible state")
    log = [_reconstruct_stack(np.log(w), V) for w, V in zip(values, vectors)]
    shift = sum(np.trace(b, axis1=-2, axis2=-1).real for b in log) / dim
    return [b - shift[..., None, None] * np.eye(b.shape[-1]) for b in log]


def free_energy(
    a: HermitianElement, support: Projector | None = None
) -> tuple[float, State]:
    """Free energy F(a) = ln tr(e^a) together with its gradient exp1(a).

    Equivariant under trace shifts: F(a + t*identity) = F(a) + t.
    """
    gibbs = _gibbs(a.blocks, support)
    return float(gibbs.free), State._from_spectrum(a.algebra, *_gibbs_spectra(support, gibbs))


# -- family --------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialFamily:
    """Affine canonical parameter space offset + span(basis) inside A_sa.

    basis is traceless and HS-orthonormal, offset traceless and orthogonal to
    the tangent space; generators keeps the (tracelessified) spanning set the
    family was built from, which fixes the polar parametrization used by
    closure sweeps.  support is None for families in the full algebra.
    """

    algebra: Algebra
    basis: tuple[HermitianElement, ...]
    offset: HermitianElement
    generators: tuple[HermitianElement, ...]
    support: Projector | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def support_projector(self) -> Projector:
        return self.support or full_support(self.algebra)

    @cached_property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The basis as one (dim, n_k, n_k) array per block."""
        return tuple(
            np.array([v.blocks[k] for v in self.basis], dtype=complex).reshape(self.dim, n, n)
            for k, n in enumerate(self.algebra.block_dims)
        )

    @cached_property
    def _compression_stacks(self) -> tuple[np.ndarray, ...]:
        """The generators, then the offset, stacked per block."""
        return tuple(map(np.stack, zip(*(a.blocks for a in (*self.generators, self.offset)))))

    @cached_property
    def group_stacks(self) -> tuple[tuple, list[tuple[np.ndarray, ...]]]:
        """_gibbs's block order and, per size group, the offset blocks stacked
        (g, n_k, n_k) and the basis stacks (g, dim, n_k, n_k), also as
        (g, dim, n_k^2)."""
        groups, order = _size_groups(self.support, self.offset.blocks)
        bases = stack_groups(self.stacks, groups)
        flat = [S.reshape(S.shape[:2] + (S.shape[-1] ** 2,)) for S in bases]
        return order, list(zip(stack_groups(self.offset.blocks, groups), bases, flat))

    @cached_property
    def origin(self) -> tuple:
        """The point of _objective_pieces at theta = 0, where every solve of
        every state starts; read only.  Its Newton step is origin_step."""
        return _objective_pieces(self, np.zeros(self.dim), np.zeros(self.dim))[2]

    @cached_property
    def origin_step(self) -> tuple[float, np.ndarray]:
        """The smallest eigenvalue of the BKM Hessian at origin and the
        Hessian _lifted by it, read only: the first Newton step of every
        solve in the family solves with them, whatever its state."""
        H = _bkm_hessian(self.origin)
        low = float(np.linalg.eigvalsh(H)[0])
        H = _lifted(H, low)
        H.flags.writeable = False
        return low, H

    def tangent_element(self, theta: np.ndarray) -> HermitianElement:
        return HermitianElement._trusted(
            self.algebra, [_combine(theta, s) for s in self.stacks]
        )

    def parameter_element(self, theta: np.ndarray) -> HermitianElement:
        """offset + sum theta_i v_i, one product per block."""
        pairs = zip(self.offset.blocks, self.stacks)
        return HermitianElement._trusted(
            self.algebra, [o + _combine(theta, s) for o, s in pairs])

    def member(self, theta: np.ndarray | Sequence[float]) -> State:
        """The family member exp1(offset + sum theta_i v_i); theta has dim entries."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise PreconditionError(f"expected {self.dim} coordinates, got {theta.shape}")
        return exp1(self.parameter_element(theta), self.support)


def make_family(
    algebra: Algebra,
    generators: Sequence[HermitianElement],
    offset: HermitianElement | None = None,
) -> ExponentialFamily:
    """Build a family from a spanning set of self-adjoint elements.

    Generators are made traceless (the family is invariant under trace
    shifts), orthonormalized by modified Gram-Schmidt, and the offset is made
    traceless and orthogonal to the tangent space.  Rank-deficient spanning
    sets are rejected.
    """
    gens = tuple(traceless_part(g) for g in generators)
    for g in gens:
        if g.algebra != algebra:
            raise AlgebraMismatchError("generator in wrong algebra")
    basis = tuple(gram_schmidt(gens))
    off = zero(algebra) if offset is None else project_out(traceless_part(offset), basis)
    return ExponentialFamily(algebra, basis, off, gens, None)


def make_compressed_family(
    parent: ExponentialFamily, p: Projector
) -> ExponentialFamily:
    """The induced family in the corner algebra pAp.

    Parameter space is the c^p image of the parent's; the tangent space may
    lose dimensions (and can become zero, leaving a single state).  Both
    steps cut rank at MAX_EIG_GAP: a compressed generator at or below it,
    relative to its size, is dropped, and _orthonormalize drops a residual
    that vanishes instead of rejecting it.  A rank-one p is a pure state (pAp
    = C p): its family, the single state p with no generators and an offset
    of exactly zero, is built uncompressed.
    """
    if p.rank == 0:
        raise PreconditionError("cannot compress a family by the zero projector")
    algebra, cut = parent.algebra, defaults.MAX_EIG_GAP
    if p.rank == 1:
        return ExponentialFamily(algebra, (), zero(algebra), (), p)
    compressed = _compress_blocks(p.element.blocks, p.rank, parent._compression_stacks)[1]
    gens = []
    for g, *cg in zip(parent.generators, *compressed):
        size = _hs_norm(cg)  # g.norm() only above the cut
        if size > cut and size > cut * max(1.0, g.norm()):
            gens.append(HermitianElement._trusted(algebra, cg))
    basis = _orthonormalize(gens)
    off = project_out(HermitianElement._trusted(algebra, [c[-1] for c in compressed]), basis)
    return ExponentialFamily(algebra, tuple(basis), off, tuple(gens), p)


# -- mean value chart ----------------------------------------------------------


def mean_value_projection(a: HermitianElement, family: ExponentialFamily) -> np.ndarray:
    """Coordinates (<a,v_1>, ..., <a,v_n>) in the orthonormal tangent basis."""
    if a.algebra != family.algebra:
        raise AlgebraMismatchError("element and family in different algebras")
    return _mean_values(a.blocks, family)


def _mean_values(blocks, family: ExponentialFamily) -> np.ndarray:
    """mean_value_projection of blocks or, row by row, stacks: tr(a v) = sum(a^T v)."""
    return sum((s.reshape(family.dim, b.shape[-1] ** 2) @ b.mT.reshape(b.shape[:-2] + (-1, 1)))
               [..., 0].real for s, b in zip(family.stacks, blocks))


# -- exposed faces -------------------------------------------------------------


def _steepest_margin(r: np.ndarray, stacked: list[np.ndarray]) -> np.ndarray:
    """The unit coordinates c maximizing the concave margin r @ c - mu_+(c),
    mu_+(c) the largest eigenvalue of sum_j c_j x_j, x the per-block stacks
    of ``stacked``: _exposing_direction's r_j = <rho, d_j> and coordinate
    directions d_j restricted to Im(P - q).

    From the best of +-e_j, each step searches the great circle cos(t) c +
    sin(t) y, y the unit tangent part of the min-norm supergradient r - g
    (g_j = tr(S x_j) over states S on the top eigenspace at c, top_eigenspace,
    by Frank-Wolfe).  Its grid maximum is refined by bisection on the sign of
    the derivative r @ c' - <psi, u' psi>, psi the top eigenvector, which stays
    well conditioned where its eigenvalue meets r @ c.  It stops when the
    margin stops rising, at y = 0, above MAX_EIG_GAP (c exposes supp(rho)
    alone) or, with two coordinates, after the first circle: the whole circle.
    """
    def at(c: np.ndarray):
        """The margin at coordinates c and the columns tilted onto the top."""
        pairs = [np.linalg.eigh(np.tensordot(c, x, axes=1)) for x in stacked]
        mu, ranks = top_eigenspace([w for w, _ in pairs])
        tops = [V[:, V.shape[1] - k:] for (_, V), k in zip(pairs, ranks)]
        return r @ c - mu, [Q.conj().T @ x @ Q for x, Q in zip(stacked, tops) if Q.size]

    def vertex(tilted: list[np.ndarray], weights: np.ndarray) -> np.ndarray:
        tops = [np.linalg.eigh(np.tensordot(weights, x, axes=1)) for x in tilted]
        k = int(np.argmax([w[-1] for w, _ in tops]))
        psi = tops[k][1][:, -1]
        return np.einsum("i,jik,k->j", psi.conj(), tilted[k], psi).real

    def slope(t: float) -> float:  # on the circle of kernel, ra and rb
        spectra = kernel.spectra([t])
        k = int(np.argmax([w[0, -1] for w in spectra.values]))
        psi = spectra.vectors[k][0, :, -1]
        du = np.cos(t) * kernel.b[k] - np.sin(t) * kernel.a[k]
        return np.cos(t) * rb - np.sin(t) * ra - np.vdot(psi, du @ psi).real

    c = max((s * e for e in np.eye(len(r)) for s in (1.0, -1.0)), key=lambda c: at(c)[0])
    m, tilted = at(c)
    grid = np.linspace(0.0, 2.0 * np.pi, defaults.SWEEP_ANGLES, endpoint=False)
    while m <= defaults.MAX_EIG_GAP:
        g = vertex(tilted, r)
        for _ in range(100):  # the great-circle search needs an ascent direction only
            d = vertex(tilted, r - g) - g
            gap = float((r - g) @ d)
            if gap <= 0.0:
                break
            g = g + min(1.0, gap / float(d @ d)) * d
        y = (r - g) - ((r - g) @ c) * c
        y -= (y @ c) * c
        if not np.any(y):
            break
        y /= np.linalg.norm(y)
        kernel = DirectionSweep(*([np.tensordot(v, x, axes=1) for x in stacked] for v in (c, y)))
        ra, rb = r @ c, r @ y
        j = int(np.argmax(ra * np.cos(grid) + rb * np.sin(grid) - kernel.spectra(grid).top()))
        lo, t, hi = grid[j] - grid[1], grid[j], grid[j] + grid[1]
        while lo < t < hi:
            lo, hi = (t, hi) if slope(t) > 0.0 else (lo, t)
            t = 0.5 * (lo + hi)
        c_new = np.cos(t) * c + np.sin(t) * y
        m_new, t_new = at(c_new)
        if not m_new > m:
            break
        c, m, tilted = c_new, m_new, t_new
        if len(r) == 2:
            break
    return c


def _scalar_directions(q: HermitianElement, family: ExponentialFamily) -> np.ndarray:
    """Coordinate rows spanning the tangent directions u that act on the
    projector q as a scalar, q u P = lambda q with P the family's carrier:
    the (u, lambda) null space of one thin SVD."""
    carrier = family.support_projector.element
    rows = [(x @ s @ z).reshape(family.dim, x.size)
            for x, s, z in zip(q.blocks, family.stacks, carrier.blocks)]
    scalar = -np.concatenate([x.ravel() for x in q.blocks])
    system = np.concatenate([np.concatenate(rows, axis=1), scalar[None]]).T
    _, s, vh = np.linalg.svd(np.concatenate([system.real, system.imag]), full_matrices=False)
    return vh[int(np.sum(s > defaults.MAX_EIG_GAP * s[0])):, :-1]


def _exposing_direction(rho: State, family: ExponentialFamily
                        ) -> tuple[HermitianElement, Projector] | None:
    """A tangent direction u exposing a face that contains rho, and the maximal
    projector of u; None when rho lies on no proper face of the mean value set.

    Such a u acts on the support q of rho as a scalar: u lies in L =
    _scalar_directions(q), where rho is on the face of u exactly when the
    concave margin <rho, u> - mu_+(u on P - q) is >= 0, P the carrier (rho is
    in its corner, _check_corner, so P - q is a projector).  Its maximum over
    L's unit sphere decides: +-w for dim L = 1 with the sign of <rho, w> (w is
    traceless on P, so the other sign cannot expose rho), and for dim L >= 2
    _steepest_margin on L's coordinates, their directions restricted to
    Im(P - q) once here, whose end w is also tried projected onto the
    directions tying its maximal eigenspace exactly.  states._exposed_face
    decides each candidate on its eigenpairs.
    """
    carrier = family.support_projector
    if rho.support_rank == carrier.rank:
        return None
    q = support_projector(rho).element
    null = _scalar_directions(q, family)
    if not len(null):
        return None
    moments = mean_value_projection(rho.element, family)
    if len(null) == 1:
        candidates = [family.tangent_element(null[0] if null[0] @ moments >= 0.0 else -null[0])]
    else:
        basis = np.linalg.qr(null.T)[0]
        rest = Projector._trusted(carrier.element - q, carrier.rank - rho.support_rank)
        stacked = [Q.conj().T @ np.tensordot(basis.T, s, axes=1) @ Q
                   for Q, s in zip(rest.columns, family.stacks) if Q.size]
        w = basis @ _steepest_margin(basis.T @ moments, stacked)
        u = family.tangent_element(w)
        top = HermitianElement._trusted(u.algebra, _maximal_projector(u)[2])
        tie = np.linalg.qr(_scalar_directions(top, family).T)[0]
        x = tie @ (tie.T @ w)
        candidates = [family.tangent_element(x), u] if np.any(x) else [u]
    faces = ((u, _exposed_face(rho, u)) for u in candidates)
    return next(((u, p) for u, p in faces if p is not None), None)


def _check_corner(rho: State, family: ExponentialFamily) -> None:
    """The entry check of face_chain and _newton_setup: rho lies in the family's
    algebra and in its corner algebra, <rho, P> >= 1 - SUPPORT_CUTOFF."""
    if rho.algebra != family.algebra:
        raise AlgebraMismatchError("state and family in different algebras")
    if family.support is not None and (hs_inner(rho.element, family.support_projector.element)
                                       < 1.0 - defaults.SUPPORT_CUTOFF):
        raise PreconditionError("state not supported in the family's corner algebra; "
                                "its entropy distance from the compressed family is infinite")


def face_chain(
    rho: State, family: ExponentialFamily
) -> tuple[list[Projector], ExponentialFamily]:
    """The faces that carry rho's entropy distance, and the family left.

    Each step compresses the family to the maximal projector of a direction
    from _exposing_direction, which keeps rho's distance; the chain ends in the
    family where rho lies on no proper face and its projection is attained.
    A face is skipped when a direction of the same family exposes the next
    one too, so each face is the smallest exposed face of the family before
    it that contains rho.  The skip takes only a face of rank below p's
    (below=p.rank), which ends its loop: Weyl's inequality keeps the lifted
    direction's top eigenspace inside a cluster of p.rank eigenvalues, but
    does not separate that cluster by MAX_EIG_GAP, so a face of equal rank
    could replace p again.  Two steps reach a non-exposed face: at swallow
    rho(0) the face rho + apex, then rho.  A state outside the family's
    corner algebra raises PreconditionError (_check_corner).
    """
    _check_corner(rho, family)
    projectors: list[Projector] = []
    face = _exposing_direction(rho, family)
    while face is not None:
        u, p = face
        inner = make_compressed_family(family, p)
        inner_face = _exposing_direction(rho, inner)
        if inner_face is not None:
            w = _inner_exposing_direction(family, u, p, inner_face[0])
            p_w = _exposed_face(rho, w, below=p.rank)
            if p_w is not None:
                face = w, p_w
                continue
        projectors.append(p)
        family, face = inner, inner_face
    return projectors, family


def _inner_exposing_direction(family: ExponentialFamily, u: HermitianElement,
                              p: Projector, v: HermitianElement) -> HermitianElement:
    """u + eps x for the x in the tangent space whose compression c^p(x) is
    v, with eps small enough that the maximal projector of the sum stays
    inside p, the maximal projector of u, where v picks its face."""
    cols = _coords(_compress_blocks(p.element.blocks, p.rank, family.stacks)[1]).T  # c^p(v_i)
    x = family.tangent_element(np.linalg.lstsq(cols, coords(v), rcond=None)[0])
    w = eigh(u).all_eigenvalues()
    return u + (w[0] - w[p.rank]) / (4.0 * x.norm()) * x


# -- projection solver ----------------------------------------------------------


@dataclass
class ProjectionResult:
    """Outcome of projecting a state onto a family.

    attained: the solver converged inside the parameter cap and rho lies on
    no proper exposed face of the mean value set (_exposing_direction), so the
    minimizer exists.  distance is S(rho, sigma*) when attained, otherwise
    the best (still decreasing) objective value reached; theta_star are
    coordinates in the orthonormal tangent basis.  stop_reason says why the
    Newton loop ended: "converged" (gradient within tol), "cap" (the step
    reached the parameter cap), "stalled" (three steps in a row too small to
    move theta) or "armijo_underflow" (no step length decreased the
    objective); cap_hit is stop_reason == "cap".  It is a side channel: no
    CSV reads it.  sigma_star is built on first read from _final, the last
    Gibbs point, outside repr and equality.
    """

    theta_star: np.ndarray
    attained: bool
    grad_residual: float
    iterations: int
    distance: float
    _final: tuple = field(repr=False, compare=False)
    min_hessian_eig: float = float("inf")
    stop_reason: str = "converged"

    @property
    def cap_hit(self) -> bool:
        return self.stop_reason == "cap"

    @cached_property
    def sigma_star(self) -> State:
        family, gibbs = self._final
        return State._from_spectrum(family.algebra, *_gibbs_spectra(family.support, gibbs))


def _objective_pieces(family: ExponentialFamily, theta: np.ndarray, moments: np.ndarray):
    """Objective F(a) - theta.m, its gradient, and the point (_gibbs at a, T,
    means) they were read from, which the Hessian and the Gibbs state reuse;
    theta and moments may be (K, dim), one row per state with its own bits.

    One eigendecomposition of a = offset + sum theta_i v_i per size group,
    stacked (g, *rows, n_k, n_k); each group's basis stack S (g, dim, n_k,
    n_k) is tilted into the eigenbases of its blocks by one product, T = V* S
    V, and the means are the Gibbs-weighted diagonals sum_k sum_m p_m Re
    (T_k,i)_mm, summed over the blocks in block order.
    """
    order, groups = family.group_stacks
    rows = theta.shape[:-1]
    if rows:  # the row axis after g
        groups = [(o[:, None], S[:, None], flat[:, None]) for o, S, flat in groups]
    # one (1, dim) @ (dim, n_k^2) product per row and block, the bits of
    # parameter_element: a (K, dim) @ (dim, n_k^2) product would move them
    a = [o + (theta[..., None, :] @ flat).reshape(o.shape[:1] + rows + o.shape[-2:])
         for o, _, flat in groups]
    a = [_sym(x) for x in a]
    gibbs = _gibbs_stacks(a, order, family.support)
    tilted = [V.conj().swapaxes(-1, -2)[..., None, :, :] @ S @ V[..., None, :, :]
              for V, (_, S, _) in zip(gibbs.vectors, groups)]
    diagonals = [np.diagonal(T, axis1=-2, axis2=-1).real for T in tilted]
    means = sum(gibbs.per_block([(d @ p[..., None])[..., 0]
                                 for d, p in zip(diagonals, gibbs.weights)]))
    values = gibbs.free - np.vecdot(theta, moments)  # per row, the bits of theta @ moments
    return values, means - moments, (gibbs, tilted, means)


def _bkm_hessian(point) -> np.ndarray:
    """BKM covariance H_ij = <v_i - m_i, Dexp(a)[v_j - m_j]> / tr e^a of the
    tangent basis at a point of _objective_pieces, m the means, per row.

    In the eigenbasis of a it is sum_k sum_mn t_mn Re(conj(C_k,i) C_k,j)_mn / z
    with C_k,i = T_k,i - m_i 1 and t > 0 the exp divided differences of the
    point's w - mu: the Gram matrix of R_k = [Re | Im](C_k * sqrt(t)) as
    (dim, 2 n_k^2), symmetric and positive semidefinite by construction.  Each size group
    takes one table and one batched Gram product; the blocks' Gram matrices
    are summed in block order.  Centered first, it has no cancellation
    against m m^T.
    """
    gibbs, tilted, m = point
    grams = []
    for w, T in zip(gibbs.values, tilted):
        C = T.copy()  # centered: m_i off the diagonal of each T_k,i
        C.reshape(C.shape[:-2] + (C.shape[-1] ** 2,))[..., ::C.shape[-1] + 1] -= m[..., None]
        C *= np.sqrt(divided_differences(w, "exp"))[..., None, :, :]
        R = C.view(float).reshape(C.shape[:-2] + (-1,))
        grams.append(R @ R.swapaxes(-1, -2))
    H = np.zeros(m.shape + m.shape[-1:])
    for G in gibbs.per_block(grams):
        H += G
    return H / gibbs.z[..., None, None]


def _take(point, rows):
    """Rows of a point of _objective_pieces over stacked states: a list of
    indices stacked, one index as its state's own call gives it, None all."""
    if rows is None:
        return point
    gibbs, tilted, means = point
    values, vectors, weights, tilted = ([x[:, rows] for x in stacks] for stacks in (
        gibbs.values, gibbs.vectors, gibbs.weights, tilted))
    return (gibbs._replace(free=gibbs.free[rows], values=values, vectors=vectors,
                           weights=weights, z=gibbs.z[rows]),
            tilted, means[rows])


class _NewtonEnd(NamedTuple):
    """Where one state's Newton loop ended at one cap: theta, its objective
    value and gradient, the (point of _objective_pieces, row) they come
    from, the smallest Hessian eigenvalue met, the iteration count and why
    it stopped ("cap" when the cap stopped it)."""

    theta: np.ndarray
    fval: float
    grad: np.ndarray
    point: tuple
    min_hess: float
    iterations: int
    stop_reason: str


def _newton_setup(rhos: Sequence[State], family: ExponentialFamily):
    """Checks of each state in order, then per state its moments and
    entropy offset."""
    for rho in rhos:
        _check_corner(rho, family)
    moments = [mean_value_projection(rho.element, family) for rho in rhos]
    bases = [vn_entropy(rho) + hs_inner(rho.element, family.offset) for rho in rhos]
    return moments, bases


def _resolution(scale: float) -> float:
    """What the objective resolves at terms of size ``scale``: the Armijo
    floor near the optimum, and the largest distance that is rounding."""
    return 4.0 * _EPS * (1.0 + abs(scale))


def _norm(v: np.ndarray) -> float:
    """|v| of a real vector by np.linalg.norm's own formula, sqrt(v . v)."""
    return math.sqrt(v @ v)


def _newton(
    family: ExponentialFamily,
    moments: Sequence[np.ndarray],
    tol: float,
    caps: Sequence[float],
) -> list[list[_NewtonEnd]]:
    """_newton_row for each state's moments over the ascending ``caps``, the
    rows side by side: per row its ends, each with the bits of its own solve.

    Each round serves the rows still running: their step requests with one
    Hessian, eigvalsh and solve call, and their trials with one
    _objective_pieces call, each stacked over the rows when several ask and
    with the shapes of a single solve when one asks.  A step follows an
    accepted trial, so the rows asking one share the last round's point; a
    row steps at the origin without a request."""
    rows = [_newton_row(family, m, tol, caps) for m in moments]
    out: list = [None] * len(rows)
    replies = [(k, None) for k in range(len(rows))]
    while replies:
        asks = []
        for k, reply in replies:
            try:
                asks.append((k, rows[k].send(reply)))
            except StopIteration as done:
                out[k] = done.value
        steps = [(k, ask) for k, ask in asks if isinstance(ask, tuple)]
        trials = [(k, ask) for k, ask in asks if not isinstance(ask, tuple)]
        replies = []
        if len(steps) == 1:
            k, ((point, r), grad) = steps[0]
            H = _bkm_hessian(_take(point, r))
            low = float(np.linalg.eigvalsh(H)[0])
            replies.append((k, (low, np.linalg.solve(_lifted(H, low), -grad))))
        elif steps:
            _, ((point, _), _) = steps[0]
            H = _bkm_hessian(_take(point, [r for _, ((_, r), _) in steps]))
            lows = np.linalg.eigvalsh(H)[:, 0].tolist()
            H = np.array([_lifted(h, low) for h, low in zip(H, lows)])
            x = np.linalg.solve(H, -np.array([grad for _, (_, grad) in steps])[..., None])
            replies += [(k, pair) for (k, _), pair in zip(steps, zip(lows, x[..., 0]))]
        if len(trials) == 1:
            k, theta = trials[0]
            f, g, point = _objective_pieces(family, theta, moments[k])
            replies.append((k, (float(f), g, (point, None))))
        elif trials:
            values, grads, point = _objective_pieces(family, np.array([t for _, t in trials]),
                                                     np.array([moments[k] for k, _ in trials]))
            replies += [(k, (f, grads[i], (point, i)))
                        for i, ((k, _), f) in enumerate(zip(trials, values.tolist()))]
    return out


def _lifted(H: np.ndarray, low: float) -> np.ndarray:
    """H, lifted when its smallest eigenvalue low is not positive: in an
    exponentially flat valley the analytic Hessian is positive definite but
    below rounding noise."""
    return H + (abs(low) + 1e-15) * np.eye(len(H)) if low <= 0.0 else H


def _newton_row(family: ExponentialFamily, moments: np.ndarray, tol: float,
                caps: Sequence[float]):
    """Damped Newton for one state from family.origin, within each of the
    ascending ``caps`` in turn, as a generator: it yields ((point, row),
    gradient) for a Newton step, to be sent (smallest Hessian eigenvalue,
    step), and a trial theta, to be sent its (objective, gradient, (point,
    row)); it returns one _NewtonEnd per cap.  A step at family.origin it
    solves with origin_step.

    Up to the first iteration in which a cap acts (the full step left the
    cap ball, or the accepted point reached its sphere) every larger cap
    takes exactly the same path.  So the row keeps that iteration's start
    and the step it took, and rewinds there for the next cap; the end at a
    cap that never acted is the end at every larger cap.  An end's
    stop_reason is ProjectionResult's, or "max_iter" when the iteration
    budget, defaults.MAX_ITER, ran out first.
    """
    gibbs, _, means = family.origin
    rewind = (np.zeros(family.dim), float(gibbs.free), means - moments, (family.origin, None),
              float("inf"), 0, 0), None
    ends: list[_NewtonEnd] = []
    for param_cap in caps:
        (theta, fval, grad, point, min_hess, iterations, stalled), newton = rewind
        rewind = None
        while True:
            if _norm(grad) <= tol or family.dim == 0:
                stop = "converged"
                break
            if iterations >= defaults.MAX_ITER:
                stop = "max_iter"
                break
            if newton is None and point[0] is family.origin:
                low, H = family.origin_step
                newton = low, np.linalg.solve(H, -grad)
            elif newton is None:
                newton = yield point, grad
            here = (theta, fval, grad, point, min_hess, iterations, stalled), newton
            min_hess = min(min_hess, newton[0])
            step, newton = newton[1], None
            slope = float(grad @ step)
            t = 1.0
            hit_cap_now = False
            if _norm(theta + step) > param_cap:
                # shrink along the ray to land on the cap sphere, the root t of
                # |theta + t step| = cap; the objective still decreases there by
                # convexity
                a, b = float(step @ step), float(theta @ step)
                t = (np.sqrt(b * b + a * (param_cap ** 2 - theta @ theta)) - b) / a
                hit_cap_now = True
                rewind = rewind or here
            accepted = False
            # f = F - theta.m rounds at the size of F, read off the point's row
            free = point[0][0].free if point[1] is None else point[0][0].free[point[1]]
            floor = _resolution(max(abs(fval), abs(free)))
            for _ in range(defaults.ARMIJO_MAX_HALVINGS):
                cand = theta + t * step
                f2, g2, p2 = yield cand
                if f2 <= fval + defaults.ARMIJO_C1 * t * slope + floor or (
                    hit_cap_now and f2 < fval
                ):
                    theta, fval, grad, point = cand, f2, g2, p2
                    accepted = True
                    break
                t *= 0.5
                hit_cap_now = False
            iterations += 1
            if not accepted:
                # step underflow: nothing representable decreases the objective
                stop = "armijo_underflow"
                break
            if _norm(t * step) <= 1e-14 * (1.0 + _norm(theta)):
                stalled += 1
                if stalled >= 3:
                    stop = "stalled"
                    break
            else:
                stalled = 0
            if hit_cap_now or _norm(theta) >= param_cap:
                rewind = rewind or here
                stop = "cap"
                break
        ends.append(_NewtonEnd(theta, fval, grad, point, min_hess, iterations, stop))
        if rewind is None:
            break
    return ends + ends[-1:] * (len(caps) - len(ends))


def _newton_finish(
    family: ExponentialFamily,
    base: float,
    end: _NewtonEnd,
    tol: float,
    on_face: Callable[[], bool],
) -> ProjectionResult:
    """The ProjectionResult of a _NewtonEnd, which keeps the end's Gibbs
    point for sigma_star; SolverError when the iteration budget ran
    out short of convergence and of the cap.  on_face is asked only when the
    solver converged inside the cap."""
    gnorm, cap_hit = _norm(end.grad), end.stop_reason == "cap"
    if gnorm > tol and not cap_hit and end.iterations >= defaults.MAX_ITER:
        raise SolverError(
            f"no convergence in {defaults.MAX_ITER} iterations (|grad| = {gnorm:.3e})"
        )

    # f = F - theta.m rounds at the size of the free energy F, not of f
    gibbs = _take(*end.point)[0]
    excess = end.fval - base
    distance = excess if excess > _resolution(gibbs.free) else 0.0
    attained = not cap_hit and gnorm <= tol and not on_face()
    return ProjectionResult(
        theta_star=end.theta,
        attained=attained,
        grad_residual=gnorm,
        iterations=end.iterations,
        distance=distance,
        _final=(family, gibbs),
        min_hessian_eig=end.min_hess,
        stop_reason=end.stop_reason,
    )


def project_to_family(
    rho: State,
    family: ExponentialFamily,
    tol: float = defaults.SOLVER_TOL,
    param_cap: float = defaults.PARAM_CAP,
) -> ProjectionResult:
    """Entropy projection of rho onto the family.

    Damped Newton on the convex free-energy objective, Hessian assembled from
    the exp Frechet derivative (the BKM covariance, positive definite along
    the run).  attained=True requires the gradient below ``tol`` inside the
    parameter cap and rho on no proper exposed face (_exposing_direction, the
    face_chain kernel); otherwise the infimum lies on the boundary of the
    family and no minimizer exists.
    """
    return _project_ladder([rho], family, (param_cap,),
                           lambda _: _exposing_direction(rho, family) is not None, tol=tol)[0][0]


def _project_ladder(
    rhos: Sequence[State],
    family: ExponentialFamily,
    caps: Sequence[float],
    on_face: Callable[[int], bool],
    tol: float = defaults.SOLVER_TOL,
) -> list[list[ProjectionResult]]:
    """The projection of each state at each cap, per state in the order of
    ``caps``, each bit for bit the solve of that state alone from theta = 0
    at that cap; on_face(k) answers whether rhos[k] lies on a proper face.

    One Newton loop walks every state up its sorted distinct caps
    (_newton), so the path that a state's caps share is computed once; a
    cap that never acted on a state ends every larger cap too, and their
    results are one object.  Errors follow the order of a loop over single
    solves: the first state, in the given order, whose own solve would raise
    SolverError raises it here, at the first such cap in the given order.
    on_face is asked at most once per state.
    """
    moments, bases = _newton_setup(rhos, family)
    ladder = sorted(set(float(c) for c in caps))
    out = []
    for k, row in enumerate(_newton(family, moments, tol, ladder)):
        ends, face, results = dict(zip(ladder, row)), cache(lambda k=k: on_face(k)), {}
        for cap in caps:
            end = ends[float(cap)]
            if id(end) not in results:
                results[id(end)] = _newton_finish(family, bases[k], end, tol, face)
        out.append([results[id(ends[float(cap)])] for cap in caps])
    return out


def entropy_distance(
    rho: State,
    family: ExponentialFamily,
    tol: float = defaults.SOLVER_TOL,
) -> tuple[float, bool]:
    """Entropy distance of rho from the family's closure, and whether the
    family itself attains it: the (value, attained) view of the one exact
    path, _chain_projections, whose solve has no parameter cap."""
    _, res = _chain_projections([rho], family, tol)[0]
    return res.distance, res.attained


def _chain_projections(rhos: Sequence[State], family: ExponentialFamily,
                       tol: float = defaults.SOLVER_TOL
                       ) -> list[tuple[list[Projector], ProjectionResult]]:
    """The one exact path: each state's face_chain projectors and its uncapped
    solve in the family the chain ends in, where the minimum over the closure
    is attained (Csiszar & Matus, IEEE Trans. IT 49, 2003); it ends
    converged, "stalled" or in SolverError.  attained: the chain is empty and
    the solve converged; the chain answers the solve's face test.  The states
    whose chains end in one family object (every full-rank state's ends in
    ``family``) share one loop."""
    chains = [face_chain(rho, family) for rho in rhos]
    out: list = [None] * len(rhos)
    for last in {id(last): last for _, last in chains}.values():
        ks = [k for k, (_, end) in enumerate(chains) if end is last]
        results = _project_ladder([rhos[k] for k in ks], last, (math.inf,),
                                  lambda i: bool(chains[ks[i]][0]), tol=tol)
        for k, (res,) in zip(ks, results):
            out[k] = chains[k][0], res
    return out


def distance_continuation(
    rho: State,
    family: ExponentialFamily,
    caps: Sequence[float] = (10.0, 20.0, 40.0, 80.0),
) -> list[tuple[float, float, bool]]:
    """Objective values at a ladder of parameter caps, for extrapolation.

    Returns (cap, value, attained) per cap, in the given order; caps may
    repeat.  Each cap's value and flag equal an independent solve from
    theta = 0 (project_to_family at that cap) bit for bit: below a cap the
    Newton path does not depend on it, so the path that the caps share is
    computed once and each larger cap continues from where the smaller one
    was cut off.  The values are non-increasing in practice, not by
    construction, and bound the exact entropy_distance from above.
    """
    results = _project_ladder([rho], family, caps,
                              lambda _: _exposing_direction(rho, family) is not None)[0]
    return [(float(cap), r.distance, r.attained) for cap, r in zip(caps, results)]


def pythagorean_residual(rho: State, sigma: State, tau: State) -> float:
    """|S(rho,sigma) + S(sigma,tau) - S(rho,tau)| for an orthogonal triple.

    Precondition (checked): sigma, tau invertible and
    rho - sigma perpendicular to ln(tau) - ln(sigma).
    """
    if not (sigma.is_invertible() and tau.is_invertible()):
        raise PreconditionError("sigma and tau must be invertible")
    log_sigma = log_on_support(sigma)
    log_tau = log_on_support(tau)
    ortho = hs_inner(rho.element - sigma.element, log_tau - log_sigma)
    if abs(ortho) > 1e-10 * max(1.0, (log_tau - log_sigma).norm()):
        raise PreconditionError(
            f"rho - sigma not orthogonal to ln(tau) - ln(sigma): {ortho:.3e}"
        )
    s1 = relative_entropy(rho, sigma)
    s2 = relative_entropy(sigma, tau)
    s3 = relative_entropy(rho, tau)
    return abs(s1 + s2 - s3)
