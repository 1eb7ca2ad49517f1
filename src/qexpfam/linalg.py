"""Hermitian linear algebra on block-diagonal matrix algebras.

The ambient *-algebra is a finite direct sum of full complex matrix blocks
Mat(n_1) + ... + Mat(n_m).  Elements are stored block-wise; all operations
(inner products, spectral decompositions, matrix functions, Frechet
derivatives) act block by block.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from . import defaults
from .errors import AlgebraMismatchError, DomainError


@dataclass(frozen=True)
class Algebra:
    """A direct sum of full complex matrix blocks, given by its block sizes."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        object.__setattr__(self, "block_dims", dims)
        if not dims or any(n < 1 for n in dims):
            raise ValueError(f"block dimensions must be positive, got {dims}")
        if sum(dims) > defaults.MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {sum(dims)} exceeds cap {defaults.MAX_TOTAL_DIM}"
            )

    @property
    def dim(self) -> int:
        """Total matrix dimension N = sum of block sizes (= trace of identity)."""
        return sum(self.block_dims)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def real_dim(self) -> int:
        """Real dimension of the space of self-adjoint elements."""
        return sum(n * n for n in self.block_dims)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


class HermitianElement:
    """A self-adjoint element of a block-diagonal matrix algebra.

    Construction symmetrizes the input, (a + a*)/2, and rejects it when it is
    not finite or the anti-Hermitian correction is larger than round-off
    tolerance.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: Algebra, blocks: Sequence[np.ndarray]):
        if len(blocks) != algebra.n_blocks:
            raise AlgebraMismatchError(
                f"expected {algebra.n_blocks} blocks, got {len(blocks)}"
            )
        sym = []
        for n, raw in zip(algebra.block_dims, blocks):
            b = np.asarray(raw, dtype=complex)
            if b.shape != (n, n):
                raise AlgebraMismatchError(
                    f"block of shape {b.shape} does not match dimension {n}"
                )
            if not np.isfinite(b).all():
                raise ValueError("input block has a non-finite entry")
            h = (b + b.conj().T) / 2.0
            drift = np.linalg.norm(b - h)
            if drift > defaults.HERMITIZE_REJECT * (1.0 + np.linalg.norm(h)):
                raise ValueError(
                    f"input block is not Hermitian (correction {drift:.3e})"
                )
            sym.append(_freeze(h))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(sym))

    @classmethod
    def _trusted(cls, algebra: Algebra, blocks) -> "HermitianElement":
        """Internal constructor for sums, real multiples, compressions pap
        and eigen-reconstructions of elements.

        Such blocks are Hermitian up to rounding already, so the drift check
        and the defensive copy are skipped; the symmetrization stays, which
        keeps the bits (signed zeros included) equal to the public
        constructor's.
        """
        out = object.__new__(cls)
        sym = []
        for b in blocks:
            h = (b + b.conj().T) / 2.0
            h.setflags(write=False)
            sym.append(h)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "blocks", tuple(sym))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("HermitianElement is immutable")

    # -- arithmetic (the self-adjoint elements form a real vector space) --

    def _check_same(self, other: "HermitianElement"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("operands belong to different algebras")

    def __add__(self, other: "HermitianElement") -> "HermitianElement":
        self._check_same(other)
        return HermitianElement._trusted(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "HermitianElement") -> "HermitianElement":
        self._check_same(other)
        return HermitianElement._trusted(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __mul__(self, t: float) -> "HermitianElement":
        t = float(t)
        return HermitianElement._trusted(self.algebra, [t * a for a in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, t: float) -> "HermitianElement":
        return self * (1.0 / float(t))

    def __neg__(self) -> "HermitianElement":
        return self * (-1.0)

    # -- basic scalars --

    def trace(self) -> float:
        return float(sum(np.trace(b).real for b in self.blocks))

    def norm(self) -> float:
        """Hilbert-Schmidt norm sqrt(tr(a^2))."""
        return float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in self.blocks)))

    def __repr__(self):
        return f"HermitianElement(dims={self.algebra.block_dims}, norm={self.norm():.6g})"


# -- convenient constructors --------------------------------------------------


def zero(algebra: Algebra) -> HermitianElement:
    return HermitianElement(algebra, [np.zeros((n, n)) for n in algebra.block_dims])


def identity(algebra: Algebra) -> HermitianElement:
    return HermitianElement(algebra, [np.eye(n) for n in algebra.block_dims])


def embed_block(algebra: Algebra, index: int, block: np.ndarray) -> HermitianElement:
    """An element that is ``block`` in position ``index`` and zero elsewhere."""
    blocks = [np.zeros((n, n)) for n in algebra.block_dims]
    blocks[index] = np.asarray(block, dtype=complex)
    return HermitianElement(algebra, blocks)


def diagonal(algebra: Algebra, entries: Sequence[float]) -> HermitianElement:
    """Diagonal element with the given N real entries, split across blocks."""
    entries = np.asarray(entries, dtype=float)
    if entries.shape != (algebra.dim,):
        raise AlgebraMismatchError(f"expected {algebra.dim} diagonal entries")
    blocks, k = [], 0
    for n in algebra.block_dims:
        blocks.append(np.diag(entries[k : k + n]))
        k += n
    return HermitianElement(algebra, blocks)


def traceless_part(a: HermitianElement) -> HermitianElement:
    """a minus its multiple of the identity, tr(result) = 0."""
    shift = a.trace() / a.algebra.dim
    return a - shift * identity(a.algebra)


# -- real coordinates ---------------------------------------------------------
#
# A fixed orthonormal basis of the self-adjoint part: per block the diagonal
# units E_ii, then for i<j the pairs (E_ij+E_ji)/sqrt2 and i(E_ij-E_ji)/sqrt2.
# Used for Gram-Schmidt, subspace projectors and randomized sampling.


@cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the (i, j) with i < j in row order, built once
    per n and read-only, since every caller shares them."""
    upper = np.triu_indices(n, 1)
    for index in upper:
        index.setflags(write=False)
    return upper


def coords(a: HermitianElement) -> np.ndarray:
    out = []
    for b in a.blocks:
        u = b[_upper(b.shape[0])]
        out += [np.diagonal(b).real,
                np.stack([np.sqrt(2.0) * u.real, -np.sqrt(2.0) * u.imag], axis=1).ravel()]
    return np.concatenate(out)


def from_coords(algebra: Algebra, v: np.ndarray) -> HermitianElement:
    v = np.asarray(v, dtype=float)
    if v.shape != (algebra.real_dim,):
        raise AlgebraMismatchError(f"expected {algebra.real_dim} coordinates")
    blocks, k = [], 0
    for n in algebra.block_dims:
        i, j = _upper(n)
        re, im = v[k + n:k + n * n:2], v[k + n + 1:k + n * n:2]
        b = np.zeros((n, n), dtype=complex)
        b[np.diag_indices(n)] = v[k:k + n]
        b[i, j] = (re - 1j * im) / np.sqrt(2.0)
        b[j, i] = (re + 1j * im) / np.sqrt(2.0)
        blocks.append(b)
        k += n * n
    return HermitianElement(algebra, blocks)


# -- inner product ------------------------------------------------------------


def hs_inner(a: HermitianElement, b: HermitianElement) -> float:
    """Hilbert-Schmidt inner product tr(ab) of two self-adjoint elements."""
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("operands belong to different algebras")
    total = 0.0
    for x, y in zip(a.blocks, b.blocks):
        # the single BLAS call np.tensordot(x, y.conj(), axes=2) makes after
        # its reshapes, without its Python overhead
        total += np.dot(x.reshape(1, -1), y.conj().reshape(-1, 1))[0, 0].real
    return float(total)


# -- spectral decomposition ---------------------------------------------------


@dataclass(frozen=True)
class SpectralData:
    """Per-block eigendecomposition, eigenvalues sorted descending."""

    algebra: Algebra
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]

    def all_eigenvalues(self) -> np.ndarray:
        """All eigenvalues concatenated and sorted descending."""
        return np.sort(np.concatenate(self.eigenvalues))[::-1]

    def reconstruct(self, values: tuple[np.ndarray, ...] | None = None) -> HermitianElement:
        vals = self.eigenvalues if values is None else values
        blocks = [(V * w) @ V.conj().T for w, V in zip(vals, self.eigenvectors)]
        return HermitianElement._trusted(self.algebra, blocks)


def _reconstruct_stack(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """SpectralData.reconstruct and HermitianElement._trusted on the last
    axes of eigenvalues w (..., n) and eigenvectors V (..., n, n), which
    gives each matrix of a stack the bits of its own product."""
    h = (V * w[..., None, :]) @ V.conj().swapaxes(-1, -2)
    return (h + h.conj().swapaxes(-1, -2)) / 2.0


@cache
def size_groups(sizes: tuple) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, int], ...]]:
    """The blocks of equal ``sizes`` (one hashable key per block) as groups of
    block indices, in order of first appearance, and each block's (group,
    row) in block order.  One stacked call per group serves all of its
    blocks; sums over blocks read the rows back in block order."""
    index: dict = {}
    for k, size in enumerate(sizes):
        index.setdefault(size, []).append(k)
    groups = tuple(map(tuple, index.values()))
    rows = sorted((k, (g, j)) for g, ks in enumerate(groups) for j, k in enumerate(ks))
    return groups, tuple(row for _, row in rows)


def stack_groups(arrays: Sequence[np.ndarray], groups) -> list[np.ndarray]:
    """The per-block ``arrays`` stacked (g, ...) per group of size_groups; a
    one-block group is a view."""
    return [arrays[g[0]][None] if len(g) == 1 else np.stack([arrays[k] for k in g])
            for g in groups]


def eigh(a: HermitianElement) -> SpectralData:
    """Eigendecomposition of each Hermitian block.

    Reconstruction satisfies ||a - U diag(w) U*|| <= 1e-12 (1 + ||a||).
    """
    vals, vecs = [], []
    for b in a.blocks:
        w, V = np.linalg.eigh(b)
        order = np.argsort(w)[::-1]
        vals.append(np.ascontiguousarray(w[order]))
        vecs.append(np.ascontiguousarray(V[:, order]))
    return SpectralData(a.algebra, tuple(vals), tuple(vecs))


def top_eigenspace(values: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """mu, the largest eigenvalue, and per block the count of eigenvalues within
    MAX_EIG_GAP of mu, from each block's eigenvalues in any order: values[k]
    of shape (n_k,) for one element or (rows, n_k) for a stack.  This is the
    package's one eigenvalue-merge test, the rank of the top eigenspace."""
    mu = np.maximum.reduce([w.max(axis=-1) for w in values])
    cut = (mu - defaults.MAX_EIG_GAP)[..., None]
    return mu, [(w >= cut).sum(axis=-1) for w in values]


def trace_norm(a: HermitianElement) -> float:
    """Trace norm: the sum of absolute eigenvalues."""
    return float(sum(np.abs(w).sum() for w in eigh(a).eigenvalues))


def apply_matrix_function(
    a: HermitianElement, f: Callable[[np.ndarray], np.ndarray]
) -> HermitianElement:
    """Apply a real scalar function on the spectrum of ``a``.

    Raises DomainError when f produces non-finite values on an eigenvalue.
    """
    spec = eigh(a)
    new_vals = []
    for w in spec.eigenvalues:
        with np.errstate(all="ignore"):
            fw = np.asarray(f(w), dtype=float)
        if not np.all(np.isfinite(fw)):
            raise DomainError(
                f"scalar function not finite on spectrum (eigenvalues {w})"
            )
        new_vals.append(fw)
    return spec.reconstruct(tuple(new_vals))


def expm(a: HermitianElement) -> HermitianElement:
    return apply_matrix_function(a, np.exp)


def logm(a: HermitianElement) -> HermitianElement:
    """Matrix logarithm; requires a strictly positive spectrum (DomainError
    from apply_matrix_function otherwise: log is not finite there)."""
    return apply_matrix_function(a, np.log)


# -- direction sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class SweepSpectra:
    """Per-block np.linalg.eigh output of u(alpha) stacked over angles:
    values[k] (n_angles, n_k) ascending, vectors[k] (n_angles, n_k, n_k)."""

    values: list[np.ndarray]
    vectors: list[np.ndarray]

    def top(self) -> np.ndarray:
        return np.max([w[:, -1] for w in self.values], axis=0)

    def top_gap(self, m=1) -> np.ndarray:
        """Largest eigenvalue minus the (m + 1)-th largest; m may vary by angle."""
        w = np.sort(np.concatenate(self.values, axis=1), axis=1)
        return w[:, -1] - w[np.arange(len(w)), -1 - np.asarray(m)]

    def max_projectors(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Ranks and blocks of the maximal projectors (top_eigenspace), built and
        symmetrized as states.max_eig_data builds them, bit for bit."""
        ranks, blocks = top_eigenspace(self.values)[1], []
        for w, V, r in zip(self.values, self.vectors, ranks):
            order = np.argsort(w, axis=-1)[:, ::-1]
            P = np.zeros(V.shape, dtype=complex)
            for rank in np.unique(r[r > 0]):
                idx = np.flatnonzero(r == rank)
                keep = np.take_along_axis(V[idx], order[idx, None, :rank], axis=-1)
                P[idx] = keep @ keep.conj().swapaxes(-1, -2)
            blocks.append((P + P.conj().swapaxes(-1, -2)) / 2.0)
        return sum(ranks), blocks


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Stacks (..., n_k, n_k), one per block, as block-diagonal stacks (..., N, N)."""
    edges = np.cumsum([0] + [x.shape[-1] for x in blocks]).tolist()
    out = np.zeros(blocks[0].shape[:-2] + (edges[-1],) * 2, dtype=complex)
    for x, i, j in zip(blocks, edges, edges[1:]):
        out[..., i:j, i:j] = x
    return out


class DirectionSweep:
    """u(alpha) = cos(alpha) a + sin(alpha) b on raw blocks, queried with angle
    arrays: each query runs one stacked np.linalg.eigh per block, and the
    crossing searches of all brackets advance together."""

    def __init__(self, a: Sequence[np.ndarray], b: Sequence[np.ndarray]):
        self.a, self.b = [np.asarray(x) for x in a], [np.asarray(x) for x in b]

    def blocks(self, alphas) -> list[np.ndarray]:
        alphas = np.asarray(alphas, dtype=float)
        c, s = np.cos(alphas)[:, None, None], np.sin(alphas)[:, None, None]
        return [c * a + s * b for a, b in zip(self.a, self.b)]

    def spectra(self, alphas) -> SweepSpectra:
        pairs = [np.linalg.eigh(u) for u in self.blocks(alphas)]
        return SweepSpectra([w for w, _ in pairs], [V for _, V in pairs])

    def locate_crossings(self, lo, hi, P_lo, P_hi) -> tuple[np.ndarray, SweepSpectra]:
        """Crossings of branch A, the top eigenspace at lo[j], with branch B, the
        one at hi[j] (block-diagonal projectors P_lo[j], P_hi[j]), and the
        spectra there as spectra() gives them: safeguarded Newton steps on
        f = lambda_A - lambda_B, in lockstep, one spectra call a step.

        A branch of rank r keeps the r eigenvectors of largest overlap with its
        last projector; lambda is their mean eigenvalue, with slope
        tr(Q* u' Q) / r (Hellmann-Feynman).  A search stops when |f / f'| <
        SWEEP_CROSSING_TOL (tested first, then one more step onto the Newton
        point); a step that leaves f's sign bracket, does not halve the last
        one or follows an ambiguous tracking (kept overlap <= 1/2) bisects.  A
        stop under a third branch C splits into searches of A against C and C
        against B (both crossings of A -> C -> B); any other stop is a root if
        top_eigenspace's total rank there exceeds m, the larger tracked rank.
        """
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        if not lo.size:
            return lo, SweepSpectra([u[:0].real for u in self.a], [u[None][:0] for u in self.a])
        a, b, x, dx, done = lo, hi, 0.5 * (lo + hi), hi - lo, np.zeros(len(lo), dtype=bool)
        P = np.stack([P_lo, P_hi])
        rank = P.trace(axis1=-2, axis2=-1).real.round()
        for _ in range(200):
            at = self.spectra(x)
            V, w = _block_diag(at.vectors), np.concatenate(at.values, axis=1)
            Vh, du = V.conj(), _block_diag(self.blocks(x + 0.5 * np.pi))  # u'(x) = u(x + pi/2)
            overlap = (Vh * (P @ V)).sum(-2).real
            keep = np.argsort(np.argsort(-overlap), axis=-1) < rank[..., None]
            lam = (w * keep).sum(-1) / rank
            slope = ((Vh * (du @ V)).sum(-2).real * keep).sum(-1) / rank
            tracked = ((overlap > 0.5) | ~keep).all(-1)
            f, fp, clear = lam[0] - lam[1], slope[0] - slope[1], tracked.all(0)
            step = np.divide(f, fp, out=np.zeros_like(f), where=fp != 0)
            conv = (f == 0.0) | (clear & (fp != 0) & (np.abs(step) < defaults.SWEEP_CROSSING_TOL))
            a, b = np.where(f > 0, x, a), np.where(f < 0, x, b)  # f > 0 at a, f < 0 at b
            done = done | (b - a < defaults.SWEEP_CROSSING_TOL) | (conv & (x - step == x))
            newton = conv | clear & (a < x - step) & (x - step < b) & (2 * abs(step) <= abs(dx))
            nxt = np.where(done, x, np.where(newton, x - step, 0.5 * (a + b)))
            a, b = np.where(conv, nxt, a), np.where(conv, nxt, b)  # so it ends at nxt
            P = np.where(tracked[..., None, None], (V * keep[..., None, :]) @ Vh.swapaxes(1, 2), P)
            x, dx = nxt, x - nxt
            if done.all():
                break
        mu, top_ranks = top_eigenspace(at.values)
        above = mu - lam.max(0) > defaults.MAX_EIG_GAP
        root = done & ~above & (sum(top_ranks) > rank.max(0))
        split = np.flatnonzero(done & above)
        C = _block_diag(at.max_projectors()[1])[split]
        more, more_at = self.locate_crossings(
            np.append(lo[split], x[split]), np.append(x[split], hi[split]),
            np.concatenate([P[0, split], C]), np.concatenate([C, P[1, split]]))
        return np.append(x[root], more), SweepSpectra(*(
            [np.concatenate([u[root], v]) for u, v in zip(mine, theirs)]
            for mine, theirs in ((at.values, more_at.values), (at.vectors, more_at.vectors))))

    def crossings(self, alphas, ranks, P: list[np.ndarray]) -> tuple[np.ndarray, SweepSpectra]:
        """Angles between adjacent angles of the sorted grid alphas
        (cyclically) where the top eigenvalue branch crosses another, with
        their spectra; ranks and P are the grid's maximal projectors
        (SweepSpectra.max_projectors).

        An interval is bracketed when the maximal projector jumps across it,
        tr(P_j P_j+1) < min(rank_j, rank_j+1) / 2: a crossing swaps the top
        eigenspace for an orthogonal one, also where one branch stays
        multiple, while a smooth step or a crossing on a grid angle keeps the
        overlap near full.  locate_crossings follows the end projectors (and
        finds both crossings where a third branch passes the top); an interval
        whose top eigenspace swaps away and back is not bracketed.
        """
        P = _block_diag(P)
        P_next = np.roll(P, -1, axis=0)
        j = np.flatnonzero((P * P_next.conj()).sum((1, 2)).real
                           < 0.5 * np.minimum(ranks, np.roll(ranks, -1)))
        lo = np.asarray(alphas, dtype=float)
        hi = np.append(lo[1:], lo[0] + 2.0 * np.pi)
        return self.locate_crossings(lo[j], hi[j], P[j], P_next[j])


# -- Frechet derivatives of matrix functions ----------------------------------


def divided_differences(w: np.ndarray, f: str) -> np.ndarray:
    """First divided difference table f[w_i, w_j] of f = "exp" or "log", one
    per row of eigenvalues w (..., n).

    Closed forms accurate at any gap g = |w_i - w_j|, with hi and lo the
    larger and smaller eigenvalue: exp[w_i, w_j] = e^hi (-expm1(-g)/g) and
    log[w_i, w_j] = log1p(g/lo)/g take no difference of nearly equal function
    values.  Exact ties take the derivative, e^hi or 1/lo.  Symmetric.
    DomainError for log unless every w > 0.
    """
    if f == "log" and np.any(w <= 0):
        raise DomainError("log divided differences require a positive spectrum")
    x, y = w[..., :, None], w[..., None, :]
    gap = np.abs(x - y)
    with np.errstate(all="ignore"):
        if f == "exp":
            table = np.exp(np.maximum(x, y)) * np.where(gap == 0.0, 1.0, -np.expm1(-gap) / gap)
        elif f == "log":
            lo = np.minimum(x, y)
            table = np.where(gap == 0.0, 1.0 / lo, np.log1p(gap / lo) / gap)
        else:
            raise ValueError(f"no divided differences for '{f}' (use exp | log)")
    if not np.all(np.isfinite(table)):
        raise DomainError("divided differences not finite on spectrum")
    return table


def frechet_block(w: np.ndarray, V: np.ndarray, b: np.ndarray, f: str) -> np.ndarray:
    """One block of the Daleckii-Krein derivative, V (f[w_i,w_j] * V* b V) V*,
    for eigenpairs (w, V) given as columns and f = "exp" or "log"."""
    table = divided_differences(w, f)
    return V @ (table * (V.conj().T @ b @ V)) @ V.conj().T


def frechet_derivative(a: HermitianElement, b: HermitianElement, f: str) -> HermitianElement:
    """Derivative of the matrix function f = "exp" or "log" at a in direction b.

    Computed in the eigenbasis of a as the Schur product of f's first divided
    differences with the rotated direction (Daleckii-Krein).  Linear in b and
    symmetric: <Df(a)[b], c> = <b, Df(a)[c]>.
    """
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("operands belong to different algebras")
    spec = eigh(a)
    blocks = [
        frechet_block(w, V, bb, f)
        for w, V, bb in zip(spec.eigenvalues, spec.eigenvectors, b.blocks)
    ]
    return HermitianElement(a.algebra, blocks)


def dexp(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix exponential at a in direction b."""
    return frechet_derivative(a, b, "exp")


def dlog(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix logarithm at a (positive definite, else
    DomainError from divided_differences) in direction b."""
    return frechet_derivative(a, b, "log")


# -- orthonormalization -------------------------------------------------------


def project_out(
    a: HermitianElement, basis: Sequence[HermitianElement]
) -> HermitianElement:
    """One modified Gram-Schmidt pass: a minus its components along the
    orthonormal basis, removed one at a time."""
    for e in basis:
        a = a - hs_inner(a, e) * e
    return a


def gram_schmidt(
    elements: Sequence[HermitianElement], tol: float = defaults.GRAM_SCHMIDT_TOL
) -> list[HermitianElement]:
    """Modified Gram-Schmidt in the Hilbert-Schmidt inner product.

    Rejects rank-deficient input (a vector whose residual norm falls below
    ``tol`` relative to its original norm).
    """
    basis: list[HermitianElement] = []
    for el in elements:
        # second pass for numerical orthogonality
        v = project_out(project_out(el, basis), basis)
        nv = v.norm()
        if nv <= tol * max(1.0, el.norm()):
            raise ValueError("rank-deficient spanning set in Gram-Schmidt")
        basis.append(v / nv)
    return basis
