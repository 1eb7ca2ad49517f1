"""Hermitian linear algebra on block-diagonal matrix algebras.

The ambient *-algebra is a finite direct sum of full complex matrix blocks
Mat(n_1) + ... + Mat(n_m).  Elements are stored block-wise; all operations
(inner products, spectral decompositions, matrix functions, Frechet
derivatives) act block by block.  Everything here is a pure function on
immutable values.

Elements are checked where they enter the package: the public constructor
HermitianElement, called by zero, identity, embed_block, diagonal, from_coords
and config.parse_element, rejects malformed input.  Every element computed from
elements and states already held is built by HermitianElement._trusted.
"""

from __future__ import annotations

import math
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


class HermitianElement:
    """A self-adjoint element of a block-diagonal matrix algebra.

    The public constructor checks data entering the package: it symmetrizes
    the input, (a + a*)/2, and rejects it when it is not finite or the
    anti-Hermitian correction is larger than round-off tolerance.  Elements
    computed inside the package are built by _trusted without the checks.
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
            h = _sym(b)
            drift, cut = _fro(b - h), defaults.HERMITIZE_REJECT  # |h| only above the cut
            if drift > cut and drift > cut * (1.0 + _fro(h)):
                raise ValueError(f"input block is not Hermitian (correction {drift:.3e})")
            h.setflags(write=False)
            sym.append(h)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", tuple(sym))

    @classmethod
    def _trusted(cls, algebra: Algebra, blocks) -> "HermitianElement":
        """The internal constructor of every element computed from elements
        and states already held (sums, real multiples, compressions pap,
        eigen-reconstructions, derivatives), wrapping raw block arithmetic
        (the rule at _sym) once.  The checks are skipped; the symmetrization
        stays, which keeps the bits of complex blocks (signed zeros included)
        equal to the public constructor's.  On a _sym output it moves only
        the sign of a zero real part, where the block _sym took had -0 at both
        (i, j) and (j, i); compressions have none, as matmul sums never read -0.
        """
        out, sym = object.__new__(cls), tuple(_sym(b) for b in blocks)
        for h in sym:
            h.setflags(write=False)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "blocks", sym)
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
        return _hs_norm(self.blocks)

    def __repr__(self):
        return f"HermitianElement(dims={self.algebra.block_dims}, norm={self.norm():.6g})"


def _sym(b: np.ndarray) -> np.ndarray:
    """(b + b*) / 2 of a matrix or of each of a stack: the one symmetrization,
    taken after a product, not after a difference or real multiple of
    symmetrized blocks, whose values (all it could move) it keeps."""
    return (b + b.conj().mT) / 2.0


def _fro(b: np.ndarray) -> float:
    """np.linalg.norm(b) by its own formula, sqrt(re . re + im . im), unwrapped."""
    x = b.ravel(order="K")
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _hs_norm(blocks) -> float:
    """HermitianElement.norm of the element with these blocks."""
    return math.sqrt(sum(_fro(b) ** 2 for b in blocks))


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
    return HermitianElement._trusted(a.algebra, [b - shift * np.eye(len(b)) for b in a.blocks])


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
    return _coords(a.blocks)


def _coords(blocks) -> np.ndarray:
    """coords of the element with these blocks, or row by row of stacks of them."""
    out = []
    for b in blocks:
        u = b[(..., *_upper(b.shape[-1]))]
        pairs = np.stack([np.sqrt(2.0) * u.real, -np.sqrt(2.0) * u.imag], axis=-1)
        out += [np.diagonal(b, axis1=-2, axis2=-1).real, pairs.reshape(u.shape[:-1] + (-1,))]
    return np.concatenate(out, axis=-1)


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
    return float(_inner_rows(a.blocks, b.blocks))


def _inner_rows(a_blocks, b_blocks) -> np.ndarray:
    """hs_inner of the elements with these blocks, or row by row of stacks of
    them, leading axes broadcast: per row and block the one (1, n_k^2) @
    (n_k^2, 1) product that np.tensordot(a, b.conj(), axes=2) makes after its
    reshapes, np.dot itself (the faster call) on two matrices."""
    total = 0.0
    for a, b in zip(a_blocks, b_blocks):
        if a.ndim == b.ndim == 2:
            total += np.dot(a.reshape(1, -1), b.conj().reshape(-1, 1))[0, 0].real
        else:
            total += (a.reshape(a.shape[:-2] + (1, -1))
                      @ b.conj().reshape(b.shape[:-2] + (-1, 1)))[..., 0, 0].real
    return total


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
    return _sym((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))


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
        w, V = np.linalg.eigh(b)  # ascending: reversed, as _gibbs_stacks reads it
        vals.append(np.ascontiguousarray(w[::-1]))
        vecs.append(np.ascontiguousarray(V[:, ::-1]))
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
        """Ranks and blocks of the maximal projectors (top_eigenspace), bit for
        bit the blocks of the Projector that states.max_eig_data builds: the
        V_r V_r* of states._maximal_projector, then _sym; V_r is the last r
        ascending eigenvectors, reversed as eigh reverses them."""
        ranks, blocks = top_eigenspace(self.values)[1], []
        for V, r in zip(self.vectors, ranks):
            P = np.zeros(V.shape, dtype=complex)
            for rank in sorted(set(r[r > 0].tolist())):  # np.unique imports numpy.ma
                idx = np.flatnonzero(r == rank)
                keep = np.ascontiguousarray(V[idx, :, :-rank - 1:-1])
                P[idx] = keep @ keep.conj().swapaxes(-1, -2)
            blocks.append(_sym(P))
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
    return HermitianElement._trusted(a.algebra, blocks)


def dexp(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix exponential at a in direction b."""
    return frechet_derivative(a, b, "exp")


def dlog(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix logarithm at a (positive definite, else
    DomainError from divided_differences) in direction b."""
    return frechet_derivative(a, b, "log")


# -- orthonormalization -------------------------------------------------------


def _project_out(blocks, basis) -> list[np.ndarray]:
    """The one project-out step, modified Gram-Schmidt: the blocks of one
    element, or (K, n_k, n_k) stacks of rows, minus their components along
    each orthonormal basis element in turn, on raw blocks (the rule at _sym)."""
    for e in basis:
        t = _inner_rows(blocks, e)[..., None, None]
        blocks = [a - t * b for a, b in zip(blocks, e)]
    return blocks


def project_out(a: HermitianElement, basis: Sequence[HermitianElement]) -> HermitianElement:
    """One modified Gram-Schmidt pass (_project_out): a minus its components
    along the orthonormal basis, removed one at a time."""
    return HermitianElement._trusted(a.algebra, _project_out(a.blocks, [e.blocks for e in basis]))


def _orthonormalize(elements: Sequence[HermitianElement]) -> list[HermitianElement]:
    """Modified Gram-Schmidt in the Hilbert-Schmidt inner product, two passes
    of _project_out (the basis twice) for numerical orthogonality: the unit
    residuals of the elements, in order, dropping each residual of norm at or
    below the rank cut MAX_EIG_GAP max(1, |element|)."""
    basis: list[HermitianElement] = []
    for el in elements:
        v = _project_out(el.blocks, 2 * [e.blocks for e in basis])
        nv = _hs_norm(v)
        if nv > defaults.MAX_EIG_GAP * max(1.0, el.norm()):
            basis.append(HermitianElement._trusted(el.algebra, [(1.0 / nv) * b for b in v]))
    return basis


def gram_schmidt(elements: Sequence[HermitianElement]) -> list[HermitianElement]:
    """_orthonormalize, rejecting rank-deficient input: a residual norm at or
    below its rank cut."""
    basis = _orthonormalize(elements)
    if len(basis) < len(elements):
        raise ValueError("rank-deficient spanning set in Gram-Schmidt")
    return basis
