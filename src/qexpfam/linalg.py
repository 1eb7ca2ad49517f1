"""Hermitian linear algebra on block-diagonal matrix algebras.

The ambient *-algebra is a finite direct sum of full complex matrix blocks
Mat(n_1) + ... + Mat(n_m).  Elements are stored block-wise; all operations
(inner products, spectral decompositions, matrix functions, Frechet
derivatives) act block by block.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def is_abelian(self) -> bool:
        return all(n == 1 for n in self.block_dims)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


class HermitianElement:
    """A self-adjoint element of a block-diagonal matrix algebra.

    Construction symmetrizes the input, (a + a*)/2, and rejects it when the
    anti-Hermitian correction is larger than round-off tolerance.
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
        """Internal constructor for sums, real multiples and eigen-
        reconstructions of elements.

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


def coords(a: HermitianElement) -> np.ndarray:
    out = []
    for b in a.blocks:
        n = b.shape[0]
        out.extend(b[i, i].real for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                out.append(np.sqrt(2.0) * b[i, j].real)
                out.append(-np.sqrt(2.0) * b[i, j].imag)
    return np.asarray(out, dtype=float)


def from_coords(algebra: Algebra, v: np.ndarray) -> HermitianElement:
    v = np.asarray(v, dtype=float)
    if v.shape != (algebra.real_dim,):
        raise AlgebraMismatchError(f"expected {algebra.real_dim} coordinates")
    blocks, k = [], 0
    for n in algebra.block_dims:
        b = np.zeros((n, n), dtype=complex)
        for i in range(n):
            b[i, i] = v[k]
            k += 1
        for i in range(n):
            for j in range(i + 1, n):
                re, im = v[k], v[k + 1]
                k += 2
                b[i, j] = (re - 1j * im) / np.sqrt(2.0)
                b[j, i] = (re + 1j * im) / np.sqrt(2.0)
        blocks.append(b)
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
    """Matrix logarithm; requires a strictly positive spectrum."""
    spec = eigh(a)
    for w in spec.eigenvalues:
        if np.any(w <= 0):
            raise DomainError("logarithm requires a positive definite element")
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
        """Ranks and blocks of the maximal projectors (merge gap MAX_EIG_GAP),
        built and symmetrized as states.max_eig_data builds them, bit for bit."""
        threshold = (self.top() - defaults.MAX_EIG_GAP)[:, None]
        ranks, blocks = 0, []
        for w, V in zip(self.values, self.vectors):
            order, r = np.argsort(w, axis=-1)[:, ::-1], (w >= threshold).sum(axis=1)
            P = np.zeros(V.shape, dtype=complex)
            for rank in np.unique(r[r > 0]):
                idx = np.flatnonzero(r == rank)
                keep = np.take_along_axis(V[idx], order[idx, None, :rank], axis=-1)
                P[idx] = keep @ keep.conj().swapaxes(-1, -2)
            ranks = ranks + r
            blocks.append((P + P.conj().swapaxes(-1, -2)) / 2.0)
        return ranks, blocks


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

    def locate_crossings(self, lo, hi, m) -> np.ndarray:
        """Ternary searches for an eigenvalue crossing in each bracket
        (lo[j], hi[j]) on top_gap(m[j]), the gap below the top m[j]
        eigenvalues, down to width SWEEP_CROSSING_TOL, run in lockstep: each
        step is one spectra call over the live brackets.  NaN where the gap
        does not close to MAX_EIG_GAP."""
        lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
        m = np.asarray(m)
        if not lo.size:
            return lo
        for _ in range(200):
            live = np.flatnonzero(hi - lo >= defaults.SWEEP_CROSSING_TOL)
            if not live.size:
                break
            third = (hi[live] - lo[live]) / 3.0
            m1, m2 = lo[live] + third, hi[live] - third
            g = self.spectra(np.concatenate([m1, m2])).top_gap(np.tile(m[live], 2))
            left = g[:live.size] <= g[live.size:]
            hi[live[left]], lo[live[~left]] = m2[left], m1[~left]
        alpha = 0.5 * (lo + hi)
        return np.where(self.spectra(alpha).top_gap(m) <= defaults.MAX_EIG_GAP, alpha, np.nan)

    def crossings(self, alphas, spectra: SweepSpectra) -> np.ndarray:
        """Angles between adjacent angles of the sorted grid alphas
        (cyclically; spectra is its sweep) where the top eigenvalue branch
        crosses another, located by locate_crossings.

        An interval is bracketed when the maximal projector jumps across it,
        tr(P_j P_j+1) < min(rank_j, rank_j+1) / 2: a crossing swaps the top
        eigenspace for an orthogonal one, also where one branch stays
        multiple, while a smooth step or a crossing on a grid angle keeps the
        overlap near full.  The search runs on the gap below the larger rank.
        Of two crossings in one interval at most one is found.
        """
        ranks, P = spectra.max_projectors()
        overlap = sum(np.sum(B * np.roll(B, -1, axis=0).conj(), axis=(1, 2)).real for B in P)
        ranks_next = np.roll(ranks, -1)
        j = np.flatnonzero(overlap < 0.5 * np.minimum(ranks, ranks_next))
        lo = np.asarray(alphas, dtype=float)
        hi = np.append(lo[1:], lo[0] + 2.0 * np.pi)
        found = self.locate_crossings(lo[j], hi[j], np.maximum(ranks, ranks_next)[j])
        return found[~np.isnan(found)]


# -- Frechet derivatives of matrix functions ----------------------------------


def divided_differences(
    w: np.ndarray, f: Callable, fprime: Callable
) -> np.ndarray:
    """First divided difference table f[w_i, w_j], with f' on the diagonal
    and on pairs closer than the degeneracy threshold."""
    diff = w[:, None] - w[None, :]
    close = np.abs(diff) < defaults.DIVIDED_DIFF_DEGENERACY
    safe = np.where(close, 1.0, diff)
    with np.errstate(all="ignore"):
        fw = f(w)
        table = (fw[:, None] - fw[None, :]) / safe
        table = np.where(close, fprime((w[:, None] + w[None, :]) / 2.0), table)
    if not np.all(np.isfinite(table)):
        raise DomainError("divided differences not finite on spectrum")
    return table


def frechet_block(
    w: np.ndarray, V: np.ndarray, b: np.ndarray, f: Callable, fprime: Callable
) -> np.ndarray:
    """One block of the Daleckii-Krein derivative, V (f[w_i,w_j] * V* b V) V*,
    for eigenpairs (w, V) given as columns."""
    table = divided_differences(w, f, fprime)
    return V @ (table * (V.conj().T @ b @ V)) @ V.conj().T


def frechet_derivative(
    a: HermitianElement,
    b: HermitianElement,
    f: Callable,
    fprime: Callable,
) -> HermitianElement:
    """Derivative of the matrix function f at a in direction b.

    Computed in the eigenbasis of a as the Schur product of f's first divided
    differences with the rotated direction (Daleckii-Krein).  Linear in b and
    symmetric: <Df(a)[b], c> = <b, Df(a)[c]>.
    """
    if a.algebra != b.algebra:
        raise AlgebraMismatchError("operands belong to different algebras")
    spec = eigh(a)
    blocks = [
        frechet_block(w, V, bb, f, fprime)
        for w, V, bb in zip(spec.eigenvalues, spec.eigenvectors, b.blocks)
    ]
    return HermitianElement(a.algebra, blocks)


def dexp(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix exponential at a in direction b."""
    return frechet_derivative(a, b, np.exp, np.exp)


def dlog(a: HermitianElement, b: HermitianElement) -> HermitianElement:
    """Derivative of the matrix logarithm at a (positive definite) in direction b."""
    spec = eigh(a)
    for w in spec.eigenvalues:
        if np.any(w <= 0):
            raise DomainError("log derivative requires a positive definite element")
    return frechet_derivative(a, b, np.log, np.reciprocal)


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
