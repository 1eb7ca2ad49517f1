"""States, projectors, entropies and exposed faces of the state space.

A state is a positive unit-trace self-adjoint element.  Relative entropy is
+infinity when the second argument's image does not contain the first's; the
image test uses one global eigenvalue cutoff so all support decisions in the
package are consistent.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import defaults
from .errors import (
    AlgebraMismatchError,
    NumericalDegeneracyError,
    PreconditionError,
)
from .linalg import (
    Algebra,
    HermitianElement,
    SpectralData,
    eigh,
    hs_inner,
    identity,
    trace_norm,
)


class State:
    """A positive unit-trace element of the algebra.

    Eigenvalues in [-1e-12, 0) are clamped to zero; more negative spectra and
    trace errors beyond 1e-12 are rejected.  The spectral decomposition is
    computed once at construction and reused by entropies and support tests.
    """

    __slots__ = ("element", "spectral", "support_rank")

    def __init__(self, element: HermitianElement):
        spec = eigh(element)
        clamped = []
        for w in spec.eigenvalues:
            if np.any(w < -defaults.STATE_TOL):
                raise ValueError(
                    f"not positive semidefinite (min eigenvalue {w.min():.3e})"
                )
            clamped.append(np.maximum(w, 0.0))
        tr = float(sum(w.sum() for w in clamped))
        if abs(tr - 1.0) > defaults.STATE_TOL * element.algebra.dim:
            raise ValueError(f"trace {tr} is not 1")
        spec = SpectralData(spec.algebra, tuple(clamped), spec.eigenvectors)
        object.__setattr__(self, "spectral", spec)
        object.__setattr__(self, "element", spec.reconstruct())
        rank = int(sum((w > defaults.SUPPORT_CUTOFF).sum() for w in clamped))
        object.__setattr__(self, "support_rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("State is immutable")

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    def is_invertible(self) -> bool:
        return self.support_rank == self.algebra.dim

    def min_eigenvalue(self) -> float:
        return float(min(w.min() for w in self.spectral.eigenvalues))

    def __repr__(self):
        return f"State(dims={self.algebra.block_dims}, rank={self.support_rank})"


class Projector:
    """An orthogonal projector: p^2 = p* = p."""

    __slots__ = ("element", "rank")

    def __init__(self, element: HermitianElement):
        err = 0.0
        rank = 0.0
        for b in element.blocks:
            err = max(err, float(np.linalg.norm(b @ b - b)))
            rank += float(np.trace(b).real)
        if err > defaults.PROJECTOR_TOL * max(1.0, element.norm()):
            raise ValueError(f"not idempotent within tolerance ({err:.3e})")
        if abs(rank - round(rank)) > 1e-9:
            raise ValueError(f"projector trace {rank} is not an integer")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "rank", int(round(rank)))

    def __setattr__(self, name, value):
        raise AttributeError("Projector is immutable")

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    def is_identity(self) -> bool:
        return self.rank == self.algebra.dim

    def same_image(self, other: "Projector", tol: float = defaults.MAX_EIG_GAP) -> bool:
        """Image equality, robust to basis rotation inside degenerate eigenspaces."""
        if self.rank != other.rank:
            return False
        return (self.element - other.element).norm() <= tol

    def contains(self, a: HermitianElement) -> bool:
        """Whether a is supported in pAp, i.e. a = pap within the support cutoff."""
        pap, _ = compress(self, a)
        return (a - pap).norm() <= defaults.SUPPORT_CUTOFF * max(1.0, a.norm())

    def __repr__(self):
        return f"Projector(dims={self.algebra.block_dims}, rank={self.rank})"


def pure_state(algebra: Algebra, block_index: int, vector: np.ndarray) -> State:
    """Rank-one state |v><v| supported in one block."""
    v = np.asarray(vector, dtype=complex)
    v = v / np.linalg.norm(v)
    blocks = [np.zeros((n, n)) for n in algebra.block_dims]
    blocks[block_index] = np.outer(v, v.conj())
    return State(HermitianElement(algebra, blocks))


def tracial_state(algebra: Algebra) -> State:
    return State(identity(algebra) / algebra.dim)


def vn_entropy(rho: State) -> float:
    """Von Neumann entropy -tr(rho ln rho), in [0, ln N]."""
    s = 0.0
    for w in rho.spectral.eigenvalues:
        pos = w[w > 0.0]
        s -= float((pos * np.log(pos)).sum())
    return max(s, 0.0)


def _support_pairs(sigma: State):
    """Eigenpairs of sigma above the support cutoff, per block."""
    out = []
    for w, V in zip(sigma.spectral.eigenvalues, sigma.spectral.eigenvectors):
        keep = w > defaults.SUPPORT_CUTOFF
        out.append((w[keep], V[:, keep]))
    return out


def relative_entropy(rho: State, sigma: State) -> float:
    """Relative entropy tr rho (ln rho - ln sigma).

    Returns +inf unless the image of sigma contains the image of rho (rank
    test with the global eigenvalue cutoff); otherwise evaluates the trace
    formula on the support of sigma.  Nonnegative, zero iff rho = sigma.
    """
    if rho.algebra != sigma.algebra:
        raise AlgebraMismatchError("states belong to different algebras")
    cross = 0.0
    mass = 0.0
    for (w, V), rb in zip(_support_pairs(sigma), rho.element.blocks):
        if w.size == 0:
            continue
        # diagonal of V* rho V: weight of rho on each support eigenvector
        weights = np.einsum("ij,jk,ki->i", V.conj().T, rb, V).real
        weights = np.maximum(weights, 0.0)
        mass += weights.sum()
        cross += float((weights * np.log(w)).sum())
    if mass < 1.0 - defaults.SUPPORT_CUTOFF:
        return float("inf")
    value = -vn_entropy(rho) - cross
    if -1e-10 < value < 0.0:
        value = 0.0
    return value


def support_projector(rho: State) -> Projector:
    """Projector with the same image as rho (eigenvalue cutoff 1e-10)."""
    blocks = [V @ V.conj().T for _, V in _support_pairs(rho)]
    return Projector(HermitianElement(rho.algebra, blocks))


def max_eig_data(u: HermitianElement) -> tuple[float, Projector]:
    """Largest eigenvalue across all blocks and its maximal projector.

    Eigenvalues within the gap tolerance 1e-9 of the maximum are merged into
    one spectral projector.
    """
    spec = eigh(u)
    mu = max(float(w[0]) for w in spec.eigenvalues if w.size)
    blocks = []
    for w, V in zip(spec.eigenvalues, spec.eigenvectors):
        keep = V[:, w >= mu - defaults.MAX_EIG_GAP]
        blocks.append(keep @ keep.conj().T)
    return mu, Projector(HermitianElement(u.algebra, blocks))


def exposed_face_membership(rho: State, u: HermitianElement) -> bool:
    """Whether rho lies in the exposed face of state space cut out by u.

    Two equivalent criteria are evaluated: <rho,u> reaching the maximal
    eigenvalue, and image inclusion in the maximal projector.  They must
    agree; disagreement signals numerical degeneracy and raises.
    """
    if u.norm() == 0.0:
        raise PreconditionError("direction u must be non-zero")
    mu, p = max_eig_data(u)
    by_value = abs(hs_inner(rho.element, u) - mu) <= defaults.FACE_VALUE_TOL
    leak = 1.0 - hs_inner(rho.element, p.element)
    by_image = leak <= defaults.SUPPORT_CUTOFF
    if by_value != by_image:
        raise NumericalDegeneracyError(
            f"face criteria disagree: value-gap {hs_inner(rho.element, u) - mu:.3e}, "
            f"image leak {leak:.3e}"
        )
    return by_value


def compress(p: Projector, a: HermitianElement) -> tuple[HermitianElement, HermitianElement]:
    """Compression to the corner algebra pAp.

    Returns the pair (p a p, c^p(a)) where c^p(a) = pap - p tr(pa)/tr(p) is
    the trace-zero part of the compression.  Values are kept in the ambient
    matrices (identity p), so the embedding pAp -> A stays trace preserving.
    """
    if p.rank == 0:
        raise PreconditionError("cannot compress by the zero projector")
    if p.algebra != a.algebra:
        raise AlgebraMismatchError("projector and element in different algebras")
    pap = HermitianElement(
        p.algebra, [pb @ ab @ pb for pb, ab in zip(p.element.blocks, a.blocks)]
    )
    shift = hs_inner(p.element, a) / p.rank
    cp = pap - shift * p.element
    return pap, cp


def pinsker_gap(rho: State, sigma: State) -> float:
    """S(rho,sigma) - ||rho-sigma||_1^2 / 2, nonnegative for all state pairs.

    This is the standard-constant form of the Pinsker-Csiszar inequality; it
    is what certifies that entropy-distance-zero states are norm limits.
    """
    s = relative_entropy(rho, sigma)
    t = trace_norm(rho.element - sigma.element)
    return s - 0.5 * t * t


# -- support-restricted calculus ----------------------------------------------
#
# Functions carrying a superscript p in the compressed algebra pAp: computed
# on an orthonormal basis of Im(p) per block, results re-embedded in the
# ambient matrices.


class SupportBasis:
    """Orthonormal columns spanning Im(p) per block; carrier for pAp calculus."""

    __slots__ = ("projector", "columns")

    def __init__(self, projector: Projector):
        cols = []
        for b, n in zip(projector.element.blocks, projector.algebra.block_dims):
            w, V = np.linalg.eigh(b)
            keep = V[:, w > 0.5]
            cols.append(np.ascontiguousarray(keep))
        object.__setattr__(self, "projector", projector)
        object.__setattr__(self, "columns", tuple(cols))

    def __setattr__(self, name, value):
        raise AttributeError("SupportBasis is immutable")

    @property
    def algebra(self) -> Algebra:
        return self.projector.algebra

    @property
    def rank(self) -> int:
        return self.projector.rank

    def restrict(self, a: HermitianElement) -> list[np.ndarray]:
        """Per-block r_k x r_k matrices Q* a Q."""
        return [q.conj().T @ b @ q for q, b in zip(self.columns, a.blocks)]

    def embed(self, small: list[np.ndarray]) -> HermitianElement:
        blocks = []
        for q, s, n in zip(self.columns, small, self.algebra.block_dims):
            if q.shape[1] == 0:
                blocks.append(np.zeros((n, n)))
            else:
                blocks.append(q @ s @ q.conj().T)
        return HermitianElement(self.algebra, blocks)


@lru_cache(maxsize=None)
def full_support(algebra: Algebra) -> SupportBasis:
    """The identity support basis, built once per algebra."""
    return SupportBasis(Projector(identity(algebra)))


def restricted_eigh(a: HermitianElement, support: SupportBasis):
    """Eigen-decomposition of a within Im(p): per-block (values desc, Q-columns)."""
    out = []
    for q, small in zip(support.columns, support.restrict(a)):
        if q.shape[1] == 0:
            out.append((np.zeros(0), q))
            continue
        w, Y = np.linalg.eigh(small)
        order = np.argsort(w)[::-1]
        out.append((w[order], q @ Y[:, order]))
    return out


def log_on_support(rho: State) -> HermitianElement:
    """ln^p(rho) on the support of rho, zero on the kernel."""
    blocks = [(V * np.log(w)) @ V.conj().T for w, V in _support_pairs(rho)]
    return HermitianElement(rho.algebra, blocks)
