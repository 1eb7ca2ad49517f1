"""States, projectors, entropies and exposed faces of the state space.

A state is a positive unit-trace self-adjoint element with its spectral
decomposition; Gibbs and pure states are built from their eigenpairs.
Relative entropy is +infinity when the second argument's image does not
contain the first's; the image test uses one global eigenvalue cutoff so all
support decisions in the package are consistent.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce

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
    _fro,
    _inner_rows,
    _reconstruct_stack,
    _sym,
    eigh,
    identity,
    size_groups,
    stack_groups,
    top_eigenspace,
    trace_norm,
)


class State:
    """A positive unit-trace element of the algebra.

    Eigenvalues in [-1e-12, 0) are clamped to zero; more negative spectra and
    trace errors beyond 1e-12 are rejected.  The spectral decomposition is
    computed once at construction and reused by entropies and support tests.
    _from_spectrum runs the same checks on eigenpairs already in hand.
    """

    __slots__ = ("element", "spectral", "support_rank")

    def __init__(self, element: HermitianElement):
        spec = eigh(element)
        self._fill(spec.algebra, spec.eigenvalues, spec.eigenvectors)

    @classmethod
    def _from_spectrum(cls, algebra: Algebra, values, vectors) -> "State":
        """From per-block eigenvalues (descending) and complete eigenvectors."""
        out = object.__new__(cls)
        out._fill(algebra, values, vectors)
        return out

    def _fill(self, algebra: Algebra, values, vectors):
        clamped = _state_spectrum(algebra, values)
        spec = SpectralData(algebra, tuple(clamped), tuple(vectors))
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

    def __repr__(self):
        return f"State(dims={self.algebra.block_dims}, rank={self.support_rank})"


def _state_spectrum(algebra: Algebra, values) -> list[np.ndarray]:
    """A state's per-block eigenvalues, checked: values in [-1e-12, 0) are
    clamped to zero; more negative ones, NaN and trace errors beyond 1e-12 raise.
    The blocks may also be stacks of rows, one state per row."""
    low = float(reduce(np.minimum, [w.min(initial=0.0) for w in values]))  # NaN propagates
    if not low >= -defaults.STATE_TOL:
        raise ValueError(f"not positive semidefinite (min eigenvalue {low:.3e})")
    clamped = [np.maximum(w, 0.0) for w in values]
    tr = sum(w.sum(axis=-1) for w in clamped)
    if not (abs(tr - 1.0) <= defaults.STATE_TOL * algebra.dim).all():
        raise ValueError(f"trace {tr} is not 1")
    return clamped


class Projector:
    """An orthogonal projector: p^2 = p* = p.

    It also carries the pAp calculus: the orthonormal columns spanning Im(p)
    per block, and the kernel columns that complete them, come from one eigh
    per block on first use and are kept.  _trusted skips the checks for V_r V_r*
    of eigenvectors in hand (support_projector, max_eig_data, _exposed_face,
    AtlasGroup.projector) and for P - q past the corner check of rho
    (_exposing_direction); sums stay checked, where the check guards.
    """

    def __init__(self, element: HermitianElement):
        err = 0.0
        rank = 0.0
        for b in element.blocks:
            err = max(err, _fro(b @ b - b))
            rank += float(b.trace().real)
        cut = defaults.PROJECTOR_TOL  # the norm only above the cut
        if err > cut and err > cut * max(1.0, element.norm()):
            raise ValueError(f"not idempotent within tolerance ({err:.3e})")
        if abs(rank - round(rank)) > 1e-9:
            raise ValueError(f"projector trace {rank} is not an integer")
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "rank", int(round(rank)))

    @classmethod
    def _trusted(cls, element: HermitianElement, rank: int) -> "Projector":
        """The projector V_r V_r* of r orthonormal columns, unchecked."""
        out = object.__new__(cls)
        vars(out).update(element=element, rank=rank)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Projector is immutable")

    @property
    def algebra(self) -> Algebra:
        return self.element.algebra

    @cached_property
    def _eigh(self) -> list:
        return [np.linalg.eigh(b) for b in self.element.blocks]

    @cached_property
    def columns(self) -> tuple[np.ndarray, ...]:
        """Orthonormal columns spanning Im(p), per block."""
        return tuple(np.ascontiguousarray(V[:, w > 0.5]) for w, V in self._eigh)

    @cached_property
    def kernel(self) -> tuple[np.ndarray, ...]:
        """Orthonormal columns spanning the kernel of p, per block."""
        return tuple(np.ascontiguousarray(V[:, w <= 0.5]) for w, V in self._eigh)

    @cached_property
    def grouped_columns(self) -> tuple[tuple, tuple[np.ndarray, ...]]:
        """size_groups of the blocks by (n_k, r_k), the shapes of columns, and
        the columns stacked (g, n_k, r_k) per group."""
        layout = size_groups(tuple(q.shape for q in self.columns))
        return layout, tuple(stack_groups(self.columns, layout[0]))

    def restrict(self, blocks) -> list[np.ndarray]:
        """Per-block r_k x r_k matrices Q* b Q of blocks, or of stacks of them."""
        return [q.conj().T @ b @ q for q, b in zip(self.columns, blocks)]

    def embed(self, small: list[np.ndarray]) -> HermitianElement:
        return HermitianElement._trusted(
            self.algebra, [q @ s @ q.conj().T for q, s in zip(self.columns, small)])

    def contains(self, a: HermitianElement) -> bool:
        """Whether a is supported in pAp, i.e. a = pap within the support cutoff."""
        pap, _ = compress(self, a)
        return (a - pap).norm() <= defaults.SUPPORT_CUTOFF * max(1.0, a.norm())

    def __repr__(self):
        return f"Projector(dims={self.algebra.block_dims}, rank={self.rank})"


def pure_state(algebra: Algebra, block_index: int, vector: np.ndarray) -> State:
    """Rank-one state |v><v| supported in one block."""
    v = np.asarray(vector, dtype=complex) / np.linalg.norm(vector)
    # complete v to an orthonormal basis: the other columns of a QR of [v, I]
    rest = np.linalg.qr(np.column_stack([v, np.eye(len(v))]))[0][:, 1:]
    return _rank_one_state(algebra, block_index, np.column_stack([v, rest]))


def _rank_one_spectrum(algebra: Algebra, block_index: int, columns: np.ndarray):
    """Per-block eigenvalues and eigenvectors of the pure state on the first
    of the orthonormal ``columns`` of one block (or on each of a stack)."""
    values = [np.zeros(n) for n in algebra.block_dims]
    vectors = [np.eye(n, dtype=complex) for n in algebra.block_dims]
    values[block_index][0] = 1.0
    vectors[block_index] = columns
    return values, vectors


def _rank_one_state(algebra: Algebra, block_index: int, columns: np.ndarray) -> State:
    """The pure state on the first of the orthonormal ``columns`` of one block."""
    return State._from_spectrum(algebra, *_rank_one_spectrum(algebra, block_index, columns))


def _state_blocks(algebra: Algebra, values, vectors) -> list[np.ndarray]:
    """The element blocks of State._from_spectrum for each row of stacked
    eigenvectors and per-row (or shared) eigenvalues, with its checks, bit for bit."""
    return [_reconstruct_stack(w, V) for w, V in zip(_state_spectrum(algebra, values), vectors)]


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
    return Projector._trusted(HermitianElement._trusted(rho.algebra, blocks), rho.support_rank)


def _maximal_projector(u: HermitianElement) -> tuple[float, int, list[np.ndarray]]:
    """mu = max eig u, the rank of its maximal projector and per block V_r V_r*
    (before _sym) of the r_k top eigenvectors (top_eigenspace): one eigh."""
    spec = eigh(u)
    mu, ranks = top_eigenspace(spec.eigenvalues)
    out = [V[:, :r] @ V[:, :r].conj().T for V, r in zip(spec.eigenvectors, ranks)]
    return float(mu), int(sum(ranks)), out


def max_eig_data(u: HermitianElement) -> tuple[float, Projector]:
    """Largest eigenvalue across all blocks and its maximal projector."""
    mu, rank, blocks = _maximal_projector(u)
    return mu, Projector._trusted(HermitianElement._trusted(u.algebra, blocks), rank)


def _on_faces(rho, u, p, mu) -> np.ndarray:
    """The one face decision, row by row of per-block stacks or on one
    element's blocks: whether rho is on the exposed face of u, top eigenvalue
    mu and maximal projector p.  <rho,u> = mu must agree with 1 - tr(rho p) =
    0, else NumericalDegeneracyError."""
    gap, leak = _inner_rows(rho, u) - mu, 1.0 - _inner_rows(rho, p)
    by_value = abs(gap) <= defaults.FACE_VALUE_TOL
    bad = by_value != (leak <= defaults.SUPPORT_CUTOFF)
    if bad.any():
        gap, leak = (np.ravel(x)[np.argmax(bad)] for x in (gap, leak))
        raise NumericalDegeneracyError(
            f"face criteria disagree: value-gap {gap:.3e}, image leak {leak:.3e}")
    return by_value


def _exposed_face(rho: State, u: HermitianElement, below: float = np.inf) -> Projector | None:
    """The maximal projector p of a non-zero u if its rank is below ``below``
    and rho is on u's exposed face, else None: one eigh of u, then rho as the
    one row of _on_faces, the decision the inclusion chain makes on its
    stacked samples; only a face holding rho gets a Projector."""
    mu, rank, blocks = _maximal_projector(u)
    if rank >= below:
        return None
    p = HermitianElement._trusted(u.algebra, blocks)
    on_face = _on_faces(rho.element.blocks, u.blocks, p.blocks, mu)
    return Projector._trusted(p, rank) if on_face else None


def exposed_face_membership(rho: State, u: HermitianElement) -> bool:
    """Whether rho lies in the exposed face of state space cut out by u.

    Two equivalent criteria are evaluated: <rho,u> reaching the maximal
    eigenvalue, and image inclusion in the maximal projector.  They must
    agree; disagreement signals numerical degeneracy and raises.
    """
    if u.norm() == 0.0:
        raise PreconditionError("direction u must be non-zero")
    return _exposed_face(rho, u) is not None


def _compress_blocks(p_blocks, rank, a_blocks) -> tuple[list, list]:
    """The blocks of pap and c^p(a) = pap - p tr(pa)/rank, symmetrized step by
    step as element arithmetic would, each row with the bits of its own
    compression.  Leading axes broadcast: p's blocks (K, 1, n_k, n_k) with
    ranks (K, 1) and a's stacks (m, n_k, n_k) give rows (K, m, n_k, n_k)."""
    pap = [_sym(pb @ ab @ pb) for pb, ab in zip(p_blocks, a_blocks)]
    shift = (_inner_rows(p_blocks, a_blocks) / rank)[..., None, None]
    return pap, [_sym(x - _sym(shift * pb)) for x, pb in zip(pap, p_blocks)]


def compress(p: Projector, a: HermitianElement) -> tuple[HermitianElement, HermitianElement]:
    """Compression to the corner algebra pAp.

    Returns the pair (p a p, c^p(a)) where c^p(a) = pap - p tr(pa)/tr(p) is
    the trace-zero part of the compression.  Values are kept in the ambient
    matrices (identity p), so the embedding pAp -> A stays trace preserving.
    The preconditions are checked here; the arithmetic is _compress_blocks.
    """
    if p.rank == 0:
        raise PreconditionError("cannot compress by the zero projector")
    if p.algebra != a.algebra:
        raise AlgebraMismatchError("projector and element in different algebras")
    pap, cp = _compress_blocks(p.element.blocks, p.rank, a.blocks)
    return HermitianElement._trusted(p.algebra, pap), HermitianElement._trusted(p.algebra, cp)


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


@lru_cache(maxsize=None)
def full_support(algebra: Algebra) -> Projector:
    """The identity projector, built once per algebra."""
    return Projector(identity(algebra))


def log_on_support(rho: State) -> HermitianElement:
    """ln^p(rho) on the support of rho, zero on the kernel."""
    blocks = [(V * np.log(w)) @ V.conj().T for w, V in _support_pairs(rho)]
    return HermitianElement._trusted(rho.algebra, blocks)
