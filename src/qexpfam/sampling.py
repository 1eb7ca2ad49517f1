"""Seeded random elements and states for tests and reports."""

from __future__ import annotations

import numpy as np

from .linalg import Algebra, HermitianElement, from_coords, traceless_part
from .states import State


def random_hermitian(
    algebra: Algebra, rng: np.random.Generator, scale: float = 1.0
) -> HermitianElement:
    """Gaussian element of unit typical scale in the coordinate basis."""
    v = rng.normal(size=algebra.real_dim) * scale / np.sqrt(algebra.real_dim)
    return from_coords(algebra, v)


def random_traceless(
    algebra: Algebra, rng: np.random.Generator, scale: float = 1.0
) -> HermitianElement:
    return traceless_part(random_hermitian(algebra, rng, scale))


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from complex Gaussian matrices g (..., m, m): QR,
    phases fixed by R."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x m unitary."""
    return _haar(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))


def random_spectra(
    algebra: Algebra,
    rng: np.random.Generator,
    rows: int,
    invertible: bool = True,
    min_eig: float = 1e-3,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The states of ``rows`` random_state calls in turn, from the same draws,
    as per-block eigenvalue (rows, n_k) and eigenvector (rows, n_k, n_k)
    stacks, unchecked (State._from_spectrum checks them); the QR and eigh run
    once per block, and each row keeps the bits of its own call."""
    n = algebra.dim
    lam, gauss = np.empty((rows, n)), [np.empty((rows, m, m), complex) for m in algebra.block_dims]
    for i in range(rows):
        lam[i] = rng.dirichlet(np.ones(n))
        for g, m in zip(gauss, algebra.block_dims):
            g[i] = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    if invertible:
        lam = (1.0 - n * min_eig) * lam + min_eig
    edges = np.cumsum((0,) + algebra.block_dims)
    values, vectors = [], []
    for g, k, l in zip(gauss, edges, edges[1:]):
        q = _haar(g)
        h = (q * lam[:, None, k:l]) @ q.conj().swapaxes(-1, -2)
        w, V = np.linalg.eigh((h + h.conj().swapaxes(-1, -2)) / 2.0)
        # descending, the order linalg.eigh gives distinct eigenvalues
        values.append(w[:, ::-1])
        vectors.append(np.ascontiguousarray(V[..., ::-1]))
    return values, vectors


def random_state(
    algebra: Algebra,
    rng: np.random.Generator,
    invertible: bool = True,
    min_eig: float = 1e-3,
) -> State:
    """State with Haar-random eigenbasis per block and Dirichlet spectrum.

    With ``invertible`` the spectrum is floored away from zero.
    """
    values, vectors = random_spectra(algebra, rng, 1, invertible, min_eig)
    return State._from_spectrum(algebra, [w[0] for w in values], [V[0] for V in vectors])
