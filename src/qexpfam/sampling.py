"""Seeded random elements, states and families for tests and reports."""

from __future__ import annotations

import numpy as np

from .linalg import Algebra, HermitianElement, from_coords, traceless_part
from .family import ExponentialFamily, make_family
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


def random_unit_traceless(
    algebra: Algebra, rng: np.random.Generator
) -> HermitianElement:
    a = random_traceless(algebra, rng)
    return a / a.norm()


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x m unitary: QR of a complex Gaussian, phases fixed by R."""
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(
    algebra: Algebra,
    rng: np.random.Generator,
    invertible: bool = True,
    min_eig: float = 1e-3,
) -> State:
    """State with Haar-random eigenbasis per block and Dirichlet spectrum.

    With ``invertible`` the spectrum is floored away from zero.
    """
    n = algebra.dim
    lam = rng.dirichlet(np.ones(n))
    if invertible:
        lam = (1.0 - n * min_eig) * lam + min_eig
    blocks, k = [], 0
    for m in algebra.block_dims:
        q = haar_unitary(m, rng)
        blocks.append((q * lam[k : k + m]) @ q.conj().T)
        k += m
    return State(HermitianElement(algebra, blocks))


def random_family(
    algebra: Algebra, dim: int, rng: np.random.Generator
) -> ExponentialFamily:
    """Linear family spanned by ``dim`` random traceless directions."""
    gens = [random_traceless(algebra, rng) for _ in range(dim)]
    return make_family(algebra, gens)
