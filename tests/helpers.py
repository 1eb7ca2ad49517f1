import numpy as np

from qexpfam.linalg import HermitianElement, eigh
from qexpfam.sampling import random_hermitian, random_traceless
from qexpfam.states import Projector, SupportBasis, max_eig_data


def decoupled_pair(algebra, rng, gap_lo=0.6, gap_hi=2.0):
    """(theta, u) with a simple top eigenvalue of u, spectral gap in
    [gap_lo, gap_hi], and theta block-diagonal with respect to the maximal
    projector (no first-order top coupling, so the geodesic limit is reached
    at an exponential rate)."""
    n = algebra.dim
    top = rng.uniform(0.5, 1.5)
    gap = rng.uniform(gap_lo, gap_hi)
    rest = np.sort(rng.uniform(-2.0, 0.0, size=n - 1))[::-1]
    spectrum = np.concatenate([[top], top - gap + rest - rest[0]])
    blocks = []
    k = 0
    for m in algebra.block_dims:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(g)
        blocks.append((q * spectrum[k : k + m]) @ q.conj().T)
        k += m
    u = HermitianElement(algebra, blocks)
    _, p = max_eig_data(u)
    theta = random_traceless(algebra, rng)
    theta = theta / max(1.0, theta.norm())
    dec = []
    for pk, tk, mdim in zip(p.element.blocks, theta.blocks, algebra.block_dims):
        qk = np.eye(mdim) - pk
        dec.append(pk @ tk @ pk + qk @ tk @ qk)
    return HermitianElement(algebra, dec), u


def random_support(algebra, rng, empty_first_block):
    """A spectral projector of rank 1 to N-1 of a random element, optionally
    with nothing of the first block."""
    keep = rng.permutation(algebra.dim) < rng.integers(1, algebra.dim)
    n0 = algebra.block_dims[0]
    if empty_first_block and algebra.n_blocks > 1:
        keep[:n0] = False
        keep[n0 + rng.integers(algebra.dim - n0)] = True
    blocks, k = [], 0
    for V in eigh(random_hermitian(algebra, rng)).eigenvectors:
        q = V[:, keep[k : k + V.shape[1]]]
        blocks.append(q @ q.conj().T)
        k += V.shape[1]
    return SupportBasis(Projector(HermitianElement(algebra, blocks)))
