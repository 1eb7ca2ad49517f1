"""The shared numerical kernels: Gibbs state, project-out and support tests."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qexpfam.family import exp1, free_energy
from qexpfam.linalg import (
    Algebra,
    HermitianElement,
    eigh,
    expm,
    gram_schmidt,
    hs_inner,
    identity,
    project_out,
)
from qexpfam.sampling import random_hermitian, random_traceless
from qexpfam.states import Projector, compress

# random block algebras of total dimension <= 6; derandomized so the suite
# sees the same examples on every run
block_dims = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda dims: sum(dims) <= 6
)
seeds = st.integers(0, 2**32 - 1)
kernel_settings = settings(derandomize=True, deadline=None, max_examples=60)


@kernel_settings
@given(block_dims, seeds, st.floats(0.1, 4.0))
def test_gibbs_matches_matrix_exponential(dims, seed, scale):
    algebra = Algebra(tuple(dims))
    a = random_hermitian(algebra, np.random.default_rng(seed), scale)
    e = expm(a)
    want = np.log(e.trace())
    value, _ = free_energy(a)
    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
    gibbs = e / e.trace()
    assert (exp1(a).element - gibbs).norm() <= 1e-12 * gibbs.norm()


@kernel_settings
@given(block_dims, seeds, st.integers(1, 5))
def test_project_out_is_orthogonal_to_basis(dims, seed, k):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    basis = gram_schmidt(
        [random_hermitian(algebra, rng) for _ in range(min(k, algebra.real_dim))]
    )
    a = random_hermitian(algebra, rng, 3.0)
    r = project_out(a, basis)
    for e in basis:
        assert abs(hs_inner(r, e)) <= 1e-12 * max(1.0, a.norm())


@kernel_settings
@given(block_dims.filter(lambda dims: sum(dims) >= 2), seeds)
def test_projector_contains_its_corner_only(dims, seed):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    # a proper, non-zero spectral projector of a random element
    keep = rng.permutation(algebra.dim) < rng.integers(1, algebra.dim)
    blocks, k = [], 0
    for V in eigh(random_hermitian(algebra, rng)).eigenvectors:
        q = V[:, keep[k : k + V.shape[1]]]
        blocks.append(q @ q.conj().T)
        k += V.shape[1]
    p = Projector(HermitianElement(algebra, blocks))
    pap, _ = compress(p, random_hermitian(algebra, rng, 3.0))
    assert p.contains(pap)
    assert not p.contains(pap + (identity(algebra) - p.element))


def test_free_energy_decomposes_each_block_twice(monkeypatch, rng):
    real_eigh = np.linalg.eigh
    for dims in [(2, 1), (3, 2, 1), (4, 4, 4, 4)]:
        algebra = Algebra(dims)
        a = random_traceless(algebra, rng)
        free_energy(a)  # builds the algebra's identity support basis once
        calls = []

        def counting_eigh(m, *args, **kwargs):
            calls.append(np.shape(m))
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        free_energy(a)
        monkeypatch.undo()
        # per block: one decomposition of a, one in the State constructor
        assert len(calls) == 2 * algebra.n_blocks
