"""The shared numerical kernels: Gibbs state, project-out and support tests."""

import dataclasses
from collections import namedtuple
from functools import reduce

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_family, random_support
from qexpfam import family as family_mod
from qexpfam.defaults import PARAM_CAP, SOLVER_TOL
from qexpfam.family import (
    _bkm_hessian,
    _exposing_direction,
    _gibbs,
    _gibbs_spectra,
    _newton,
    _newton_setup,
    _objective_pieces,
    _project_ladder,
    exp1,
    free_energy,
    make_compressed_family,
    mean_value_projection,
    project_to_family,
)
from qexpfam.linalg import (
    Algebra,
    HermitianElement,
    _reconstruct_stack,
    divided_differences,
    eigh,
    expm,
    gram_schmidt,
    hs_inner,
    identity,
    project_out,
)
from qexpfam.sampling import random_hermitian, random_state, random_traceless
from qexpfam.states import (
    Projector,
    State,
    _state_spectrum,
    compress,
    full_support,
    max_eig_data,
)

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
@given(block_dims.filter(lambda dims: sum(dims) >= 2), seeds, st.integers(1, 4),
       st.sampled_from(["full", "compressed", "empty-block"]))
def test_stacked_gibbs_rows_equal_one_element_calls(dims, seed, rows, kind):
    # each row of one stacked kernel call has the bits of its own call: F, the
    # weights, and the state blocks exp1 builds; compressed families pad their
    # kernel columns, and "empty-block" keeps nothing of the first block
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    fam = random_family(algebra, int(rng.integers(1, algebra.real_dim)), rng)
    if kind != "full":
        fam = make_compressed_family(
            fam, random_support(algebra, rng, kind == "empty-block"))
    elements = [fam.parameter_element(rng.normal(scale=3.0, size=fam.dim))
                for _ in range(rows)]
    stack = [np.stack(b) for b in zip(*(a.blocks for a in elements))]
    gibbs = _gibbs(stack, fam.support)
    weights = gibbs.per_block(gibbs.weights)
    values, vectors = _gibbs_spectra(fam.support, gibbs)
    states = [_reconstruct_stack(w, V) for w, V in zip(_state_spectrum(algebra, values), vectors)]
    for i, a in enumerate(elements):
        one = _gibbs(a.blocks, fam.support)
        assert gibbs.free[i].tobytes() == one.free.tobytes()
        assert [x[i].tobytes() for x in weights] == _bits(one.per_block(one.weights))
        assert [x[i].tobytes() for x in states] == _bits(exp1(a, fam.support).element)


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


def test_free_energy_decomposes_each_block_once(monkeypatch, rng):
    real_eigh = np.linalg.eigh
    for dims in [(2, 1), (3, 2, 1), (4, 4, 4, 4)]:
        algebra = Algebra(dims)
        a = random_traceless(algebra, rng)
        calls = []

        def counting_eigh(m, *args, **kwargs):
            calls.append(np.shape(m))
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        free_energy(a)
        monkeypatch.undo()
        # one decomposition of a per block, one stacked call per block size;
        # the state is built from it
        sizes = sorted(set(dims), key=dims.index)
        assert calls == [(dims.count(n), n, n) for n in sizes]


def test_newton_builds_no_validated_element_or_state(monkeypatch, rng):
    fam = random_family(Algebra((4, 4, 4, 4)), 6, rng)
    for rows in (1, 3):  # one state alone, and a stack of states
        rhos = [random_state(fam.algebra, rng) for _ in range(rows)]
        moments, _ = _newton_setup(rhos, fam)
        built = []
        for cls in (HermitianElement, State):
            def init(self, *args, _real=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _real(self, *args)
            monkeypatch.setattr(cls, "__init__", init)
        solved = _newton(fam, moments, SOLVER_TOL, (PARAM_CAP,))
        monkeypatch.undo()
        assert len(solved) == rows and all(end.iterations > 0 for end, in solved)
        assert built == []


SPY_FAMILIES = [((16,), 12), ((4, 4, 4, 4), 6), ((2, 1), 2), ((1, 2, 1), 3),
                ((1, 1, 1, 1, 1), 3)]


@pytest.mark.parametrize("dims, dim", SPY_FAMILIES)
def test_solve_builds_one_state_and_decomposes_once_per_evaluation(monkeypatch, dims, dim):
    fam = random_family(Algebra(dims), dim, np.random.default_rng(sum(dims) + dim))
    rho = random_state(fam.algebra, np.random.default_rng(dim), invertible=True, min_eig=1e-2)
    states, evaluations, eighs = [], [], []
    init, from_spectrum = State.__init__, State._from_spectrum.__func__
    pieces, real_eigh = family_mod._objective_pieces, np.linalg.eigh

    def spy(calls, fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(State, "__init__", spy(states, init))
    monkeypatch.setattr(State, "_from_spectrum", classmethod(spy(states, from_spectrum)))
    monkeypatch.setattr(family_mod, "_objective_pieces", spy(evaluations, pieces))
    monkeypatch.setattr(np.linalg, "eigh", spy(eighs, real_eigh))
    res = project_to_family(rho, fam)
    assert res.attained and res.iterations > 0
    # the solve builds no State; sigma* is built on its first read, once
    assert len(states) == 0
    sigma = res.sigma_star
    assert len(states) == 1
    assert res.sigma_star is sigma and len(states) == 1
    monkeypatch.undo()
    # one eigh per block size and objective evaluation; the Hessian and the
    # Gibbs state reuse the evaluation's eigenpairs
    assert len(eighs) == len(evaluations) * len(set(dims))
    moments = mean_value_projection(rho.element, fam)
    residual = np.linalg.norm(mean_value_projection(res.sigma_star.element, fam) - moments)
    assert abs(res.grad_residual - residual) <= 1e-12


def _result_bytes(res):
    """Every compared field of a ProjectionResult as bytes, then sigma*."""
    fields = [np.asarray(getattr(res, f.name)).tobytes()
              for f in dataclasses.fields(res) if f.compare]
    return fields + _bits(res.sigma_star.element)


@pytest.mark.parametrize("dims, dim", SPY_FAMILIES)
def test_second_solve_starts_from_the_cached_origin(monkeypatch, dims, dim):
    # the evaluation at theta = 0 depends on the family only: a second solve
    # in the family skips it and keeps the bits of a solve in a fresh family
    fam = random_family(Algebra(dims), dim, np.random.default_rng(sum(dims) + dim))
    rho = random_state(fam.algebra, np.random.default_rng(dim), invertible=True, min_eig=1e-2)
    pieces, calls, counts, results = family_mod._objective_pieces, [], [], []

    def counted(*args):
        calls.append(1)
        return pieces(*args)

    monkeypatch.setattr(family_mod, "_objective_pieces", counted)
    for family in (fam, fam, dataclasses.replace(fam)):
        calls.clear()
        results.append(project_to_family(rho, family))
        counts.append(len(calls))
    monkeypatch.undo()
    assert counts[1] == counts[0] - 1 and counts[2] == counts[0]
    assert _result_bytes(results[1]) == _result_bytes(results[2])


@pytest.mark.parametrize("dims, dim", SPY_FAMILIES)
def test_solve_takes_one_gibbs_exp_per_block_and_evaluation(monkeypatch, dims, dim):
    # the objective, the means and the final state share one np.exp per block
    # size and evaluation; every other exp is one of the Hessian's divided
    # difference tables, one per block size
    fam = random_family(Algebra(dims), dim, np.random.default_rng(sum(dims) + dim))
    rho = random_state(fam.algebra, np.random.default_rng(dim), invertible=True, min_eig=1e-2)
    exps, evaluations, tables = [], [], []
    real_exp, pieces, real_tables = np.exp, family_mod._objective_pieces, divided_differences

    def spy(calls, fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np, "exp", spy(exps, real_exp))
    monkeypatch.setattr(family_mod, "_objective_pieces", spy(evaluations, pieces))
    monkeypatch.setattr(family_mod, "divided_differences", spy(tables, real_tables))
    res = project_to_family(rho, fam)
    monkeypatch.undo()
    assert res.attained and res.iterations > 0 and tables
    assert len(tables) % len(set(dims)) == 0
    assert len(exps) == len(evaluations) * len(set(dims)) + len(tables)


@pytest.mark.parametrize("dims, dim", SPY_FAMILIES)
def test_stacked_solve_decomposes_once_per_group_and_evaluation(monkeypatch, dims, dim):
    # K states in one loop: one eigh per block size and evaluation whatever
    # K is, no State inside the loop, and the theta = 0 evaluation once per
    # family, not once per state
    fam = random_family(Algebra(dims), dim, np.random.default_rng(sum(dims) + dim))
    rhos = [random_state(fam.algebra, np.random.default_rng(dim + k), invertible=True,
                         min_eig=1e-2) for k in range(5)]
    states, evaluations, eighs = [], [], []
    init, from_spectrum = State.__init__, State._from_spectrum.__func__
    pieces, real_eigh = family_mod._objective_pieces, np.linalg.eigh

    def spy(calls, fn):
        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(State, "__init__", spy(states, init))
    monkeypatch.setattr(State, "_from_spectrum", classmethod(spy(states, from_spectrum)))
    monkeypatch.setattr(family_mod, "_objective_pieces", spy(evaluations, pieces))
    monkeypatch.setattr(np.linalg, "eigh", spy(eighs, real_eigh))

    def solve():
        return [res for res, in _project_ladder(
            rhos, fam, (PARAM_CAP,), lambda k: _exposing_direction(rhos[k], fam) is not None)]

    at_origin = []
    for _ in range(2):  # a fresh family, then its cached origin
        evaluations.clear()
        results = solve()
        at_origin.append(sum(not np.any(theta) for _, theta, _ in evaluations))
        assert len(states) == 0 and all(r.attained for r in results)
    assert at_origin == [1, 0]
    # the rows of one evaluation share its eigh calls
    assert max(len(theta) for _, theta, _ in evaluations) == len(rhos)
    eighs.clear()
    evaluations.clear()
    solve()
    monkeypatch.undo()
    assert len(eighs) == len(evaluations) * len(set(dims))
    assert len(evaluations) < sum(r.iterations for r in results)


@pytest.mark.parametrize("compressed", [False, True], ids=["full", "compressed"])
@pytest.mark.parametrize("dims, dim", SPY_FAMILIES)
def test_solved_family_reuses_its_first_newton_step(monkeypatch, dims, dim, compressed):
    # the Hessian at theta = 0 and its eigvalsh depend on the family only: a
    # single solve, a 3-row stacked solve and a 4-cap ladder in a family that
    # has already solved once make one call of each fewer than in a fresh
    # family, with the same bits
    fam = random_family(Algebra(dims), dim, np.random.default_rng(sum(dims) + dim))
    rng = np.random.default_rng(dim)
    faces = [max_eig_data(fam.tangent_element(rng.normal(size=fam.dim)))[1] for _ in range(2)]
    if compressed:  # members of the family in the complement of a face
        fam = make_compressed_family(
            fam, Projector(full_support(fam.algebra).element - faces[1].element))
        rhos = [fam.member(rng.normal(size=fam.dim)) for _ in range(3)]
    else:  # two interior states and the tracial state of a face
        rhos = [random_state(fam.algebra, rng, invertible=True, min_eig=1e-2)
                for _ in range(2)] + [State(faces[0].element / faces[0].rank)]
    assert fam.dim > 0
    hessians, eigvalshs = [], []
    real_hessian, real_eigvalsh = family_mod._bkm_hessian, np.linalg.eigvalsh

    def spy(calls, fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    def ladder(f, states, caps):
        return [r for rs in _project_ladder(
            states, f, caps, lambda k: _exposing_direction(states[k], f) is not None)
            for r in rs]

    solves = [lambda f: [project_to_family(rhos[0], f)],
              lambda f: ladder(f, rhos, (PARAM_CAP,)),
              lambda f: ladder(f, rhos[-1:], (10.0, 20.0, 40.0, 80.0))]
    for solve in solves:
        counts, results = [], []
        for warm in (False, True):
            fresh = dataclasses.replace(fam)
            if warm:
                project_to_family(rhos[1], fresh)
            monkeypatch.setattr(family_mod, "_bkm_hessian", spy(hessians, real_hessian))
            monkeypatch.setattr(np.linalg, "eigvalsh", spy(eigvalshs, real_eigvalsh))
            hessians.clear()
            eigvalshs.clear()
            results.append(solve(fresh))
            monkeypatch.undo()
            counts.append((len(hessians), len(eigvalshs)))
        assert counts[1] == (counts[0][0] - 1, counts[0][1] - 1)
        assert [_result_bytes(r) for r in results[1]] == [_result_bytes(r) for r in results[0]]


# -- the fast kernels against the code they replaced ------------------------------


def _bits(element_or_blocks):
    blocks = getattr(element_or_blocks, "blocks", element_or_blocks)
    return [b.tobytes() for b in blocks]


@kernel_settings
@given(block_dims, seeds, st.floats(-3.0, 3.0))
def test_internal_arithmetic_matches_public_constructor(dims, seed, t):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(algebra, rng), random_hermitian(algebra, rng, 2.0)

    def public(blocks):
        return HermitianElement(algebra, blocks)

    assert _bits(a + b) == _bits(public([x + y for x, y in zip(a.blocks, b.blocks)]))
    assert _bits(a - b) == _bits(public([x - y for x, y in zip(a.blocks, b.blocks)]))
    assert _bits(t * a) == _bits(public([t * x for x in a.blocks]))
    assert _bits(-a) == _bits(public([-1.0 * x for x in a.blocks]))

    fam = random_family(algebra, min(3, algebra.real_dim - 1), rng)
    theta = rng.normal(size=fam.dim)
    want = public([np.tensordot(theta, stack, axes=1) for stack in fam.stacks])
    assert _bits(fam.tangent_element(theta)) == _bits(want)


def _bkm_hessian_loop(family, point):
    """The pairwise double loop the stacked BKM Hessian replaced, kept as the
    accuracy reference: sum(conj(T_i) * table * T_j) per pair and block."""
    gibbs, _, means = point
    z = gibbs.z
    d = family.dim
    H = np.zeros((d, d))
    pairs = zip(gibbs.per_block(gibbs.values), gibbs.per_block(gibbs.vectors))
    for bi, (w, V) in enumerate(pairs):
        if w.size == 0:
            continue
        table = divided_differences(w, "exp")  # w - mu, the point's shifted values
        tilted = [V.conj().T @ v.blocks[bi] @ V for v in family.basis]
        for i in range(d):
            for j in range(i, d):
                val = float(np.sum(tilted[i].conj() * table * tilted[j]).real) / z
                H[i, j] += val
                H[j, i] = H[i, j]
    H -= np.outer(means, means)
    return H


# The evaluation as it ran block by block before the blocks were grouped by
# size, kept as the bit-for-bit reference of the grouped kernels: one eigh,
# exp, tilt, table and Gram product per block, every sum in block order.

_BlockGibbs = namedtuple("_BlockGibbs", "free pairs weights z mu")


def _gibbs_per_block(blocks, support):
    if support is None:
        pairs = [(w[..., ::-1], V[..., ::-1]) for w, V in map(np.linalg.eigh, blocks)]
    else:
        pairs = [(w[..., ::-1], q @ Y[..., ::-1]) for q, (w, Y)
                 in zip(support.columns, map(np.linalg.eigh, support.restrict(blocks)))]
    mu = reduce(np.maximum, [w[..., :1] for w, _ in pairs if w.shape[-1]])
    e = [np.exp(w - mu) for w, _ in pairs]
    z = reduce(np.add, [x.sum(-1, keepdims=True) for x in e])
    return _BlockGibbs((mu + np.log(z))[..., 0], pairs, [x / z for x in e], z, mu)


def _gibbs_spectra_per_block(support, gibbs):
    if support is None:
        return gibbs.weights, [np.ascontiguousarray(V) for _, V in gibbs.pairs]
    values = [np.concatenate([x, np.zeros(x.shape[:-1] + k.shape[1:])], axis=-1)
              for x, k in zip(gibbs.weights, support.kernel)]
    vectors = [np.concatenate([V, np.broadcast_to(k, V.shape[:-1] + k.shape[1:])], axis=-1)
               for (_, V), k in zip(gibbs.pairs, support.kernel)]
    return values, vectors


def _objective_pieces_per_block(family, theta, moments):
    gibbs = _gibbs_per_block(family.parameter_element(theta).blocks, family.support)
    tilted = [V.conj().T @ s @ V for (_, V), s in zip(gibbs.pairs, family.stacks)]
    means = sum(np.diagonal(T, axis1=1, axis2=2).real @ p
                for p, T in zip(gibbs.weights, tilted))
    return float(gibbs.free) - float(theta @ moments), means - moments, (gibbs, tilted, means)


def _bkm_hessian_per_block(point):
    (_, pairs, _, z, mu), tilted, m = point
    H = np.zeros((len(m), len(m)))
    for (w, _), T in zip(pairs, tilted):
        root = np.sqrt(divided_differences(w - mu, "exp"))
        R = ((T - m[:, None, None] * np.eye(len(w))) * root).view(float).reshape(len(m), -1)
        H += R @ R.T
    return H / z


def _solve_bits(rho, fam):
    res = project_to_family(rho, fam)
    return (res.theta_star.tobytes(), res.distance.hex(), res.iterations, res.stop_reason,
            res.attained, res.grad_residual.hex(), _bits(res.sigma_star.element))


@pytest.mark.parametrize("kind", ["full", "compressed", "empty-block"])
@pytest.mark.parametrize("dims", [(1,) * 16, (1, 2, 1), (2, 2, 2), (4, 4, 4, 4), (3, 2, 1),
                                  (2, 1)])
@settings(derandomize=True, deadline=None, max_examples=3)
@given(seed=seeds)
def test_grouped_evaluation_keeps_the_per_block_bits(dims, kind, seed):
    # value, gradient and Hessian at a random theta, the stacked rows of
    # _gibbs, and a whole solve (theta*, distance, iterations, sigma*) equal
    # the per-block evaluation bit for bit
    algebra = Algebra(dims)
    rng = np.random.default_rng(seed)
    fam = random_family(algebra, int(rng.integers(1, min(algebra.real_dim, 12))), rng)
    if kind != "full":
        fam = make_compressed_family(
            fam, random_support(algebra, rng, kind == "empty-block"))
    theta = rng.normal(scale=float(rng.choice([0.3, 3.0, 30.0])), size=fam.dim)
    moments = rng.normal(size=fam.dim)
    value, grad, point = _objective_pieces(fam, theta, moments)
    ref_value, ref_grad, ref_point = _objective_pieces_per_block(fam, theta, moments)
    assert value.hex() == ref_value.hex() and grad.tobytes() == ref_grad.tobytes()
    if fam.dim:
        assert _bkm_hessian(point).tobytes() == _bkm_hessian_per_block(ref_point).tobytes()

    rows = [fam.parameter_element(rng.normal(scale=3.0, size=fam.dim)) for _ in range(3)]
    stack = [np.stack(b) for b in zip(*(a.blocks for a in rows))]
    gibbs, ref = _gibbs(stack, fam.support), _gibbs_per_block(stack, fam.support)
    assert gibbs.free.tobytes() == ref.free.tobytes()
    for got, want in zip(_gibbs_spectra(fam.support, gibbs),
                         _gibbs_spectra_per_block(fam.support, ref)):
        assert _bits(got) == _bits(want)

    a = random_hermitian(algebra, rng, 2.0)
    rho = exp1(a if fam.support is None else compress(fam.support, a)[1], fam.support)
    got = _solve_bits(rho, fam)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(family_mod, "_objective_pieces", _objective_pieces_per_block)
        m.setattr(family_mod, "_bkm_hessian", _bkm_hessian_per_block)
        m.setattr(family_mod, "_gibbs_spectra", _gibbs_spectra_per_block)
        # a fresh family: fam caches the grouped kernel's origin point; sigma*
        # is read inside the context, so it is built per block too
        assert got == _solve_bits(rho, dataclasses.replace(fam))


def _row_states(fam, rng, rows):
    """``rows`` states for fam, alternating an interior state and a family
    member beyond a ladder's first caps, whose smallest eigenvalue is near
    1e-9: the rows stop at the cap at some rungs and take different numbers
    of iterations."""
    out = []
    for k in range(rows):
        if k % 2 == 0 or fam.dim == 0:
            a = random_hermitian(fam.algebra, rng, 2.0)
            out.append(exp1(a if fam.support is None else compress(fam.support, a)[1],
                            fam.support))
            continue
        u = rng.normal(size=fam.dim)
        u /= np.linalg.norm(u)
        w = fam.member(u).spectral.eigenvalues
        spread = np.log(max(x.max() for x in w if x.size)
                        / min(x[x > 0].min() for x in w if (x > 0).any()))
        out.append(fam.member(np.log(1e9) / max(spread, 1e-3) * u))
    return out


@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("kind", ["full", "compressed", "empty-block"])
@pytest.mark.parametrize("dims", [(1,) * 16, (1, 2, 1), (2, 2, 2), (4, 4, 4, 4), (3, 2, 1),
                                  (2, 1)])
@settings(derandomize=True, deadline=None, max_examples=2)
@given(seed=seeds)
def test_stacked_rows_keep_the_bits_of_single_solves(dims, kind, rows, seed):
    # a 4-cap ladder of K states in one loop equals, row by row, the ladder
    # of each state alone: every compared field and sigma* as bytes
    algebra = Algebra(dims)
    rng = np.random.default_rng(seed)
    fam = random_family(algebra, int(rng.integers(1, min(algebra.real_dim, 12))), rng)
    if kind != "full":
        fam = make_compressed_family(
            fam, random_support(algebra, rng, kind == "empty-block"))
    rhos = _row_states(fam, rng, rows)
    caps = (10.0, 20.0, 40.0, 80.0)
    stacked = _project_ladder(rhos, fam, caps,
                              lambda k: _exposing_direction(rhos[k], fam) is not None)
    for rho, got in zip(rhos, stacked):
        want = _project_ladder([rho], fam, caps,
                               lambda _: _exposing_direction(rho, fam) is not None)[0]
        assert [_result_bytes(r) for r in got] == [_result_bytes(r) for r in want]


def _hessian_oracle(family, theta):
    """The BKM Hessian at theta to 40 digits, from the exact binary values of
    the parameter element and the basis: mpmath eigenpairs of a within Im(p),
    then sum_k sum_mn f[w_m, w_n] Re(conj(T_i) T_j)_mn / z - means_i means_j,
    f the exp divided differences of the shifted eigenvalues."""
    a = family.parameter_element(theta)
    support = family.support or full_support(family.algebra)
    d = family.dim
    with mpmath.workdps(40):
        blocks = []
        for q, block, stack in zip(support.columns, a.blocks, family.stacks):
            if q.shape[1] == 0:
                continue
            Q = mpmath.matrix(q.tolist())
            w, E = mpmath.eighe(Q.H * mpmath.matrix(block.tolist()) * Q)
            U = Q * E
            tilted = [(U.H * mpmath.matrix(v.tolist()) * U).tolist() for v in stack]
            blocks.append((list(w), tilted))
        mu = max(max(w) for w, _ in blocks)
        z = mpmath.fsum(mpmath.exp(x - mu) for w, _ in blocks for x in w)
        means = [mpmath.fsum(mpmath.exp(x - mu) * mpmath.re(T[i][m][m])
                             for w, T in blocks for m, x in enumerate(w)) / z
                 for i in range(d)]
        H = np.zeros((d, d))
        weighted = []
        for w, T in blocks:
            e = [mpmath.exp(x - mu) for x in w]
            f = [[e[m] if x == y else (e[m] - e[n]) / (x - y) for n, y in enumerate(w)]
                 for m, x in enumerate(w)]
            weighted.append([[[f[m][n] * Ti[m][n] for n in range(len(w))] for m in range(len(w))]
                             for Ti in T])
        for i in range(d):
            for j in range(i, d):
                total = mpmath.fsum(
                    mpmath.re(mpmath.conj(ci) * wj)
                    for (_, T), W in zip(blocks, weighted)
                    for row_i, row_j in zip(T[i], W[j]) for ci, wj in zip(row_i, row_j))
                H[i, j] = H[j, i] = float(total / z - means[i] * means[j])
    return H


def _hs_inner_tensordot(a, b):
    """hs_inner as it was written with np.tensordot, verbatim."""
    total = 0.0
    for x, y in zip(a.blocks, b.blocks):
        total += np.tensordot(x, y.conj(), axes=2).real
    return float(total)


def _assert_hessian_accurate(fam, rng, scale):
    """The stacked kernel is exactly symmetric, and its error against the
    oracle is within twice the double loop's plus 4 eps |H|: the summation
    order differs, so the bits may."""
    theta = scale * rng.normal(size=fam.dim)
    _, _, point = _objective_pieces(fam, theta, rng.normal(size=fam.dim))
    got = _bkm_hessian(point)
    assert np.array_equal(got, got.T)
    want = _hessian_oracle(fam, theta)
    loop_err = np.linalg.norm(_bkm_hessian_loop(fam, point) - want)
    bound = 2.0 * loop_err + 4.0 * np.finfo(float).eps * np.linalg.norm(want)
    assert np.linalg.norm(got - want) <= bound


@kernel_settings
@given(block_dims.filter(lambda dims: sum(n * n for n in dims) >= 2), seeds,
       st.floats(0.1, 30.0))
def test_stacked_hessian_matches_double_loop(dims, seed, scale):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    fam = random_family(algebra, int(rng.integers(1, algebra.real_dim)), rng)
    _assert_hessian_accurate(fam, rng, scale)


@pytest.mark.parametrize("dims, dim", [((16,), 12), ((4, 4, 4, 4), 6), ((8, 8), 10)])
def test_stacked_hessian_matches_double_loop_at_size(dims, dim):
    rng = np.random.default_rng(sum(dims) + dim)
    fam = random_family(Algebra(dims), dim, rng)
    for scale in (0.3, 3.0, 40.0):
        _assert_hessian_accurate(fam, rng, scale)


def test_stacked_hessian_skips_empty_support_block():
    algebra = Algebra((3, 2, 1))
    rng = np.random.default_rng(5)
    parent = random_family(algebra, 6, rng)
    # rank 2 in block 0, all of block 1, nothing of block 2
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0][:, :2]
    p = Projector(HermitianElement(algebra, [q @ q.conj().T, np.eye(2), np.zeros((1, 1))]))
    fam = make_compressed_family(parent, p)
    assert fam.dim > 0
    _, _, (gibbs, *_) = _objective_pieces(fam, np.zeros(fam.dim), np.zeros(fam.dim))
    assert gibbs.per_block(gibbs.values)[2].size == 0
    for scale in (0.5, 5.0):
        _assert_hessian_accurate(fam, rng, scale)


@kernel_settings
@given(block_dims, seeds, st.floats(0.1, 10.0))
def test_hs_inner_matches_tensordot(dims, seed, scale):
    algebra = Algebra(tuple(dims))
    rng = np.random.default_rng(seed)
    a, b = random_hermitian(algebra, rng, scale), random_hermitian(algebra, rng)
    assert hs_inner(a, b).hex() == _hs_inner_tensordot(a, b).hex()


@pytest.mark.parametrize("dims", [(16,), (4, 4, 4, 4), (8, 8)])
def test_hs_inner_matches_tensordot_at_size(dims):
    algebra = Algebra(dims)
    rng = np.random.default_rng(sum(dims))
    for _ in range(20):
        a, b = random_hermitian(algebra, rng, 3.0), random_hermitian(algebra, rng)
        assert hs_inner(a, b).hex() == _hs_inner_tensordot(a, b).hex()
