import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qexpfam import closures, cone, states
from qexpfam.errors import AlgebraMismatchError, DomainError
from qexpfam.family import exp1
from qexpfam.linalg import (
    Algebra,
    HermitianElement,
    _orthonormalize,
    _sym,
    apply_matrix_function,
    coords,
    dexp,
    divided_differences,
    dlog,
    eigh,
    expm,
    frechet_derivative,
    from_coords,
    gram_schmidt,
    hs_inner,
    identity,
    logm,
    project_out,
    trace_norm,
    traceless_part,
    zero,
)
from qexpfam.sampling import random_hermitian, random_traceless

from helpers import (compress_blocks_by_steps, orthonormalize_by_elements,
                     project_out_by_elements, random_support, rI_rows_by_steps,
                     traceless_part_by_sum)


def rand(algebra, rng, scale=1.0):
    return random_hermitian(algebra, rng, scale)


class TestAlgebra:
    def test_dims(self, algebra):
        assert algebra.dim == 3
        assert algebra.real_dim == 5
        assert algebra.block_dims == (2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Algebra((0, 2))
        with pytest.raises(ValueError):
            Algebra((10, 8))  # exceeds total-dimension cap 16


class TestHermitianElement:
    def test_symmetrization_accepts_roundoff(self, algebra):
        b = np.array([[1.0, 0.5 + 1e-13j], [0.5, 2.0]])
        el = HermitianElement(algebra, [b, np.array([[0.0]])])
        assert np.allclose(el.blocks[0], el.blocks[0].conj().T)

    def test_rejects_non_hermitian(self, algebra):
        b = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            HermitianElement(algebra, [b, np.array([[0.0]])])
        for x in (np.nan, np.inf):  # a non-finite entry fails the check too
            with pytest.raises(ValueError, match="non-finite"):
                HermitianElement(algebra, [np.diag([x, 0.5]), np.array([[0.5]])])
            with pytest.raises(ValueError, match="non-finite"):
                HermitianElement(algebra, [np.eye(2), np.array([[x]])])

    def test_block_shape_mismatch(self, algebra):
        with pytest.raises(AlgebraMismatchError):
            HermitianElement(algebra, [np.eye(3), np.array([[1.0]])])

    def test_coords_roundtrip(self, algebra, rng):
        a = rand(algebra, rng)
        again = from_coords(algebra, coords(a))
        assert (a - again).norm() < 1e-14
        assert abs(np.linalg.norm(coords(a)) - a.norm()) < 1e-12


def _coords_loop(a):
    """coords entry by entry: the diagonal, then (re, im) pairs for i < j."""
    out = []
    for b in a.blocks:
        n = b.shape[0]
        out.extend(b[i, i].real for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                out.append(np.sqrt(2.0) * b[i, j].real)
                out.append(-np.sqrt(2.0) * b[i, j].imag)
    return np.asarray(out, dtype=float)


def _from_coords_loop(algebra, v):
    """from_coords entry by entry, in the order of _coords_loop."""
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


def _verbatim(algebra, v):
    """The element whose diagonal entries and (re, im) parts above the
    diagonal are v's values as they are, signed zeros included (complex
    arithmetic, as in from_coords, can turn -0.0 into 0.0)."""
    blocks, k = [], 0
    for n in algebra.block_dims:
        b = np.zeros((n, n), dtype=complex)
        b.real[np.diag_indices(n)] = v[k:k + n]
        for i, j in zip(*np.triu_indices(n, 1)):
            b.real[i, j] = b.real[j, i] = v[k + n]
            b.imag[i, j], b.imag[j, i] = v[k + n + 1], -v[k + n + 1]
            k += 2
        blocks.append(b)
        k += n
    return HermitianElement(algebra, blocks)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dims=st.sampled_from([(2, 1), (3,), (4, 4, 4, 4), (16,), (1, 1, 1), (2, 2)]),
       data=st.data())
def test_coords_keep_the_bits_of_the_per_entry_loop(dims, data):
    # signed zeros included: the block expressions do the loop's arithmetic
    algebra = Algebra(dims)
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3, allow_nan=False)
    v = np.array(data.draw(st.lists(entry, min_size=algebra.real_dim,
                                    max_size=algebra.real_dim)), dtype=float)
    want = _from_coords_loop(algebra, v)
    got = from_coords(algebra, v)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got.blocks, want.blocks))
    for a in (want, _verbatim(algebra, v)):
        assert coords(a).tobytes() == _coords_loop(a).tobytes()


def _signed_zeros(x, rng):
    """x with about a third of its entries set to +0 and a third to -0."""
    pick = rng.integers(0, 3, size=x.shape)
    return np.where(pick == 1, 0.0, np.where(pick == 2, -0.0, x))


def test_sym_of_a_sym_output_moves_only_zero_signs():
    # HermitianElement._trusted symmetrizes blocks that are _sym outputs
    # already.  numpy divides a complex by 2.0 as a complex, so a real part
    # reads (re + im 0) / 2: where b's real parts at (i, j) and (j, i) are
    # both -0, the first pass leaves -0 on one side and +0 on the other, and
    # the second makes both +0.  Nothing else moves.
    rng, moved = np.random.default_rng(40), 0
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        b = np.zeros((n, n), dtype=complex)
        b.real, b.imag = (_signed_zeros(rng.normal(size=(n, n)), rng) for _ in range(2))
        h, again = _sym(b), _sym(_sym(b))
        assert np.array_equal(again, h)
        differ = again.view(np.uint64).reshape(n, n, 2) != h.view(np.uint64).reshape(n, n, 2)
        negative = (b.real == 0.0) & np.signbit(b.real)
        assert not differ[..., 1].any()
        assert not (differ[..., 0] & ~(negative & negative.T)).any()
        moved += differ.any()
    assert moved  # so _trusted keeps the bits only of blocks without such pairs


def test_compressions_keep_their_bits_in_trusted(algebra, rng):
    # compress wraps _compress_blocks' _sym outputs in _trusted: their real
    # parts come from matmul sums and never read -0, so no bit moves
    for a in [*cone.PAULI, cone.APEX, cone.Z] + [rand(algebra, rng) for _ in range(20)]:
        projectors = [random_support(algebra, rng, empty) for empty in (False, True)]
        for p in projectors + [states.support_projector(cone.base_circle_state(0.3)),
                               states.full_support(algebra)]:
            got = states.compress(p, a)
            want = states._compress_blocks(p.element.blocks, p.rank, a.blocks)
            for el, blocks in zip(got, want):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(el.blocks, blocks))


@pytest.mark.parametrize("dims", [(2, 1), (2, 2), (1, 1, 1, 1), (4,)])
def test_traceless_part_keeps_the_bits_of_the_sum(dims):
    algebra, rng = Algebra(dims), np.random.default_rng(41)
    for _ in range(200):
        a = from_coords(algebra, _signed_zeros(rng.normal(size=algebra.real_dim), rng))
        for x in (a, -a):
            got, want = traceless_part(x), traceless_part_by_sum(x)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got.blocks, want.blocks))


# The raw project-out kernel and the arithmetic on it keep the bits of the
# element arithmetic that symmetrized every step: a - t b of symmetrized blocks
# (t real) already has the values of its _sym.
KERNEL_DIMS = [(2, 1), (2, 2), (1, 1, 1, 1), (4,), (3, 2), (16,)]


def _same_bytes(xs, ys):
    return len(xs) == len(ys) and all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


def _kernel_inputs(algebra, rng, count):
    """count elements of _signed_zeros coordinates, each followed by its
    negative, then on the cone's algebra its Pauli and apex elements."""
    out = []
    for _ in range(count):
        a = from_coords(algebra, _signed_zeros(rng.normal(size=algebra.real_dim), rng))
        out += [a, -a]
    return out + ([*cone.PAULI, cone.APEX] if algebra == cone.ALGEBRA else [])


@pytest.mark.parametrize("dims", KERNEL_DIMS)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4))
def test_project_out_keeps_the_bits_of_element_arithmetic(dims, seed, count):
    algebra, rng = Algebra(dims), np.random.default_rng(seed)
    elements = _kernel_inputs(algebra, rng, count)
    want = orthonormalize_by_elements(elements)  # drops each negative
    got = _orthonormalize(elements)
    assert len(got) == len(want) and all(_same_bytes(g.blocks, w.blocks)
                                         for g, w in zip(got, want))
    spanning = elements[:2 * count:2]  # rank-deficient where coordinates vanish together
    want_gs = orthonormalize_by_elements(spanning)
    if len(want_gs) < len(spanning):
        with pytest.raises(ValueError):
            gram_schmidt(spanning)
    else:
        assert all(_same_bytes(g.blocks, w.blocks)
                   for g, w in zip(gram_schmidt(spanning), want_gs))
    for a in elements + _kernel_inputs(algebra, rng, 2):
        assert _same_bytes(project_out(a, want).blocks, project_out_by_elements(a, want).blocks)


@pytest.mark.parametrize("dims", KERNEL_DIMS)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_compress_blocks_keeps_the_bits_of_element_arithmetic(dims, seed):
    # one element's blocks, and rows (K, m) of K projectors and m elements
    algebra, rng = Algebra(dims), np.random.default_rng(seed)
    elements = _kernel_inputs(algebra, rng, 2)
    projectors = [random_support(algebra, rng, empty) for empty in (False, True)]
    projectors.append(states.full_support(algebra))
    for p in projectors:
        for a in elements:
            got = states._compress_blocks(p.element.blocks, p.rank, a.blocks)
            want = compress_blocks_by_steps(p.element.blocks, p.rank, a.blocks)
            assert all(_same_bytes(g, w) for g, w in zip(got, want))
    p = [np.stack(b)[:, None] for b in zip(*(q.element.blocks for q in projectors))]
    rank = np.array([[q.rank] for q in projectors])
    a = [np.stack(b) for b in zip(*(x.blocks for x in elements))]
    got, want = states._compress_blocks(p, rank, a), compress_blocks_by_steps(p, rank, a)
    assert all(_same_bytes(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("dims", KERNEL_DIMS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_rI_rows_keep_the_bits_of_element_arithmetic(dims, seed):
    # rows of states on random supports p (the first on all of A), offsets of
    # _signed_zeros coordinates and per-row bases padded with zero rows; the
    # residuals that enter and leave the raw kernel, and the verdicts, are
    # those of the loop that symmetrized every step
    algebra, rng = Algebra(dims), np.random.default_rng(seed)
    rows = 4
    supports = [states.full_support(algebra)] + [random_support(algebra, rng, False)
                                                 for _ in range(rows - 1)]
    rhos = [exp1(states.compress(q, rand(algebra, rng))[0], q) for q in supports]
    offsets = _kernel_inputs(algebra, rng, rows)[:rows]
    bases = [_orthonormalize(_kernel_inputs(algebra, rng, int(rng.integers(0, 4)))[::2])
             for _ in range(rows)]
    zero_blocks = [np.zeros((n, n), dtype=complex) for n in dims]
    basis = [[np.stack(b) for b in zip(*(v[j].blocks if j < len(v) else zero_blocks
                                         for v in bases))] for j in range(max(map(len, bases)))]

    def stack(elements):
        return [np.stack(b) for b in zip(*(getattr(x, "element", x).blocks for x in elements))]

    args = (stack(rhos), *([np.stack(x) for x in zip(*(getattr(r.spectral, name) for r in rhos))]
                           for name in ("eigenvalues", "eigenvectors")),
            np.array([r.support_rank for r in rhos]), stack(supports),
            np.array([q.rank for q in supports]), stack(offsets), basis)
    seen, real = [], closures._project_out

    def spy(blocks, basis):
        seen.append((blocks, real(blocks, basis)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(closures, "_project_out", spy)
        member, rest = closures._rI_rows(*args)
    want_member, want_rest, start, end = rI_rows_by_steps(*args)
    assert np.array_equal(member, want_member) and np.array_equal(rest, want_rest)
    (blocks, out), = seen  # the first row is on its support, of rank N > 1
    assert _same_bytes(blocks, start) and _same_bytes(out, end)


class TestHsInner:
    def test_identity_trace(self, algebra):
        one = identity(algebra)
        assert hs_inner(one, one) == pytest.approx(3.0, abs=1e-14)

    def test_pauli_orthogonality(self, algebra):
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        assert hs_inner(cone.PAULI[0], v2) == pytest.approx(0.0, abs=1e-14)

    def test_hand_oracle_z_v2(self, algebra):
        # direct 3x3 trace of (-id2/2 + 1)(s2 + 1 - id/3) evaluates to 1
        z = cone.Z
        v2 = traceless_part(cone.PAULI[1] + cone.APEX)
        assert hs_inner(z, v2) == pytest.approx(1.0, abs=1e-14)

    def test_mismatch_raises(self, algebra, abelian3):
        with pytest.raises(AlgebraMismatchError):
            hs_inner(identity(algebra), identity(abelian3))

    def test_positive_definite(self, algebra, rng):
        for _ in range(25):
            a = rand(algebra, rng)
            if a.norm() > 1e-12:
                assert hs_inner(a, a) > 0.0


class TestEigh:
    def test_sigma3(self, algebra):
        w = eigh(cone.PAULI[2]).eigenvalues[0]
        assert np.allclose(w, [1.0, -1.0])

    def test_identity(self, algebra):
        w = eigh(identity(algebra)).all_eigenvalues()
        assert np.allclose(w, 1.0)

    def test_reconstruction(self, algebra, rng):
        for _ in range(25):
            a = rand(algebra, rng, 2.0)
            spec = eigh(a)
            resid = (a - spec.reconstruct()).norm()
            assert resid <= 1e-12 * (1.0 + a.norm())
            for w in spec.eigenvalues:
                assert np.all(np.diff(w) <= 1e-14)  # descending

    def test_reversal_keeps_the_argsort_order_on_ties(self):
        # eigh reverses np.linalg.eigh's ascending output; on blocks with
        # exactly repeated eigenvalues (identity, diagonal and projector
        # blocks, sizes 1-20) the reversal gives the bits of the reorder by
        # np.argsort(w)[::-1] it replaced: argsort keeps sorted ties in place.
        # Blocks up to the algebra's size cap go through eigh itself.
        rng = np.random.default_rng(20261020)
        tied = 0
        for n in range(1, 21):
            q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            r = int(rng.integers(0, n + 1))
            blocks = [np.eye(n), np.zeros((n, n)), 0.5 * np.eye(n),
                      np.diag(rng.choice([0.0, 1.0], n)), np.diag(rng.choice([-1.0, 0.0, 2.0], n)),
                      q[:, :r] @ q[:, :r].conj().T, (q * rng.choice([-1.0, 1.0], n)) @ q.conj().T]
            for b in blocks:
                b = ((b + b.conj().T) / 2.0).astype(complex)
                w, V = np.linalg.eigh(b)
                order = np.argsort(w)[::-1]
                tied += len(np.unique(w)) < n
                want = [np.ascontiguousarray(w[order]), np.ascontiguousarray(V[:, order])]
                got = [np.ascontiguousarray(w[::-1]), np.ascontiguousarray(V[:, ::-1])]
                if n <= 16:
                    spec = eigh(HermitianElement(Algebra((n,)), [b]))
                    got = [spec.eigenvalues[0], spec.eigenvectors[0]]
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert tied >= 19 * 4  # every size above 1 has exact ties


class TestMatrixFunctions:
    def test_exp_zero(self, algebra):
        assert (expm(zero(algebra)) - identity(algebra)).norm() < 1e-14

    def test_qubit_exponential_closed_form(self, rng):
        # exp(b.sigma) = cosh|b| id + sinh|b| (b/|b|).sigma
        A = Algebra((2,))
        for _ in range(10):
            b = rng.normal(size=3)
            nb = np.linalg.norm(b)
            mat = (
                b[0] * np.array([[0, 1], [1, 0]])
                + b[1] * np.array([[0, -1j], [1j, 0]])
                + b[2] * np.array([[1, 0], [0, -1]])
            )
            got = expm(HermitianElement(A, [mat]))
            want = np.cosh(nb) * np.eye(2) + np.sinh(nb) / nb * mat
            assert np.linalg.norm(got.blocks[0] - want) < 1e-12

    def test_log_exp_roundtrip(self, algebra, rng):
        for _ in range(10):
            a = rand(algebra, rng)
            a = a / max(1.0, a.norm() / 2.0)  # |a| <= 2
            assert (logm(expm(a)) - a).norm() <= 1e-10

    def test_log_domain(self, algebra):
        with pytest.raises(DomainError):
            logm(cone.PAULI[2])

    def test_commutes_with_conjugation(self, algebra, rng):
        a = rand(algebra, rng)
        spec = eigh(a)
        # in its own eigenbasis the function acts on the diagonal
        f_a = apply_matrix_function(a, np.tanh)
        for (w, V), blk in zip(
            zip(spec.eigenvalues, spec.eigenvectors), f_a.blocks
        ):
            inner = V.conj().T @ blk @ V
            assert np.linalg.norm(inner - np.diag(np.tanh(w))) < 1e-12


class TestTraceNorm:
    def test_sigma3(self):
        assert trace_norm(cone.PAULI[2]) == pytest.approx(2.0, abs=1e-14)

    def test_zero_difference(self, algebra, rng):
        a = rand(algebra, rng)
        assert trace_norm(a - a) == 0.0

    def test_antipodal_circle_states(self):
        # rho(0) - rho(pi) = s2 + 0 with eigenvalues +1, -1
        d = cone.base_circle_state(0.0).element - cone.base_circle_state(np.pi).element
        assert trace_norm(d) == pytest.approx(2.0, abs=1e-12)


class TestFrechetDerivative:
    def test_at_zero_is_identity(self, algebra, rng):
        b = rand(algebra, rng)
        out = dexp(zero(algebra), b)
        assert (out - b).norm() < 1e-13

    def test_commuting_diagonal(self, algebra):
        a = HermitianElement(algebra, [np.diag([0.3, -0.7]), np.array([[0.2]])])
        b = HermitianElement(algebra, [np.diag([1.0, 2.0]), np.array([[-1.0]])])
        got = dexp(a, b)
        want = HermitianElement(
            algebra,
            [np.diag(np.exp([0.3, -0.7]) * [1.0, 2.0]), np.array([[np.exp(0.2) * -1.0]])],
        )
        assert (got - want).norm() < 1e-12

    def test_finite_difference(self, algebra, rng):
        h = 1e-5
        for _ in range(10):
            a = rand(algebra, rng)
            b = rand(algebra, rng)
            der = dexp(a, b)
            fd = (expm(a + h * b) - expm(a - h * b)) / (2.0 * h)
            assert (der - fd).norm() <= 1e-7 * max(1.0, der.norm())

    def test_log_finite_difference(self, algebra, rng):
        h = 1e-5
        for _ in range(5):
            a = rand(algebra, rng)
            a = expm(a / max(1.0, a.norm()))  # positive definite
            b = rand(algebra, rng)
            der = dlog(a, b)
            fd = (logm(a + h * b) - logm(a - h * b)) / (2.0 * h)
            assert (der - fd).norm() <= 1e-7 * max(1.0, der.norm())

    def test_linear_in_direction(self, algebra, rng):
        a, b, c = (rand(algebra, rng) for _ in range(3))
        lhs = dexp(a, 2.0 * b - 0.5 * c)
        rhs = 2.0 * dexp(a, b) - 0.5 * dexp(a, c)
        assert (lhs - rhs).norm() < 1e-12

    def test_symmetric_bilinear(self, algebra, rng):
        a, b, c = (rand(algebra, rng) for _ in range(3))
        assert hs_inner(dexp(a, b), c) == pytest.approx(
            hs_inner(b, dexp(a, c)), abs=1e-10
        )

    def test_trace_identity(self, algebra, rng):
        a, b = rand(algebra, rng), rand(algebra, rng)
        assert dexp(a, b).trace() == pytest.approx(
            hs_inner(b, expm(a)), abs=1e-10
        )

    def test_log_functions_decompose_once_and_check_the_domain(self, algebra, monkeypatch):
        # one eigh per block for dlog and logm; singular, indefinite and
        # negative definite elements raise (the log table of a negative
        # spectrum would otherwise be finite)
        calls, real_eigh = [], np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return real_eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        b = HermitianElement(algebra, [np.array([[0.3, 0.1j], [-0.1j, -0.2]]), np.array([[1.0]])])
        good = HermitianElement(algebra, [np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.4]])])
        for fn in (lambda a: dlog(a, b), logm):
            calls.clear()
            fn(good)
            assert len(calls) == algebra.n_blocks
        for diag_2, one in (([1.0, 0.0], 0.5), ([1.0, -0.5], 2.0), ([-1.0, -2.0], -3.0)):
            bad = HermitianElement(algebra, [np.diag(diag_2), np.array([[one]])])
            for fn in (lambda a: dlog(a, b), logm):
                with pytest.raises(DomainError):
                    fn(bad)

    def test_unknown_function_rejected(self, algebra, rng):
        with pytest.raises(ValueError, match="exp | log"):
            frechet_derivative(rand(algebra, rng), rand(algebra, rng), "sin")

    @pytest.mark.parametrize("f", ["exp", "log"])
    def test_divided_differences_match_mpmath(self, f):
        # eigenvalue pairs (base, base + gap) for gaps from 1e-14 to 1: no
        # cancellation at any gap, against a 40-digit (F(x) - F(y)) / (x - y)
        fn = mpmath.exp if f == "exp" else mpmath.log
        bases = (0.7, 1e-3, 5.0) + ((-3.0, -40.0) if f == "exp" else ())
        with mpmath.workdps(40):
            for base in bases:
                for gap in np.logspace(-14.0, 0.0, 29):
                    w = np.array([base, base + gap, base])
                    table = divided_differences(w, f)
                    assert np.array_equal(table, table.T)
                    x, y = (mpmath.mpf(float(v)) for v in w[:2])
                    want = (fn(x) - fn(y)) / (x - y)
                    assert abs(table[0, 1] - want) <= 1e-14 * abs(want), (base, gap)
                    # an exact tie takes the derivative
                    assert table[0, 2] == table[0, 0] == (np.exp(base) if f == "exp" else 1.0 / base)


class TestGramSchmidt:
    def test_orthonormal(self, algebra, rng):
        vs = [random_traceless(algebra, rng) for _ in range(3)]
        basis = gram_schmidt(vs)
        for i, e in enumerate(basis):
            for j, f in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert hs_inner(e, f) == pytest.approx(want, abs=1e-12)

    def test_rank_deficient_rejected(self, algebra, rng):
        a = random_traceless(algebra, rng)
        with pytest.raises(ValueError):
            gram_schmidt([a, 2.0 * a])
