"""The parameter-cap ladder: shared Newton path, independent-solve results."""

import dataclasses

import numpy as np
import pytest

from qexpfam import cone, family
from qexpfam.family import (
    _exposing_direction,
    _project_ladder,
    distance_continuation,
    entropy_distance,
    face_chain,
    make_family,
    project_to_family,
)
from qexpfam.linalg import Algebra, HermitianElement
from qexpfam.sampling import random_state, random_traceless
from qexpfam.states import State


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _face_case(dims, dim, rank, seed):
    """A family whose first generator has a rank-``rank`` top eigenspace in
    block 0, a full-rank state of that face (its projection recedes to the
    boundary) and an invertible state (its projection is attained)."""
    rng = np.random.default_rng(seed)
    algebra = Algebra(dims)
    blocks, top = [], None
    for k, n in enumerate(dims):
        u = _unitary(n, rng)
        w = rng.uniform(-1.0, 0.5, size=n)
        if k == 0:
            w[:rank] = 1.0
            top = u[:, :rank]
        blocks.append((u * w) @ u.conj().T)
    gens = [HermitianElement(algebra, blocks)]
    gens += [random_traceless(algebra, rng) for _ in range(dim - 1)]
    fam = make_family(algebra, gens)
    g = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    small = g @ g.conj().T + 0.1 * np.eye(rank)
    face = [np.zeros((n, n), dtype=complex) for n in dims]
    face[0] = top @ (small / np.trace(small).real) @ top.conj().T
    boundary = State(HermitianElement(algebra, face))
    interior = random_state(algebra, rng, invertible=True, min_eig=1e-2)
    return fam, boundary, interior


def _cases():
    out = []
    for k, (dims, dim, rank) in enumerate([((16,), 4, 4), ((4, 4, 4, 4), 4, 2)]):
        fam, boundary, interior = _face_case(dims, dim, rank, 40 + k)
        out += [(f"{dims}-boundary", fam, boundary), (f"{dims}-interior", fam, interior)]
    staffelberg = cone.staffelberg_family()
    out += [("cone-rho0", staffelberg, cone.base_circle_state(0.0)),
            ("cone-rho1", staffelberg, cone.base_circle_state(1.0)),
            ("cone-interior", staffelberg,
             random_state(cone.ALGEBRA, np.random.default_rng(44), invertible=True))]
    return out


CASES = _cases()
# unsorted, a repeat, a cap that acts at the first step and one that the
# interior paths never reach
CAPS = (50.0, 0.5, 200.0, 25.0, 50.0, 1e4)


def _fingerprint(res):
    return (res.theta_star.tobytes(),
            tuple(b.tobytes() for b in res.sigma_star.element.blocks),
            res.distance.hex(), res.attained, res.cap_hit, res.iterations,
            float(res.grad_residual).hex(), float(res.min_hessian_eig).hex())


@pytest.mark.parametrize("label, fam, rho", CASES, ids=[c[0] for c in CASES])
def test_continuation_equals_independent_solves(label, fam, rho):
    ladder = distance_continuation(rho, fam, caps=CAPS)
    assert [cap for cap, _, _ in ladder] == list(CAPS)
    for cap, value, attained in ladder:
        want = project_to_family(rho, fam, param_cap=cap)
        assert (value.hex(), attained) == (want.distance.hex(), want.attained), cap


@pytest.mark.parametrize("label, fam, rho", CASES, ids=[c[0] for c in CASES])
def test_ladder_results_equal_project_to_family(label, fam, rho):
    results = _project_ladder([rho], fam, CAPS,
                              lambda _: _exposing_direction(rho, fam) is not None)[0]
    for cap, res in zip(CAPS, results):
        want = project_to_family(rho, fam, param_cap=cap)
        assert _fingerprint(res) == _fingerprint(want), cap


def test_ladder_shares_the_newton_path(monkeypatch):
    fam, rho, _ = _face_case((4, 4, 4, 4), 4, 2, 41)
    caps = (25.0, 50.0, 100.0, 200.0)
    real = family._objective_pieces
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(family, "_objective_pieces", counting)
    for cap in caps:
        project_to_family(rho, fam, param_cap=cap)
    independent = len(calls)
    calls.clear()
    distance_continuation(rho, fam, caps=caps)
    assert len(calls) < independent


BOUNDARY_CASES = [c for c in CASES if not c[0].endswith("interior")]


@pytest.mark.parametrize("label, fam, rho", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
def test_resumed_rungs_reuse_their_newton_step(monkeypatch, label, fam, rho):
    # each rung resumes with the Hessian and step its resume point already
    # took, so the ladder builds no Hessian beyond the largest cap's solve;
    # each solve runs in a fresh copy of the family, which has not cached
    # its first step yet
    real, calls, counts = family._bkm_hessian, [], []

    def counting(point):
        calls.append(1)
        return real(point)

    monkeypatch.setattr(family, "_bkm_hessian", counting)
    for solve in (lambda f: distance_continuation(rho, f, caps=(10.0, 20.0, 40.0, 80.0)),
                  lambda f: project_to_family(rho, f, param_cap=80.0)):
        calls.clear()
        solve(dataclasses.replace(fam))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _arrays(x):
    """Every array inside nested tuples and lists, depth first."""
    if isinstance(x, (np.ndarray, np.generic)):
        return [x]
    if isinstance(x, (tuple, list)):
        return [a for y in x for a in _arrays(y)]
    return []


def test_solves_leave_the_cached_origin_untouched():
    # every solve in a family starts from its one origin point and its one
    # first Newton step: an interior solve, a solve that ends there, a
    # boundary ladder and a solve in the compressed family of the face write
    # into neither family's origin nor its step, whose Hessian is read-only
    fam, boundary, interior = _face_case((4, 4, 4, 4), 4, 2, 45)
    projectors, inner = face_chain(boundary, fam)
    assert projectors and inner.support is not None
    origins = [fam.origin, inner.origin, fam.origin_step, inner.origin_step]
    before = [[a.tobytes() for a in _arrays(o)] for o in origins]
    for _, H in origins[2:]:
        with pytest.raises(ValueError):
            H[0, 0] = 0.0
    at_origin = project_to_family(fam.member(np.zeros(fam.dim)), fam)
    assert at_origin.iterations == 0
    results = [project_to_family(interior, fam), at_origin,
               *_project_ladder([boundary], fam, (10.0, 20.0, 40.0, 80.0), lambda _: True)[0],
               project_to_family(boundary, inner)]
    assert all(r.sigma_star.element.algebra == fam.algebra for r in results)
    assert [[a.tobytes() for a in _arrays(o)] for o in origins] == before
    assert fam.origin is origins[0] and inner.origin is origins[1]
    assert fam.origin_step is origins[2] and inner.origin_step is origins[3]


def test_stacked_rows_raise_for_the_first_failing_state(monkeypatch):
    # with the iteration budget cut, a far state's own solve raises
    # SolverError and a near one's converges; K states in one loop raise the
    # error of the first, in input order, whose own solve raises
    rng = np.random.default_rng(46)
    algebra = Algebra((2, 2, 2))
    fam = make_family(algebra, [random_traceless(algebra, rng) for _ in range(4)])
    near = [fam.member(0.01 * rng.normal(size=fam.dim)) for _ in range(2)]
    far = [fam.member(12.0 * rng.normal(size=fam.dim)) for _ in range(2)]
    monkeypatch.setattr(family.defaults, "MAX_ITER", 3)

    def own_error(rho):
        with pytest.raises(family.SolverError) as err:
            project_to_family(rho, fam)
        return str(err.value)

    assert all(project_to_family(rho, fam).attained for rho in near)
    errors = [own_error(rho) for rho in far]
    assert errors[0] != errors[1]
    for rhos, want in (([near[0], far[0], near[1], far[1]], errors[0]),
                       ([far[1], near[0], far[0]], errors[1])):
        with pytest.raises(family.SolverError) as err:
            _project_ladder(rhos, fam, (80.0,), lambda _: False)
        assert str(err.value) == want
    assert all(r.attained for r, in _project_ladder(near, fam, (80.0,), lambda _: False))


def test_single_solves_keep_single_solve_shapes(monkeypatch):
    # a lone state pays nothing for the state axis: every evaluation takes a
    # 1-D theta and no Newton step reads a list of rows; in a 3-row ladder
    # whose rows stop at different rungs, neither does any round after the
    # second row has stopped
    fam, boundary, interior = _face_case((4, 4, 4, 4), 4, 2, 47)
    direction = np.random.default_rng(47).normal(size=fam.dim)
    far = fam.member(30.0 * direction / np.linalg.norm(direction))
    log = []
    pieces, take, row = family._objective_pieces, family._take, family._newton_row

    def logged_pieces(f, theta, moments):
        log.append(("eval", theta.ndim))
        return pieces(f, theta, moments)

    def logged_take(point, rows):
        log.append(("take", isinstance(rows, list)))
        return take(point, rows)

    def logged_row(*args):
        ends = yield from row(*args)
        log.append(("stop", None))
        return ends

    monkeypatch.setattr(family, "_objective_pieces", logged_pieces)
    monkeypatch.setattr(family, "_take", logged_take)
    monkeypatch.setattr(family, "_newton_row", logged_row)
    project_to_family(boundary, fam)
    project_to_family(interior, fam, param_cap=1.0)
    entropy_distance(boundary, fam)
    entropy_distance(cone.base_circle_state(0.3), cone.staffelberg_family())
    assert ("eval", 1) in log and ("take", False) in log
    assert set(log) <= {("eval", 1), ("take", False), ("stop", None)}

    log.clear()
    rhos = [interior, far, boundary]
    caps = (10.0, 20.0, 40.0, 80.0)
    results = _project_ladder(rhos, fam, caps, lambda k: k == 2)
    assert [len({id(r) for r in rs}) for rs in results] == [1, 3, 4]
    second = [k for k, (kind, _) in enumerate(log) if kind == "stop"][1]
    assert ("eval", 2) in log[:second] and ("take", True) in log[:second]
    assert ("eval", 1) in log[second:]
    assert set(log[second:]) <= {("eval", 1), ("take", False), ("stop", None)}
