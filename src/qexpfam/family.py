"""Exponential families: charts, free energy and the entropy-distance solver.

A family is the image under the trace-normalized exponential of an affine
subspace offset + span(basis) of traceless self-adjoint elements.  Families in
a compressed corner algebra pAp carry a support basis and use the
superscript-p calculus throughout; the full algebra is the special case
p = identity.

The projection onto the family minimizes the strictly convex objective

    f(theta) = F(offset + sum_i theta_i v_i) - <rho, sum_i theta_i v_i>

by damped Newton with Armijo backtracking.  Its value recovers the relative
entropy through S(rho, exp1(a)) = f(theta) - S(rho) - <rho, offset>, which
stays meaningful when the infimum recedes to the boundary and no minimizer
exists; non-attainment is detected and reported as a flag, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import defaults
from .errors import AlgebraMismatchError, PreconditionError, SolverError
from .linalg import (
    Algebra,
    HermitianElement,
    divided_differences,
    gram_schmidt,
    hs_inner,
    project_out,
    traceless_part,
    zero,
)
from .states import (
    Projector,
    State,
    SupportBasis,
    compress,
    full_support,
    log_on_support,
    max_eig_data,
    relative_entropy,
    restricted_eigh,
    vn_entropy,
)


# -- the trace-normalized exponential and its inverse chart -------------------


def _gibbs(a: HermitianElement, support: SupportBasis | None):
    """The Gibbs kernel: (F, state, pairs, z, mu) for a in pAp.

    F = ln tr(p e^a) and state = p e^a / tr(p e^a), evaluated on the
    eigenpairs of a within Im(p) shifted by the largest eigenvalue mu, so
    tr(p e^(a - mu)) = z stays in [1, N] and nothing overflows.
    """
    if support is None:
        support = full_support(a.algebra)
    pairs = restricted_eigh(a, support)
    mu = max(float(w[0]) for w, _ in pairs if w.size)
    z = sum(float(np.exp(w - mu).sum()) for w, _ in pairs)
    blocks = []
    for (w, V), n in zip(pairs, a.algebra.block_dims):
        if w.size == 0:
            blocks.append(np.zeros((n, n)))
        else:
            blocks.append((V * (np.exp(w - mu) / z)) @ V.conj().T)
    state = State(HermitianElement(a.algebra, blocks))
    return mu + float(np.log(z)), state, pairs, z, mu


def exp1(a: HermitianElement, support: SupportBasis | None = None) -> State:
    """Trace-normalized exponential e^a / tr(e^a).

    With a support basis the superscript-p version p e^a / tr(p e^a) is
    computed for a in pAp.  Overflow is avoided by shifting a by its largest
    eigenvalue first; the result is invariant under a -> a + t*identity.
    """
    return _gibbs(a, support)[1]


def ln0(rho: State) -> HermitianElement:
    """Canonical chart: ln(rho) minus its trace part.  Requires rho invertible.

    Inverse of exp1 on traceless elements: exp1(ln0(rho)) = rho.
    """
    if not rho.is_invertible():
        raise PreconditionError("canonical chart needs an invertible state")
    return traceless_part(log_on_support(rho))


def free_energy(
    a: HermitianElement, support: SupportBasis | None = None
) -> tuple[float, State]:
    """Free energy F(a) = ln tr(e^a) together with its gradient exp1(a).

    Equivariant under trace shifts: F(a + t*identity) = F(a) + t.
    """
    value, state, *_ = _gibbs(a, support)
    return value, state


# -- family --------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialFamily:
    """Affine canonical parameter space offset + span(basis) inside A_sa.

    basis is traceless and HS-orthonormal, offset traceless and orthogonal to
    the tangent space; generators keeps the (tracelessified) spanning set the
    family was built from, which fixes the polar parametrization used by
    closure sweeps.  support is None for families in the full algebra.
    """

    algebra: Algebra
    basis: tuple[HermitianElement, ...]
    offset: HermitianElement
    generators: tuple[HermitianElement, ...]
    support: SupportBasis | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def support_projector(self) -> Projector:
        return (self.support or full_support(self.algebra)).projector

    def tangent_element(self, theta: np.ndarray) -> HermitianElement:
        out = zero(self.algebra)
        for t, v in zip(np.atleast_1d(theta), self.basis):
            out = out + float(t) * v
        return out

    def parameter_element(self, theta: np.ndarray) -> HermitianElement:
        return self.offset + self.tangent_element(theta)

    def member(self, theta: np.ndarray | Sequence[float]) -> State:
        """The family member exp1(offset + sum theta_i v_i)."""
        return exp1(self.parameter_element(np.asarray(theta, dtype=float)), self.support)


def make_family(
    algebra: Algebra,
    generators: Sequence[HermitianElement],
    offset: HermitianElement | None = None,
) -> ExponentialFamily:
    """Build a family from a spanning set of self-adjoint elements.

    Generators are made traceless (the family is invariant under trace
    shifts), orthonormalized by modified Gram-Schmidt, and the offset is made
    traceless and orthogonal to the tangent space.  Rank-deficient spanning
    sets are rejected.
    """
    gens = tuple(traceless_part(g) for g in generators)
    for g in gens:
        if g.algebra != algebra:
            raise AlgebraMismatchError("generator in wrong algebra")
    basis = tuple(gram_schmidt(list(gens)))
    if offset is None:
        off = zero(algebra)
    else:
        off = project_out(traceless_part(offset), basis)
    return ExponentialFamily(algebra, basis, off, gens, None)


def make_compressed_family(
    parent: ExponentialFamily, p: Projector
) -> ExponentialFamily:
    """The induced family in the corner algebra pAp.

    Parameter space is the c^p image of the parent's; the tangent space may
    lose dimensions (and can become zero, leaving a single state).
    Compressed components below the projector merge tolerance, relative to
    the generator size, are treated as zero.
    """
    if p.rank == 0:
        raise PreconditionError("cannot compress a family by the zero projector")
    support = SupportBasis(p)
    gens = []
    for g in parent.generators:
        _, cg = compress(p, g)
        if cg.norm() > defaults.MAX_EIG_GAP * max(1.0, g.norm()):
            gens.append(cg)
    basis: list[HermitianElement] = []
    for g in gens:
        v = project_out(project_out(g, basis), basis)
        if v.norm() > defaults.MAX_EIG_GAP * max(1.0, g.norm()):
            basis.append(v / v.norm())
    _, off = compress(p, parent.offset)
    off = project_out(off, basis)
    return ExponentialFamily(
        parent.algebra, tuple(basis), off, tuple(gens), support
    )


# -- mean value chart ----------------------------------------------------------


def mean_value_projection(a: HermitianElement, family: ExponentialFamily) -> np.ndarray:
    """Coordinates (<a,v_1>, ..., <a,v_n>) in the orthonormal tangent basis."""
    return np.array([hs_inner(a, v) for v in family.basis], dtype=float)


# -- projection solver ----------------------------------------------------------


@dataclass
class ProjectionResult:
    """Outcome of projecting a state onto a family.

    distance is S(rho, sigma*) when attained, otherwise the best (still
    decreasing) objective value reached before the parameter cap; theta_star
    are coordinates in the orthonormal tangent basis.
    """

    theta_star: np.ndarray
    sigma_star: State
    attained: bool
    grad_residual: float
    iterations: int
    distance: float
    cap_hit: bool = False
    min_hessian_eig: float = float("inf")


def _objective_pieces(family: ExponentialFamily, theta: np.ndarray, moments: np.ndarray):
    """Objective F(a) - theta.m, gradient, state and spectral pairs at theta."""
    value, sigma, pairs, z, mu = _gibbs(family.parameter_element(theta), family.support)
    obj = value - float(theta @ moments)
    grad = mean_value_projection(sigma.element, family) - moments
    return obj, grad, sigma, pairs, z, mu


def _bkm_hessian(family: ExponentialFamily, pairs, z: float, mu: float, means: np.ndarray):
    """BKM covariance of the tangent basis at the current member.

    H_ij = <v_i, Dexp(a)[v_j]> / tr e^a - <v_i,sigma><v_j,sigma>, assembled
    from exp divided differences in the eigenbasis of the parameter element.
    """
    d = family.dim
    H = np.zeros((d, d))
    for bi, (w, V) in enumerate(pairs):
        if w.size == 0:
            continue
        table = divided_differences(w - mu, np.exp, np.exp)
        tilted = [V.conj().T @ v.blocks[bi] @ V for v in family.basis]
        for i in range(d):
            for j in range(i, d):
                val = float(np.sum(tilted[i].conj() * table * tilted[j]).real) / z
                H[i, j] += val
                H[j, i] = H[i, j]
    H -= np.outer(means, means)
    return H


def _decide_attainment(rho: State, family: ExponentialFamily, theta: np.ndarray) -> bool:
    """Whether the solved stationary point is a genuine minimizer.

    A state invertible in the family's carrier algebra never sits on an
    exposed face, so its projection is attained.  A singular state whose
    parameter drifted along a recession direction u has <rho,u> = mu_+(u);
    then the objective is still strictly decreasing along u and the infimum
    lives on the boundary.
    """
    carrier_rank = family.support_projector.rank
    if rho.support_rank == carrier_rank:
        return True
    norm = float(np.linalg.norm(theta))
    if norm < defaults.ATTAIN_PARAM_MIN:
        return True
    direction = family.tangent_element(theta / norm)
    mu, p = max_eig_data(direction)
    by_value = abs(hs_inner(rho.element, direction) - mu) <= defaults.ATTAIN_FACE_VALUE_TOL
    leak = 1.0 - hs_inner(rho.element, p.element)
    by_image = leak <= defaults.ATTAIN_LEAK_TOL
    return not (by_value or by_image)


def project_to_family(
    rho: State,
    family: ExponentialFamily,
    tol: float = defaults.SOLVER_TOL,
    param_cap: float = defaults.PARAM_CAP,
    max_iter: int = defaults.MAX_ITER,
) -> ProjectionResult:
    """Entropy projection of rho onto the family.

    Damped Newton on the convex free-energy objective, Hessian assembled from
    the exp Frechet derivative (the BKM covariance, positive definite along
    the run).  attained=True requires the gradient below ``tol`` inside the
    parameter cap; hitting the cap while the objective still decreases
    reports attained=False, the signature of an infimum on the boundary.
    """
    if rho.algebra != family.algebra:
        raise AlgebraMismatchError("state and family in different algebras")
    if family.support is not None:
        inside = hs_inner(rho.element, family.support_projector.element)
        if inside < 1.0 - defaults.SUPPORT_CUTOFF:
            raise PreconditionError(
                "state not supported in the family's corner algebra; "
                "its entropy distance from the compressed family is infinite"
            )
    moments = mean_value_projection(rho.element, family)
    base = vn_entropy(rho) + hs_inner(rho.element, family.offset)

    theta = np.zeros(family.dim)
    fval, grad, sigma, pairs, z, mu = _objective_pieces(family, theta, moments)
    min_hess = float("inf")
    cap_hit = False
    iterations = 0
    stalled = 0

    while iterations < max_iter:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        if family.dim == 0:
            break
        means = grad + moments
        H = _bkm_hessian(family, pairs, z, mu, means)
        eigs = np.linalg.eigvalsh(H)
        min_hess = min(min_hess, float(eigs[0]))
        if eigs[0] <= 0.0:
            # exponentially flat valley: the analytic Hessian is positive
            # definite but below rounding noise; regularize and continue
            H = H + (abs(eigs[0]) + 1e-15) * np.eye(family.dim)
        step = np.linalg.solve(H, -grad)
        slope = float(grad @ step)
        t = 1.0
        hit_cap_now = False
        nrm = np.linalg.norm(theta + step)
        if nrm > param_cap:
            # shrink along the ray to land on the cap sphere; the objective
            # still decreases there by convexity
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = (lo + hi) / 2.0
                if np.linalg.norm(theta + mid * step) > param_cap:
                    hi = mid
                else:
                    lo = mid
            t = lo
            hit_cap_now = True
        accepted = False
        # resolution floor: near the optimum the true decrease drops below
        # what the objective can represent; the Newton step is still right
        floor = 4.0 * np.finfo(float).eps * (1.0 + abs(fval))
        for _ in range(defaults.ARMIJO_MAX_HALVINGS):
            cand = theta + t * step
            f2, g2, s2, p2, z2, m2 = _objective_pieces(family, cand, moments)
            if f2 <= fval + defaults.ARMIJO_C1 * t * slope + floor or (
                hit_cap_now and f2 < fval
            ):
                theta, fval, grad, sigma, pairs, z, mu = cand, f2, g2, s2, p2, z2, m2
                accepted = True
                break
            t *= 0.5
            hit_cap_now = False
        iterations += 1
        if not accepted:
            # step underflow: nothing representable decreases the objective
            break
        if float(np.linalg.norm(t * step)) <= 1e-14 * (1.0 + np.linalg.norm(theta)):
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
        if hit_cap_now or np.linalg.norm(theta) >= param_cap:
            cap_hit = True
            break

    gnorm = float(np.linalg.norm(grad))
    if gnorm > tol and not cap_hit and iterations >= max_iter:
        raise SolverError(
            f"no convergence in {max_iter} iterations (|grad| = {gnorm:.3e})"
        )

    distance = max(fval - base, 0.0)
    attained = (
        not cap_hit and gnorm <= tol and _decide_attainment(rho, family, theta)
    )
    return ProjectionResult(
        theta_star=theta,
        sigma_star=sigma,
        attained=attained,
        grad_residual=gnorm,
        iterations=iterations,
        distance=distance,
        cap_hit=cap_hit,
        min_hessian_eig=min_hess,
    )


def entropy_distance(
    rho: State,
    family: ExponentialFamily,
    tol: float = defaults.SOLVER_TOL,
    param_cap: float = defaults.PARAM_CAP,
    max_iter: int = defaults.MAX_ITER,
) -> tuple[float, bool]:
    """Entropy distance of rho from the family with its attainment flag.

    When the flag is False the value is the solver's best objective at the
    parameter cap; the objective is monotone decreasing along the run, so it
    upper-bounds the boundary infimum.
    """
    res = project_to_family(rho, family, tol=tol, param_cap=param_cap, max_iter=max_iter)
    return res.distance, res.attained


def distance_continuation(
    rho: State,
    family: ExponentialFamily,
    caps: Sequence[float] = (10.0, 20.0, 40.0, 80.0),
    tol: float = defaults.SOLVER_TOL,
    max_iter: int = defaults.MAX_ITER,
) -> list[tuple[float, float, bool]]:
    """Objective values at a ladder of parameter caps, for extrapolation.

    Returns (cap, value, attained) per cap.  Each cap is an independent solve
    from theta = 0, which retraces the Newton path of the smaller caps up to
    where their cap cut it off; the values are non-increasing in practice,
    not by construction.
    """
    out = []
    for cap in caps:
        value, attained = entropy_distance(
            rho, family, tol=tol, param_cap=float(cap), max_iter=max_iter
        )
        out.append((float(cap), value, attained))
    return out


def pythagorean_residual(rho: State, sigma: State, tau: State) -> float:
    """|S(rho,sigma) + S(sigma,tau) - S(rho,tau)| for an orthogonal triple.

    Precondition (checked): sigma, tau invertible and
    rho - sigma perpendicular to ln(tau) - ln(sigma).
    """
    if not (sigma.is_invertible() and tau.is_invertible()):
        raise PreconditionError("sigma and tau must be invertible")
    log_sigma = log_on_support(sigma)
    log_tau = log_on_support(tau)
    ortho = hs_inner(rho.element - sigma.element, log_tau - log_sigma)
    if abs(ortho) > 1e-10 * max(1.0, (log_tau - log_sigma).norm()):
        raise PreconditionError(
            f"rho - sigma not orthogonal to ln(tau) - ln(sigma): {ortho:.3e}"
        )
    s1 = relative_entropy(rho, sigma)
    s2 = relative_entropy(sigma, tau)
    s3 = relative_entropy(rho, tau)
    return abs(s1 + s2 - s3)
