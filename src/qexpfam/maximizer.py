"""Directional derivatives of the entropy distance and maximizer certificates.

On the face of states sharing a support projector p, the entropy distance
from a linear family is differentiable at any state whose projection onto the
family is attained, with derivative <u, ln^p(rho) - theta> along traceless
directions u in pAp, theta being the canonical parameter of the projection.
A local maximizer therefore satisfies rho = exp1^p(p theta p) and its
distance collapses to the free-energy difference F(theta) - F^p(p theta p).
In an abelian algebra this says a maximizer is the conditional distribution
of its own projection on its support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import PreconditionError
from .family import (
    ExponentialFamily,
    ProjectionResult,
    free_energy,
    project_to_family,
)
from .linalg import HermitianElement, frechet_block, hs_inner
from .states import (
    Projector,
    State,
    SupportBasis,
    _support_pairs,
    compress,
    log_on_support,
    support_projector,
)


def dlnp(rho: State, u: HermitianElement) -> HermitianElement:
    """Derivative of the support logarithm ln^p at rho in direction u.

    Computed by divided differences of ln on the support spectrum; equals the
    resolvent integral of (rho + s p)^-1 u (rho + s p)^-1 over s > 0.
    """
    if not support_projector(rho).contains(u):
        raise PreconditionError("direction is not supported in the face algebra pAp")
    blocks = [
        frechet_block(w, V, ub, np.log, np.reciprocal)
        for (w, V), ub in zip(_support_pairs(rho), u.blocks)
    ]
    return HermitianElement(rho.algebra, blocks)


def dE_directional_derivative(
    rho: State,
    u: HermitianElement,
    family: ExponentialFamily,
    projection: ProjectionResult | None = None,
) -> float:
    """Directional derivative of the entropy distance at rho along u.

    Requires an attained projection of rho and a traceless direction u
    supported in the face algebra of rho; the value is
    <u, ln^p(rho) - theta> with theta the projection's canonical parameter.
    """
    if not support_projector(rho).contains(u):
        raise PreconditionError("direction is not supported in the face algebra pAp")
    if abs(u.trace()) > 1e-10 * max(1.0, u.norm()):
        raise PreconditionError("direction must be traceless")
    if projection is None:
        projection = project_to_family(rho, family)
    if not projection.attained:
        raise PreconditionError(
            "projection of rho is not attained; the derivative is undefined"
        )
    theta = family.parameter_element(projection.theta_star)
    return hs_inner(u, log_on_support(rho) - theta)


@dataclass(frozen=True)
class MaximizerCertificate:
    """Evaluation of the local-maximizer condition rho = exp1^p(p theta p).

    certified_value F(theta) - F^p(p theta p) equals the entropy distance
    whenever the residual vanishes; gradient_norm measures the directional
    derivative over traceless face directions.
    """

    state: State
    support: Projector
    theta: HermitianElement
    residual: float
    certified_value: float
    gradient_norm: float
    distance: float

    @property
    def holds(self) -> bool:
        return self.residual <= 1e-8


def maximizer_certificate(
    rho: State,
    family: ExponentialFamily,
    tol: float = defaults.SOLVER_TOL,
    require_attained: bool = True,
) -> MaximizerCertificate:
    """Evaluate the necessary condition for a local maximizer of the distance.

    Projects rho, compares it against the compressed family member
    exp1^p(p theta p) on its own support, and reports the certified distance
    F(theta) - F^p(p theta p) together with the face-gradient norm.  With
    ``require_attained=False`` the certificate is evaluated at the solver's
    final iterate even when the projection recedes to the family boundary.
    """
    res = project_to_family(rho, family, tol=tol)
    if require_attained and not res.attained:
        raise PreconditionError("projection of rho is not attained")
    theta = family.parameter_element(res.theta_star)
    p = support_projector(rho)
    ptp, _ = compress(p, theta)
    f_face, candidate = free_energy(ptp, SupportBasis(p))
    residual = (rho.element - candidate.element).norm()
    f_theta, _ = free_energy(theta)
    grad = log_on_support(rho) - theta
    _, grad_face = compress(p, grad)
    return MaximizerCertificate(
        state=rho,
        support=p,
        theta=theta,
        residual=residual,
        certified_value=float(f_theta - f_face),
        gradient_norm=grad_face.norm(),
        distance=res.distance,
    )


# -- local search over a face ----------------------------------------------------


def _clip_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    srt = np.sort(values)[::-1]
    css = np.cumsum(srt) - 1.0
    idx = np.arange(1, len(values) + 1)
    cond = srt - css / idx > 0
    k = int(np.nonzero(cond)[0][-1]) + 1
    tau = css[k - 1] / k
    return np.maximum(values - tau, 0.0)


def _project_face_state(support: SupportBasis, a: HermitianElement) -> State:
    """Nearest state with support inside p: eigenvalue clipping to the simplex."""
    small = support.restrict(a)
    blocks = []
    ws, vs = [], []
    for s in small:
        if s.shape[0] == 0:
            ws.append(np.zeros(0))
            vs.append(s)
            continue
        w, V = np.linalg.eigh(s)
        ws.append(w)
        vs.append(V)
    clipped = _clip_to_simplex(np.concatenate(ws))
    out = []
    k = 0
    for w, V in zip(ws, vs):
        c = clipped[k : k + len(w)]
        k += len(w)
        out.append((V * c) @ V.conj().T if len(w) else V)
    return State(support.embed(out))


@dataclass(frozen=True)
class SearchCandidate:
    """One ascent run: where it stopped and how it certifies."""

    start_index: int
    state: State
    value: float
    stationary: bool
    projection_attained: bool
    certificate: MaximizerCertificate | None


def local_max_search(
    family: ExponentialFamily,
    p: Projector,
    n_starts: int = 6,
    max_steps: int = 200,
    seed: int = 0,
    step_tol: float = 1e-9,
    face_direction: HermitianElement | None = None,
) -> list[SearchCandidate]:
    """Projected gradient ascent of the entropy distance over the face of p.

    When p is the maximal projector of a tangent direction (pass it as
    face_direction) the objective is evaluated inside the compressed family,
    where it agrees with the full entropy distance on the face and stays
    attainable.  Starts are drawn from a seeded Dirichlet over spectra in the
    face; iterates are re-projected to the trace-one positive elements of
    pAp by eigenvalue clipping.  Iterates without an attained projection are
    flagged and their runs stopped.  Deterministic for a fixed seed; results
    ordered by start index.
    """
    if p.rank == 0:
        raise PreconditionError("the face projector must be non-zero")
    support = SupportBasis(p)
    rng = np.random.default_rng(seed)

    target = family
    if face_direction is not None:
        from .states import max_eig_data
        from .family import make_compressed_family

        _, p_dir = max_eig_data(face_direction)
        if not p_dir.same_image(p, tol=1e-8):
            raise PreconditionError(
                "face projector does not match the direction's maximal projector"
            )
        target = make_compressed_family(family, p)

    def evaluate(rho: State):
        res = project_to_family(rho, target, param_cap=defaults.RI_PARAM_CAP)
        theta = target.parameter_element(res.theta_star)
        return res.distance, res.attained, theta

    starts: list[State] = [State(p.element / p.rank)]
    for _ in range(max(0, n_starts - 1)):
        lam = rng.dirichlet(np.ones(p.rank))
        blocks = []
        k = 0
        for q_cols in support.columns:
            r = q_cols.shape[1]
            if r == 0:
                blocks.append(np.zeros((0, 0)))
                continue
            g = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
            q, rr = np.linalg.qr(g)
            q = q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))
            blocks.append((q * lam[k : k + r]) @ q.conj().T)
            k += r
        starts.append(State(support.embed(blocks)))

    candidates = []
    for idx, rho in enumerate(starts):
        value, attained, theta = evaluate(rho)
        stationary = False
        for _ in range(max_steps):
            if not attained:
                break
            q = support_projector(rho)
            grad = log_on_support(rho) - theta
            _, grad_face = compress(q, grad)
            if grad_face.norm() <= step_tol:
                stationary = True
                break
            step = 1.0
            improved = False
            while step > 1e-14:
                trial = _project_face_state(support, rho.element + step * grad_face)
                tval, tatt, ttheta = evaluate(trial)
                if tval > value + 1e-4 * step * grad_face.norm() ** 2:
                    rho, value, attained, theta = trial, tval, tatt, ttheta
                    improved = True
                    break
                step *= 0.5
            if not improved:
                stationary = True
                break
        cert = None
        try:
            cert = maximizer_certificate(rho, family)
        except PreconditionError:
            cert = None
        candidates.append(
            SearchCandidate(
                start_index=idx,
                state=rho,
                value=value,
                stationary=stationary,
                projection_attained=attained,
                certificate=cert,
            )
        )
    return candidates
