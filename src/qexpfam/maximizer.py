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
from .family import ExponentialFamily, ProjectionResult, face_chain, free_energy, project_to_family
from .linalg import HermitianElement, frechet_block, hs_inner
from .sampling import haar_unitary
from .states import (
    Projector,
    State,
    _support_pairs,
    compress,
    log_on_support,
    support_projector,
)


def _check_in_face_algebra(p: Projector, u: HermitianElement, traceless: bool) -> None:
    """Reject u outside the face algebra pAp or, if traceless is asked, with a trace."""
    if not p.contains(u):
        raise PreconditionError("direction is not supported in the face algebra pAp")
    if traceless and abs(u.trace()) > 1e-10 * max(1.0, u.norm()):
        raise PreconditionError("direction must be traceless")


def _face_gradient(rho: State, theta: HermitianElement) -> tuple[Projector, HermitianElement]:
    """The support projector p of rho and the face gradient c^p(ln^p(rho) - theta)."""
    p = support_projector(rho)
    _, grad_face = compress(p, log_on_support(rho) - theta)
    return p, grad_face


def dlnp(rho: State, u: HermitianElement) -> HermitianElement:
    """Derivative of the support logarithm ln^p at rho in direction u.

    Computed by divided differences of ln on the support spectrum; equals the
    resolvent integral of (rho + s p)^-1 u (rho + s p)^-1 over s > 0.
    """
    _check_in_face_algebra(support_projector(rho), u, traceless=False)
    pairs = zip(_support_pairs(rho), u.blocks)
    return HermitianElement(rho.algebra, [frechet_block(w, V, ub, "log") for (w, V), ub in pairs])


def dE_directional_derivative(rho: State, u: HermitianElement, family: ExponentialFamily) -> float:
    """Directional derivative of the entropy distance at rho along u.

    Requires an attained projection of rho and a traceless direction u
    supported in the face algebra of rho; the value is
    <u, ln^p(rho) - theta> with theta the projection's canonical parameter.
    """
    return maximizer_certificate(rho, family).derivative(u)


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

    def derivative(self, u: HermitianElement) -> float:
        """The directional derivative <u, ln^p(rho) - theta> of the distance
        along a traceless u in pAp (dE_directional_derivative); without an
        attained projection, the same expression at the solver's last iterate."""
        _check_in_face_algebra(self.support, u, traceless=True)
        return hs_inner(u, log_on_support(self.state) - self.theta)


def maximizer_certificate(rho: State, family: ExponentialFamily) -> MaximizerCertificate:
    """Evaluate the necessary condition for a local maximizer of the distance.

    Projects rho, compares it against the compressed family member
    exp1^p(p theta p) on its own support, and reports the certified distance
    F(theta) - F^p(p theta p) together with the face-gradient norm.  The
    projection must be attained.
    """
    res = project_to_family(rho, family)
    if not res.attained:
        raise PreconditionError("projection of rho is not attained")
    return _certificate(rho, family, res)


def _certificate(rho: State, family: ExponentialFamily, res: ProjectionResult
                 ) -> MaximizerCertificate:
    """The certificate of rho from res, its projection onto family; at an
    unattained res, the certificate of the solver's last iterate."""
    theta = family.parameter_element(res.theta_star)
    p, grad_face = _face_gradient(rho, theta)
    ptp, _ = compress(p, theta)
    f_face, candidate = free_energy(ptp, p)
    residual = (rho.element - candidate.element).norm()
    f_theta, _ = free_energy(theta)
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


def _project_face_state(p: Projector, a: HermitianElement) -> State:
    """Nearest state with support inside p: eigenvalue clipping to the simplex."""
    pairs = [np.linalg.eigh(s) for s in p.restrict(a.blocks)]
    clipped = _clip_to_simplex(np.concatenate([w for w, _ in pairs]))
    out, k = [], 0
    for w, V in pairs:
        out.append((V * clipped[k : k + len(w)]) @ V.conj().T)
        k += len(w)
    return State(p.embed(out))


@dataclass(frozen=True)
class SearchCandidate:
    """One ascent run: where it stopped and how it certifies.  certificate is
    None when the end state's projection is not attained, and always when
    the face chain of p / rank(p) is not empty (a state on a proper face
    never attains its full-family projection)."""

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
) -> list[SearchCandidate]:
    """Projected gradient ascent of the entropy distance over the face of p.

    The objective is evaluated in the family that face_chain ends in for the
    first start p / rank(p), where it agrees with the entropy distance on the
    face and stays attainable; each iterate is solved there once, at
    RI_PARAM_CAP.  Starts are drawn from a seeded Dirichlet over spectra in
    the face; iterates are re-projected to the trace-one positive elements
    of pAp by eigenvalue clipping.  Iterates without an attained projection
    are flagged and their runs stopped.  When the chain is empty, a
    candidate with an attained projection is certified from that projection
    (maximizer_certificate).  Deterministic for a fixed seed; results
    ordered by start index.
    """
    if p.rank == 0:
        raise PreconditionError("the face projector must be non-zero")
    rng = np.random.default_rng(seed)

    starts: list[State] = [State(p.element / p.rank)]
    for _ in range(max(0, n_starts - 1)):
        lam = rng.dirichlet(np.ones(p.rank))
        blocks = []
        k = 0
        for q_cols in p.columns:
            r = q_cols.shape[1]
            if r == 0:
                blocks.append(np.zeros((0, 0)))
                continue
            q = haar_unitary(r, rng)
            blocks.append((q * lam[k : k + r]) @ q.conj().T)
            k += r
        starts.append(State(p.embed(blocks)))

    projectors, target = face_chain(starts[0], family)

    def evaluate(rho: State) -> ProjectionResult:
        return project_to_family(rho, target, param_cap=defaults.RI_PARAM_CAP)

    candidates = []
    for idx, rho in enumerate(starts):
        res = evaluate(rho)
        stationary = False
        for _ in range(max_steps):
            if not res.attained:
                break
            _, grad_face = _face_gradient(rho, target.parameter_element(res.theta_star))
            if grad_face.norm() <= 1e-9:
                stationary = True
                break
            step = 1.0
            while step > 1e-14:
                trial = _project_face_state(p, rho.element + step * grad_face)
                tres = evaluate(trial)
                if tres.distance > res.distance + 1e-4 * step * grad_face.norm() ** 2:
                    rho, res = trial, tres
                    break
                step *= 0.5
            else:
                stationary = True
                break
        cert = _certificate(rho, family, res) if not projectors and res.attained else None
        candidates.append(
            SearchCandidate(idx, rho, res.distance, stationary, res.attained, cert))
    return candidates
