"""Directional derivatives of the entropy distance and maximizer certificates.

On the face of states sharing a support projector p, the entropy distance
from a linear family is differentiable at any state whose projection onto the
family is attained, with derivative <u, ln^p(rho) - theta> along traceless
directions u in pAp, theta being the canonical parameter of the projection.
A local maximizer therefore satisfies rho = exp1^p(p theta p) and its
distance collapses to the free-energy difference F(theta) - F^p(p theta p).
In an abelian algebra this says a maximizer is the conditional distribution
of its own projection on its support.  The search and the certificates read
the distance from the one exact path, family._chain_projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .family import (ExponentialFamily, ProjectionResult, _chain_projections, face_chain,
                     free_energy)
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
    return HermitianElement._trusted(
        rho.algebra, [frechet_block(w, V, ub, "log") for (w, V), ub in pairs])


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
    return _certificates([rho], family)[0]


def _certificates(rhos: Sequence[State], family: ExponentialFamily
                  ) -> list[MaximizerCertificate]:
    """maximizer_certificate of each state, solved on the one exact path."""
    results = _chain_projections(rhos, family)
    if not all(res.attained for _, res in results):
        raise PreconditionError("projection of rho is not attained")
    return [_certificate(rho, family, res) for rho, (_, res) in zip(rhos, results)]


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


def _face_state(p: Projector, vectors: list[np.ndarray], values: np.ndarray) -> State:
    """The state with support inside p whose block k is V_k diag(w_k) V_k* on
    Im(p), V_k = vectors[k] and w_k its slice of the flat spectrum values."""
    cuts = np.cumsum([V.shape[1] for V in vectors])[:-1]
    return State(p.embed([(V * w) @ V.conj().T for V, w in zip(vectors, np.split(values, cuts))]))


def _project_face_state(p: Projector, a: HermitianElement) -> State:
    """Nearest state with support inside p: eigenvalue clipping to the simplex."""
    pairs = [np.linalg.eigh(s) for s in p.restrict(a.blocks)]
    return _face_state(p, [V for _, V in pairs],
                       _clip_to_simplex(np.concatenate([w for w, _ in pairs])))


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

    Each iterate is evaluated once by the one exact path, _chain_projections,
    in the family that face_chain ends in for the first start p / rank(p),
    where it agrees with the entropy distance on the face and stays
    attainable.  Starts are drawn from a seeded Dirichlet over spectra in the
    face; iterates are re-projected to the trace-one positive elements of
    pAp by eigenvalue clipping.  Iterates without an attained projection
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
        vectors = [haar_unitary(q.shape[1], rng) if q.size else np.zeros((0, 0))
                   for q in p.columns]
        starts.append(_face_state(p, vectors, lam))

    projectors, target = face_chain(starts[0], family)

    def evaluate(rho: State) -> ProjectionResult:
        return _chain_projections([rho], target)[0][1]

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
