"""Mean value set boundaries of two-dimensional families.

The mean value set is the orthogonal projection of state space onto the
tangent plane.  A sweep walks the unit directions u(alpha) = cos(alpha) v1 +
sin(alpha) v2, records the support value (the largest eigenvalue of u) and
the exposed face it cuts out.  The face projects INTO the supporting line, so
it is a point or a segment; its endpoints are extreme states, i.e. top and
bottom eigenvectors of the orthogonal sweep direction compressed to the
maximal eigenspace, block by block.

Segments appear exactly where the two largest eigenvalue branches of u(alpha)
cross.  DirectionSweep.crossings brackets every grid interval across which
the maximal projector jumps and locates the crossing in it, all in lockstep,
so tangent segments are found even when no grid direction hits their normal
exactly; the closure atlas takes its spikes from the same rule.
Rows with a simple top eigenvalue expose a point, read for all of them at
once from the sweep's eigenvectors; only rows with a multiple one go through
_face.

Each segment endpoint is classified at its own crossing, not against the
grid: the one-sided radius of curvature of the boundary beyond it is zero
at an exposed corner and positive at a non-exposed tangent point.  A sweep
with fewer than SWEEP_MIN_ANGLES angles is rejected, but a finer one is not
fully resolved either: two crossings inside one grid interval leave at most
one segment (a random (1,1,1,1) family shows 3 of its 4 segments at 64
angles).

Both run on linalg.DirectionSweep, a raw-block kernel over whole arrays of
angles that the closure atlas and the face finder share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import PreconditionError, UnderResolvedSweepError
from .family import ExponentialFamily
from .linalg import DirectionSweep, SweepSpectra


@dataclass(frozen=True)
class BoundaryFace:
    """Exposed face of the mean value set in one sweep direction.

    endpoints holds the two extreme points in tangent coordinates (equal for
    a point face); dim is 0 for a point, 1 for a segment.  radii holds the
    one-sided radius of curvature of the boundary beyond each endpoint (0 for
    a point face); labels reads them as "exposed" (r = 0) or "non-exposed".
    """

    alpha: float
    support_value: float
    endpoints: tuple[tuple[float, float], tuple[float, float]]
    dim: int
    multiplicity: int
    refined: bool = False
    radii: tuple[float, float] = (0.0, 0.0)

    @property
    def labels(self) -> tuple[str, str]:
        res = _resolution(self.support_value)
        return tuple("non-exposed" if r > res else "exposed" for r in self.radii)


@dataclass(frozen=True)
class MeanValueBoundary:
    """Swept boundary of a 2D mean value set, faces ordered by angle."""

    family: ExponentialFamily
    n_angles: int
    faces: tuple[BoundaryFace, ...]

    def segments(self) -> list[BoundaryFace]:
        return [f for f in self.faces if f.dim == 1]


@dataclass(frozen=True)
class BoundaryClassification:
    """Segment endpoints of the boundary labelled exposed / non-exposed."""

    vertices: tuple[tuple[tuple[float, float], str], ...]

    @property
    def nonexposed(self) -> list[tuple[float, float]]:
        return [v for v, label in self.vertices if label == "non-exposed"]

    @property
    def n_nonexposed(self) -> int:
        return len(self.nonexposed)


def _resolution(mu: float) -> float:
    """Distance below which two boundary points of a face with support value
    mu count as one, and radius of curvature below which a corner is exposed."""
    return 1e-7 * (1.0 + abs(mu))


def _face(kernel: DirectionSweep, alpha: float, spectra: SweepSpectra, i: int,
          refined: bool = False) -> BoundaryFace:
    """Exposed face in direction alpha from row i of the sweep spectra, for a
    row whose maximal eigenspace may be multiple (_faces stacks the others).

    A segment endpoint psi in block k is labelled by the one-sided radius of
    curvature of the boundary beyond it, from Kato's second-order perturbation
    of the top eigenvector along u_perp:

        r = sum_j 2 |<psi_j, u_perp psi>|^2 / (mu - lam_j)

    over the eigenpairs (lam_j, psi_j) of block k outside the maximal
    eigenspace.  r = 0 means nearby directions still expose psi (an exposed
    corner); r > 0 means they expose points converging to psi (a non-exposed
    tangent point).
    """
    c, s = np.cos(alpha), np.sin(alpha)
    mu = max(float(w[i, -1]) for w in spectra.values)
    lows, highs, perps, mult = [], [], {}, 0
    for k, (w, V) in enumerate(zip(spectra.values, spectra.vectors)):
        keep = w[i] >= mu - defaults.MAX_EIG_GAP
        mult += int(keep.sum())
        if keep.any():
            # extreme eigenvectors of the orthogonal direction on the maximal eigenspace
            Q, perp = V[i][:, keep], -s * kernel.a[k] + c * kernel.b[k]
            vals, Y = np.linalg.eigh(Q.conj().T @ perp @ Q)
            lows.append((float(vals[0]), k, Q @ Y[:, 0]))
            highs.append((float(vals[-1]), k, Q @ Y[:, -1]))
            perps[k] = perp
    ends = [min(lows, key=lambda e: e[0]), max(highs, key=lambda e: e[0])]
    e_lo, e_hi = [
        tuple(float((psi.conj() @ v[k] @ psi).real) for v in (kernel.a, kernel.b))
        for _, k, psi in ends
    ]
    dim = 1 if np.hypot(e_hi[0] - e_lo[0], e_hi[1] - e_lo[1]) > _resolution(mu) else 0

    def radius(k: int, psi: np.ndarray) -> float:
        w, V = spectra.values[k][i], spectra.vectors[k][i]
        out = w < mu - defaults.MAX_EIG_GAP
        coupling = V[:, out].conj().T @ (perps[k] @ psi)
        return float(np.sum(2.0 * np.abs(coupling) ** 2 / (mu - w[out])))

    radii = tuple(radius(k, psi) for _, k, psi in ends) if dim else (0.0, 0.0)
    return BoundaryFace(alpha=float(alpha), support_value=mu, endpoints=(e_lo, e_hi),
                        dim=dim, multiplicity=mult, refined=refined, radii=radii)


def _faces(kernel: DirectionSweep, alphas, spectra: SweepSpectra,
           refined: bool = False) -> list[BoundaryFace]:
    """Exposed faces in directions alphas, one per row of the sweep spectra:
    stacked points of the top eigenvector where the maximal eigenspace is
    one-dimensional (summed over blocks), _face elsewhere."""
    mu = spectra.top()
    keep = [w >= (mu - defaults.MAX_EIG_GAP)[:, None] for w in spectra.values]
    simple = sum(k.sum(axis=1) for k in keep) == 1
    points: dict[int, tuple[float, float]] = {}
    for k, V in enumerate(spectra.vectors):
        rows = np.flatnonzero(simple & keep[k][:, -1])
        psi = V[rows, :, -1]
        x, y = ((psi.conj()[:, None, :] @ v[k] @ psi[:, :, None])[:, 0, 0].real.tolist()
                for v in (kernel.a, kernel.b))
        points.update(zip(rows.tolist(), zip(x, y)))
    return [
        BoundaryFace(alpha=float(a), support_value=float(mu[i]), endpoints=(points[i],) * 2,
                     dim=0, multiplicity=1, refined=refined)
        if i in points else _face(kernel, a, spectra, i, refined)
        for i, a in enumerate(alphas)
    ]


def mean_value_boundary_sweep(
    family: ExponentialFamily, n_angles: int = defaults.SWEEP_ANGLES
) -> MeanValueBoundary:
    """Sweep the boundary of the mean value set of a 2D family.

    Emits one face per grid angle plus one per eigenvalue crossing between
    grid angles (DirectionSweep.crossings); deterministic order by angle.
    """
    if family.dim != 2:
        raise PreconditionError("boundary sweeps require a 2D tangent space")
    if family.support is not None:
        raise PreconditionError("boundary sweeps require a full-algebra family")
    kernel = DirectionSweep(family.basis[0].blocks, family.basis[1].blocks)
    alphas = np.linspace(0.0, 2.0 * np.pi, int(n_angles), endpoint=False)
    spectra = kernel.spectra(alphas)
    kinks = kernel.crossings(alphas, spectra)
    faces = (_faces(kernel, alphas, spectra)
             + _faces(kernel, kinks, kernel.spectra(kinks), refined=True))
    faces.sort(key=lambda f: f.alpha)
    return MeanValueBoundary(family=family, n_angles=int(n_angles), faces=tuple(faces))


def classify_boundary_faces(boundary: MeanValueBoundary) -> BoundaryClassification:
    """Collect the labelled segment endpoints of the boundary, once each.

    An endpoint is exposed when some sweep direction cuts out exactly that
    point and non-exposed when nearby directions only expose points
    converging to it (the tangent-point situation); _face decides which from
    the curvature radius at the endpoint.  Endpoints of different segments
    closer than the face resolution are one vertex.  A sweep with fewer than
    SWEEP_MIN_ANGLES angles is rejected as under-resolved.
    """
    if boundary.n_angles < defaults.SWEEP_MIN_ANGLES:
        raise UnderResolvedSweepError(
            f"need at least {defaults.SWEEP_MIN_ANGLES} sweep angles to "
            f"classify faces, got {boundary.n_angles}"
        )
    vertices: list[tuple[tuple[float, float], str]] = []
    for seg in boundary.segments():
        res = _resolution(seg.support_value)
        for e, label in zip(seg.endpoints, seg.labels):
            if not any(np.hypot(e[0] - q[0], e[1] - q[1]) <= res for q, _ in vertices):
                vertices.append((e, label))
    return BoundaryClassification(vertices=tuple(vertices))
