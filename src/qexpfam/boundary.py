"""Mean value set boundaries of two-dimensional families.

The mean value set is the orthogonal projection of state space onto the
tangent plane.  A sweep walks the unit directions u(alpha) = cos(alpha) v1 +
sin(alpha) v2 and records the support value (the largest eigenvalue of u)
and the exposed face, a point or a segment whose endpoints are the extreme
eigenvectors of the orthogonal direction compressed to the maximal
eigenspace.  Segments appear exactly where the two largest eigenvalue
branches cross; DirectionSweep.crossings locates them between grid angles
(both, where a third branch passes the top inside one interval), and the
closure atlas takes its spikes from the same rule.  Grid and crossing rows
share one stacked face kernel (_faces), whose record array the writers read
(MeanValueBoundary.faces).

Each segment endpoint is classified at its own crossing by the one-sided
radius of curvature beyond it: zero at an exposed corner, positive at a
non-exposed tangent point.  Sweeps below SWEEP_MIN_ANGLES angles are
rejected; a finer one still misses two crossings in one grid interval whose
top eigenspace swaps away and back.  All of it runs on linalg.DirectionSweep,
which the closure atlas and the face finder share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import PreconditionError, UnderResolvedSweepError
from .family import ExponentialFamily
from .linalg import DirectionSweep, SweepSpectra, top_eigenspace


# one row of MeanValueBoundary.faces
FACE = np.dtype([("alpha", float), ("support_value", float), ("endpoints", float, (2, 2)),
                 ("dim", int), ("refined", bool), ("radii", float, (2,))])


@dataclass(frozen=True)
class MeanValueBoundary:
    """Swept boundary of a 2D mean value set.

    faces is a read-only record array, one row per exposed face, sorted by
    alpha with a stable sort, so a grid row comes before a refined row at the
    same angle.  Its columns:

    - alpha: the sweep angle of the direction u(alpha);
    - support_value: the largest eigenvalue of u(alpha);
    - endpoints: (2, 2), the low and the high extreme point in tangent
      coordinates (equal for a point face);
    - dim: 0 for a point, 1 for a segment;
    - refined: True for a located eigenvalue crossing between grid angles;
    - radii: (2,), the one-sided radius of curvature of the boundary beyond
      each endpoint (0 for a point face).
    """

    family: ExponentialFamily
    n_angles: int
    faces: np.recarray

    def segments(self) -> np.recarray:
        return self.faces[self.faces.dim == 1]

    def nonexposed(self) -> np.ndarray:
        """(n_faces, 2) flags: the endpoint is a non-exposed tangent point,
        its radius exceeds the face resolution (an exposed corner has 0)."""
        return self.faces.radii > _resolution(self.faces.support_value)[:, None]

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Face row and endpoint slot of every boundary point in angle order:
        the one point of a point face, both endpoints of a segment."""
        row = np.repeat(np.arange(len(self.faces)), self.faces.dim + 1)
        return row, np.arange(len(row)) - np.searchsorted(row, row)


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


def _resolution(mu: np.ndarray | float) -> np.ndarray | float:
    """Distance below which two boundary points of a face with support value
    mu count as one, and radius of curvature below which a corner is exposed."""
    return 1e-7 * (1.0 + np.abs(mu))


def _faces(kernel: DirectionSweep, alphas, spectra: SweepSpectra,
           refined: bool = False) -> np.ndarray:
    """Exposed faces in directions alphas, one FACE row per sweep row.

    The rows are grouped by the rank r of their maximal eigenspace in each
    block.  One stacked eigh per (block, r) group diagonalizes the orthogonal
    direction u_perp compressed to that eigenspace; its lowest and highest
    eigenvectors are the candidate ends, and over the blocks the lowest value
    gives the low end and the highest the high end (the first block on
    ties).  A row is a segment when its ends are farther apart than the face
    resolution, and only segment ends get a radius: the one-sided radius of
    curvature of the boundary beyond the end psi in block k, from Kato's
    second-order perturbation of the top eigenvector along u_perp,

        r = sum_j 2 |<psi_j, u_perp psi>|^2 / (mu - lam_j)

    over the eigenpairs (lam_j, psi_j) of block k outside the maximal
    eigenspace.  r = 0 means nearby directions still expose psi (an exposed
    corner); r > 0 means they expose points converging to psi (a non-exposed
    tangent point).
    """
    alphas = np.asarray(alphas, dtype=float)
    n, n_blocks = len(alphas), len(spectra.values)
    c, s = np.cos(alphas), np.sin(alphas)
    mu, ranks = top_eigenspace(spectra.values)
    # per end (low, high), block and row: the value to minimize and the point
    key = np.full((2, n_blocks, n), np.inf)
    pts = np.zeros((2, n_blocks, n, 2))
    groups = []
    for k, (V, rank) in enumerate(zip(spectra.vectors, ranks)):
        size = V.shape[-1]
        # contiguous eigenvector rows, the layout of V[i][:, mask].T, so BLAS sums as per row
        Vt = np.ascontiguousarray(V.swapaxes(1, 2))
        for r in sorted(set(rank[rank > 0].tolist())):  # np.unique imports numpy.ma
            idx = np.flatnonzero(rank == r)
            Qt = Vt[idx, size - r:]
            Q = Qt.swapaxes(1, 2)
            perp = -s[idx, None, None] * kernel.a[k] + c[idx, None, None] * kernel.b[k]
            vals, Y = np.linalg.eigh(Qt.conj() @ perp @ Q)
            key[0, k, idx], key[1, k, idx] = vals[:, 0], -vals[:, -1]
            ends = [(Q @ Y[:, :, j, None])[:, :, 0] for j in (0, -1)]
            for j, psi in enumerate(ends):
                for x, v in enumerate((kernel.a[k], kernel.b[k])):
                    xv = psi.conj()[:, None, :] @ v @ psi[:, :, None]
                    pts[j, k, idx, x] = xv[:, 0, 0].real
            groups.append((k, idx, size - r, perp, ends, Vt))
    best = key.argmin(axis=1)
    e = pts[np.arange(2)[:, None], best, np.arange(n)]
    dim = np.hypot(*(e[1] - e[0]).T) > _resolution(mu)

    radii = np.zeros((n, 2))
    for k, idx, out, perp, ends, Vt in groups:
        w = spectra.values[k]
        for j, psi in enumerate(ends):
            sel = dim[idx] & (best[j, idx] == k)
            rows = idx[sel]
            coupling = (Vt[rows, :out].conj() @ (perp[sel] @ psi[sel][:, :, None]))[:, :, 0]
            radii[rows, j] = np.sum(2.0 * np.abs(coupling) ** 2
                                    / (mu[rows, None] - w[rows, :out]), axis=1)

    return np.rec.fromarrays([alphas, mu, e.swapaxes(0, 1), dim, np.full(n, refined), radii],
                             dtype=FACE)


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
    n = int(n_angles)
    if n < 1:
        raise PreconditionError(f"a boundary sweep needs at least one angle, got {n}")
    kernel = DirectionSweep(family.basis[0].blocks, family.basis[1].blocks)
    alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    spectra = kernel.spectra(alphas)
    kinks, at = kernel.crossings(alphas, *spectra.max_projectors())
    faces = np.concatenate([_faces(kernel, alphas, spectra),
                            _faces(kernel, kinks, at, refined=True)])
    faces = faces[np.argsort(faces["alpha"], kind="stable")].view(np.recarray)
    faces.flags.writeable = False
    return MeanValueBoundary(family=family, n_angles=n, faces=faces)


def classify_boundary_faces(boundary: MeanValueBoundary) -> BoundaryClassification:
    """Collect the labelled segment endpoints of the boundary, once each.

    An endpoint is exposed when some sweep direction cuts out exactly that
    point and non-exposed when nearby directions only expose points
    converging to it (the tangent-point situation); the curvature radius at
    the endpoint decides which (MeanValueBoundary.nonexposed).  Endpoints of
    different segments closer than the face resolution are one vertex.  A
    sweep below SWEEP_MIN_ANGLES angles is rejected as under-resolved.
    """
    if boundary.n_angles < defaults.SWEEP_MIN_ANGLES:
        raise UnderResolvedSweepError(
            f"need at least {defaults.SWEEP_MIN_ANGLES} sweep angles to "
            f"classify faces, got {boundary.n_angles}"
        )
    vertices: list[tuple[tuple[float, float], str]] = []
    seg = boundary.faces.dim == 1
    f, flags = boundary.faces[seg], boundary.nonexposed()[seg]
    for ends, res, labels in zip(f.endpoints.tolist(), _resolution(f.support_value).tolist(),
                                 flags.tolist()):
        for e, nonexposed in zip(ends, labels):
            if not any(np.hypot(e[0] - q[0], e[1] - q[1]) <= res for q, _ in vertices):
                vertices.append((tuple(e), "non-exposed" if nonexposed else "exposed"))
    return BoundaryClassification(vertices=tuple(vertices))
