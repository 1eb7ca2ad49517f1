"""The Mat(2,C) + C cone model and its two named families.

State space of this algebra is a 4D cone over the Bloch ball.  Every 2D
linear family can be rotated into the 3D slice U = span{s1, s2} + R z with
z = -id2/2 + 1, whose closure is the cone C over the base disk K with apex
0_2 + 1.  The angle between the tangent plane and z decides the shape of the
mean value set: a triangle at 0, an ellipse with a corner and two non-exposed
tangent points below pi/3, an ellipse from pi/3 on.

The model's constants (the Pauli elements PAULI, the apex APEX and its state
APEX_STATE, z as Z, the tracial third, the orthonormal slice frame and the
cone's heights) are built once, at import, and read by name: elements and
states are immutable.

The dividing angle pi/3 belongs to the Staffelberg family, whose entropy
distance is discontinuous at the base-circle state rho(0); the swallow family
at arccos(sqrt(2/5)) has two non-exposed faces but a continuous distance.
"""

from __future__ import annotations

import enum

import numpy as np

from .boundary import classify_boundary_faces, mean_value_boundary_sweep
from .closures import ClosureAtlas, geodesic_closure_atlas, rI_membership
from .errors import PreconditionError
from .family import (
    ExponentialFamily,
    _chart,
    _gibbs,
    _gibbs_spectra,
    distance_continuation,
    entropy_distance,
    make_family,
    mean_value_projection,
)
from .findings import Report
from .linalg import (
    Algebra,
    HermitianElement,
    embed_block,
    hs_inner,
    identity,
)
from .sampling import random_spectra
from .states import (
    Projector,
    State,
    _rank_one_blocks,
    _rank_one_state,
    _state_blocks,
    relative_entropy,
    tracial_state,
)

ALGEBRA = Algebra((2, 1))

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI = tuple(embed_block(ALGEBRA, 0, s) for s in (SIGMA1, SIGMA2, SIGMA3))
APEX = embed_block(ALGEBRA, 1, np.array([[1.0]]))
Z = embed_block(ALGEBRA, 0, -0.5 * np.eye(2)) + APEX
THIRD = identity(ALGEBRA) / 3.0
APEX_STATE = State(APEX)
# the orthonormal slice frame (s1_hat, s2_hat, z_hat) of U
FRAME = tuple(d / d.norm() for d in (PAULI[0], PAULI[1], Z))
BASE_RADIUS = 1.0 / np.sqrt(2.0)


def _base_circle_columns(alphas) -> np.ndarray:
    """(rows, 2, 2) orthonormal columns [v, v_perp] per angle, v the +1
    eigenvector of sin(a) s1 + cos(a) s2, normalized by pure_state's scalar
    arithmetic (on an angle array np.exp and a row norm move ulps)."""
    out = np.empty((len(alphas), 2, 2), dtype=complex)
    for col, alpha in zip(out, alphas):
        vector = [1.0, 1j * np.exp(-1j * alpha)]
        v = np.asarray(vector, dtype=complex) / np.linalg.norm(vector)
        col[:, 0] = v
        col[:, 1] = -v[1].conjugate(), v[0].conjugate()
    return out


def base_circle_blocks(alphas) -> list[np.ndarray]:
    """The element blocks of base_circle_state for an array of angles: a
    (rows, 2, 2) stack and the shared zero block."""
    return _rank_one_blocks(ALGEBRA, 0, _base_circle_columns(alphas))


def base_circle_state(alpha: float) -> State:
    """Pure state (id2 + sin(a) s1 + cos(a) s2)/2 + 0 on the base circle."""
    return _rank_one_state(ALGEBRA, 0, _base_circle_columns([alpha])[0])


def tau_state(lam: float) -> State:
    """tau(lam) = (1 - lam/2) rho(0) + (lam/2) apex on the generating line."""
    return State((1.0 - lam / 2.0) * base_circle_state(0.0).element + (lam / 2.0) * APEX)


def midpoint_state() -> State:
    """c = tau(1), the midpoint of the generating line [rho(0), apex]."""
    return tau_state(1.0)


def _flat(elements) -> list[np.ndarray]:
    """Per block, the elements' blocks as the rows of a (len, n_k^2) array."""
    return [np.array([e.blocks[k] for e in elements]).reshape(len(elements), -1)
            for k in range(ALGEBRA.n_blocks)]


def _inner(blocks, flat) -> np.ndarray:
    """(rows, len) inner products <a, e> of elements given as block stacks
    (rows, n_k, n_k) with _flat elements; a single (n_k, n_k) block, shared by
    all rows or the one block of an element, drops the rows axis."""
    return sum((b.reshape(b.shape[:-2] + (-1,)) @ f.conj().T).real
               for b, f in zip(blocks, flat))


def _span(c: np.ndarray, flat) -> list[np.ndarray]:
    """Block stacks of sum_i c[:, i] e_i, one row per row of c, over _flat elements."""
    return [(c @ f).reshape(len(c), n, n) for f, n in zip(flat, ALGEBRA.block_dims)]


FRAME_FLAT = _flat(FRAME)


def slice_coordinates(blocks) -> np.ndarray:
    """(rows, 3) coordinates <a, d> on the frame (s1_hat, s2_hat, z_hat) of
    elements given as block stacks.  z_hat is traceless, so the height is
    centered at the tracial third, and a point of the affine slice
    (1/3)id + U has the coordinates of its projection onto it.  The cone
    geometry is one kernel on these rows; the element functions below call
    it on an element's blocks, which drops the rows axis."""
    return _inner(blocks, FRAME_FLAT)


def _height_radius(c: np.ndarray):
    return c[..., 2], np.hypot(c[..., 0], c[..., 1])


def cone_coordinates(a: HermitianElement) -> tuple[float, float]:
    """(height along z_hat, centered at the tracial third; radius in the s1-s2 plane)."""
    h, r = _height_radius(slice_coordinates(a.blocks))
    return float(h), float(r)


APEX_HEIGHT = cone_coordinates(APEX)[0]
BASE_HEIGHT = cone_coordinates(base_circle_state(0.0).element)[0]


def _inside(c: np.ndarray) -> np.ndarray:
    h, r = _height_radius(c)
    frac = (APEX_HEIGHT - h) / (APEX_HEIGHT - BASE_HEIGHT)
    return ((h >= BASE_HEIGHT - 1e-9) & (h <= APEX_HEIGHT + 1e-9)
            & (r <= BASE_RADIUS * frac + 1e-9))


def _boundary_gap(c: np.ndarray) -> np.ndarray:
    h, r = _height_radius(c)
    hb, ha, rb = BASE_HEIGHT, APEX_HEIGHT, BASE_RADIUS
    # lateral line in the (r, h) half plane through (rb, hb) and (0, ha)
    lateral = np.abs((ha - hb) * r + rb * h - rb * ha) / np.hypot(ha - hb, rb)
    return np.minimum(lateral, np.abs(h - hb))


def _outside_gap(c: np.ndarray) -> np.ndarray:
    """0 for rows in the cone, else their distance to its boundary."""
    return np.where(_inside(c), 0.0, _boundary_gap(c))


def contains(a: HermitianElement) -> bool:
    """Membership of a point of the affine slice (1/3)id + U in the cone."""
    return bool(_inside(slice_coordinates(a.blocks)))


def boundary_distance(a: HermitianElement) -> float:
    """Distance of (h, r) cone coordinates to the boundary (2D section)."""
    return float(_boundary_gap(slice_coordinates(a.blocks)))


def project_to_slice(a: HermitianElement) -> HermitianElement:
    """Orthogonal projection onto U = span{s1, s2} + R z."""
    c = slice_coordinates(a.blocks)[None]
    return HermitianElement._trusted(ALGEBRA, [x[0] for x in _span(c, FRAME_FLAT)])


def plane_for_angle(phi: float) -> ExponentialFamily:
    """Canonical 2D plane in U making angle phi with the axis direction z.

    The representative is span{s1, sin(phi) s2_hat + cos(phi) z_hat}; its
    mean value set realizes the metamorphosis shape for this angle.
    """
    if not 0.0 <= phi <= np.pi / 2.0 + 1e-12:
        raise PreconditionError(f"angle {phi} outside [0, pi/2]")
    second = float(np.sin(phi)) * FRAME[1] + float(np.cos(phi)) * FRAME[2]
    return make_family(ALGEBRA, [PAULI[0], second])


def angle_of_plane(family: ExponentialFamily) -> float:
    """Angle between the tangent plane and z: arccos(|pi_V(z)| / |z|).

    Reproduces pi/3 for the Staffelberg plane and arccos(sqrt(2/5)) for the
    swallow plane.  The plane must lie inside the slice U.
    """
    if family.dim != 2:
        raise PreconditionError("angle is defined for 2D planes")
    for v in family.basis:
        resid = v - project_to_slice(v)
        if resid.norm() > 1e-9:
            raise PreconditionError("plane is not contained in the slice U")
    proj = np.hypot(*(hs_inner(Z, v) for v in family.basis))
    return float(np.arccos(np.clip(proj / Z.norm(), -1.0, 1.0)))


class MeanValueShape(enum.Enum):
    TRIANGLE = "triangle"
    ELLIPSE_WITH_CORNER = "ellipse_with_corner"
    ELLIPSE = "ellipse"

    @property
    def n_nonexposed(self) -> int:
        return 2 if self is MeanValueShape.ELLIPSE_WITH_CORNER else 0


def classify_by_angle(phi: float) -> MeanValueShape:
    """Shape of the mean value set at angle phi.

    Triangle at 0; ellipse plus corner with two non-exposed tangent points on
    (0, pi/3); ellipse from pi/3 to pi/2 (the apex projects onto the ellipse).
    """
    if not 0.0 <= phi <= np.pi / 2.0 + 1e-12:
        raise PreconditionError(f"angle {phi} outside [0, pi/2]")
    if phi == 0.0:
        return MeanValueShape.TRIANGLE
    if phi < np.pi / 3.0 - 1e-12:
        return MeanValueShape.ELLIPSE_WITH_CORNER
    return MeanValueShape.ELLIPSE


# -- named families -------------------------------------------------------------


def staffelberg_family() -> ExponentialFamily:
    """The linear family generated by s1 + 0 and s2 + 1 (angle pi/3)."""
    return make_family(ALGEBRA, [PAULI[0], PAULI[1] + APEX])


def swallow_family() -> ExponentialFamily:
    """The linear family generated by s1 + 1 and s2 + 1 (angle arccos sqrt(2/5))."""
    return make_family(ALGEBRA, [PAULI[0] + APEX, PAULI[1] + APEX])


def staffelberg_direction(alpha: float) -> HermitianElement:
    """u(alpha) = sin(a)(s1 + 0) + cos(a)(s2 + 1); maximal eigenvalue 1."""
    return float(np.sin(alpha)) * PAULI[0] + float(np.cos(alpha)) * (PAULI[1] + APEX)


def staffelberg_sigma(alpha: float, t: float) -> State:
    """Closed-form polar parametrization of the Staffelberg family.

    sigma(alpha, t) = [id2 cosh(t) + (sin a s1 + cos a s2) sinh(t)
                       + e^{t cos a}] / T with T = 2 cosh(t) + e^{t cos a};
    equals exp1(t u(alpha)) to machine precision.
    """
    if t < 0:
        raise PreconditionError("the polar parameter t must be nonnegative")
    ca = float(np.cos(alpha))
    m = max(t, ca * t)  # common exponential scale, keeps large t finite
    ch = 0.5 * (np.exp(t - m) + np.exp(-t - m))
    sh = 0.5 * (np.exp(t - m) - np.exp(-t - m))
    e3 = np.exp(ca * t - m)
    T = 2.0 * ch + e3
    b = np.sin(alpha) * SIGMA1 + ca * SIGMA2
    block1 = (np.eye(2) * ch + b * sh) / T
    return State(
        embed_block(ALGEBRA, 0, block1) + (e3 / T) * APEX
    )


def staffelberg_v3() -> HermitianElement:
    """v3 = -rho(0) + 1, the normal completing the tangent basis inside U."""
    return -1.0 * base_circle_state(0.0).element + APEX


def staffelberg_z_certificate(alpha, t):
    """The half-space certificate z(alpha,t) = T <sigma, v3> and its t-derivative.

    z = -cos(a) sinh(t) - cosh(t) + e^{t cos(a)} is nonpositive for t >= 0,
    which keeps the family on one side of the hyperplane through c.
    Broadcasts over arrays of alpha and t; scalars give numpy floats.
    """
    ca = np.cos(alpha)
    value = -ca * np.sinh(t) - np.cosh(t) + np.exp(ca * t)
    deriv = -ca * np.cosh(t) - np.sinh(t) + ca * np.exp(ca * t)
    return value, deriv


def staffelberg_tau_path(lam: float, t: float) -> tuple[State, State]:
    """The boundary-segment approximation path inside the family.

    For 0 < lam < 1 the angle a(t) = sqrt((2/t) ln((2-lam)/lam)) makes
    sigma(a(t), t) converge to tau(lam) = (1 - lam/2) rho(0) + (lam/2) apex as
    t grows.  Returns (sigma(a(t), t), tau(lam)).
    """
    if not 0.0 < lam < 1.0:
        raise PreconditionError("lam must be in (0, 1)")
    if t <= 0.0:
        raise PreconditionError("t must be positive")
    ratio = (2.0 - lam) / lam
    alpha = np.sqrt(2.0 * np.log(ratio) / t)
    return staffelberg_sigma(alpha, t), tau_state(lam)


def swallow_direction(alpha: float) -> HermitianElement:
    """u(alpha) = sin(a)(s1 + 1) + cos(a)(s2 + 1) for the swallow family."""
    return float(np.sin(alpha)) * (PAULI[0] + APEX) + float(np.cos(alpha)) * (PAULI[1] + APEX)


BILINEAR_FLAT = _flat((PAULI[0] + APEX - THIRD, PAULI[1] + APEX - THIRD))


def swallow_beta(a_blocks, b_blocks) -> np.ndarray:
    """swallow_bilinear of the rows of two element block stacks, in one pass."""
    (eta_a, xi_a), (eta_b, xi_b) = (_inner(x, BILINEAR_FLAT).T for x in (a_blocks, b_blocks))
    return eta_a * eta_b + xi_a * xi_b + (eta_a + eta_b + xi_a + xi_b) / 3.0 - 7.0 / 9.0


def swallow_bilinear(a: HermitianElement, b: HermitianElement) -> float:
    """Affine quadric whose zero set is the projected base circle.

    beta(a,b) = eta(a)eta(b) + xi(a)xi(b) + (eta + xi)(a + b)/3 - 7/9 with
    eta = <., s1 + 1 - id/3> and xi = <., s2 + 1 - id/3>.  It vanishes on all
    circle states and pairs the apex to exactly the two tangent points.
    """
    return float(swallow_beta(a.blocks, b.blocks))


def swallow_polar_tangents() -> tuple[np.ndarray, np.ndarray]:
    """Tangent points of the two tangent lines from the projected apex.

    Computed via the polar of the apex with respect to the projected base
    circle; they are the mean-value images of rho(0) and rho(pi/2).
    """
    fam = swallow_family()
    t1 = mean_value_projection(base_circle_state(0.0).element, fam)
    t2 = mean_value_projection(base_circle_state(np.pi / 2.0).element, fam)
    return t1, t2


# -- cone identities --------------------------------------------------------------


def cone_identity_residuals(
    n_samples: int = 200, rng: np.random.Generator | None = None
) -> Report:
    """Check the three ways the cone describes the state space.

    (i) the projection of any state onto the slice U lands in the centered
    cone, and the cone's extreme points are hit by extreme states; (ii) the
    slice through the tracial state meets state space exactly in the cone;
    (iii) exp1 of slice directions stays in the cone and reaches every
    relative-interior point.  Each check is one array pass over its sampled
    states, drawn in the order a loop over them would draw.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = n_samples
    report = Report(name="cone_identities")

    # (i) projection identity, on the slice coordinates of random states
    rho = _state_blocks(ALGEBRA, *random_spectra(ALGEBRA, rng, n, invertible=False))
    report.add("projection_in_cone", f"{n} random states",
               _outside_gap(slice_coordinates(rho)).max(initial=0.0), 1e-9)

    apex = APEX_STATE.element.blocks
    circle = base_circle_blocks(np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False))
    gap = _boundary_gap(np.vstack([slice_coordinates(circle), slice_coordinates(apex)]))
    report.add("extreme_points_on_boundary", "base circle and apex", gap.max(), 1e-9)

    # (ii) slice-intersection identity: positivity iff cone membership
    y = [t + u for t, u in zip(THIRD.blocks, _span(0.45 * rng.normal(size=(n, 3)), FRAME_FLAT))]
    is_state = np.minimum(np.linalg.eigvalsh(y[0])[:, 0], y[1][:, 0, 0].real) >= -1e-9
    c = slice_coordinates(y)
    disagreements = int(((is_state != _inside(c)) & (_boundary_gap(c) > 1e-9)).sum())
    report.add("slice_intersection", f"{n} slice points", float(disagreements), 0.0)

    # (iii) exp1(U) inside the cone, and onto its relative interior
    u = _span(rng.normal(size=(n, 3)), _flat((PAULI[0], PAULI[1], Z)))
    c = slice_coordinates(_exp1_blocks(u))
    report.add("exp1_in_cone", f"{n} slice directions", _outside_gap(c).max(initial=0.0), 1e-9)

    s, alpha, h = rng.uniform((0.1, 0.0, 0.0), (1.0, 2.0 * np.pi, 1.0), size=(n, 3)).T
    s, h = s[:, None, None], h[:, None, None]
    target = [s * t + (1.0 - s) * ((1.0 - h) * b + h * a)
              for t, b, a in zip(THIRD.blocks, base_circle_blocks(alpha), apex)]
    theta, target = _ln0_blocks(target)
    resid = _norms([x - p for x, p in zip(theta, _span(slice_coordinates(theta), FRAME_FLAT))])
    worst_norm = _norms([x - y for x, y in zip(_exp1_blocks(theta), target)]).max(initial=0.0)
    worst_theta = _norms(theta).max(initial=0.0)
    report.add("interior_chart_in_slice", "ln0 of interior points lies in U",
               resid.max(initial=0.0), 1e-9)
    report.add(
        "interior_approximation",
        f"exp1(U) reaches interior points (max |theta| {worst_theta:.2f})",
        worst_norm,
        1e-6,
    )
    report.add("interior_parameter_cap", "parameter norm stays below 60", worst_theta, 60.0)
    return report


def _norms(blocks) -> np.ndarray:
    """Hilbert-Schmidt norm of each row of element block stacks."""
    return np.sqrt(sum((np.abs(b) ** 2).sum((-2, -1)) for b in blocks))


def _exp1_blocks(blocks) -> list[np.ndarray]:
    """exp1 of each row of element block stacks, as element blocks."""
    return _state_blocks(ALGEBRA, *_gibbs_spectra(None, _gibbs(blocks, None)))


def _ln0_blocks(blocks) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """ln0 of the state in each row of element block stacks, as element
    blocks, and the states' element blocks."""
    pairs = [np.linalg.eigh(b) for b in blocks]
    values = [w[..., ::-1] for w, _ in pairs]
    vectors = [np.ascontiguousarray(V[..., ::-1]) for _, V in pairs]
    return _chart(values, vectors), _state_blocks(ALGEBRA, values, vectors)


# -- family reports ----------------------------------------------------------------


def staffelberg_report(atlas: ClosureAtlas | None = None) -> Report:
    """Numerical witnesses for the Staffelberg closure structure.

    Covers the closure atlas, the distance formula S(. , c) on the boundary
    segment, the ln(2) discontinuity at rho(0), the tau-path approximations
    of [rho(0), c] and the half-space certificate excluding ]c, apex].
    ``atlas`` reuses a closure atlas the caller already built.
    """
    fam = staffelberg_family()
    report = Report(name="staffelberg")
    c = midpoint_state()
    rho0 = base_circle_state(0.0)
    p2c = Projector(rho0.element + APEX)

    # (a) closure atlas: punctured base circle plus the singleton {c}
    atlas = atlas or geodesic_closure_atlas(fam)
    spikes = atlas.spike_groups()
    report.add("atlas_one_spike", "exactly one crossing direction", float(len(spikes)), 1.0,
               ok=len(spikes) == 1)
    if spikes:
        g = spikes[0]
        angle = min(g.alpha_lo % (2 * np.pi), 2 * np.pi - g.alpha_lo % (2 * np.pi))
        report.add("atlas_spike_angle", "crossing at alpha = 0", angle, 1e-8)
        report.add("atlas_spike_rank", "maximal projector 2c has rank 2", float(g.rank), 2.0,
                   ok=g.rank == 2)
        report.add(
            "atlas_spike_projector",
            "spike projector equals rho(0) + apex",
            (g.projector.element - p2c.element).norm(),
            1e-8,
        )
        report.add("atlas_spike_family_dim", "compressed family is a single state",
                   float(g.family_dim), 0.0, ok=g.family_dim == 0)
        report.add("atlas_spike_member", "the single state is c",
                   (g.representative.element - c.element).norm(), 1e-9)
    others = [g for g in atlas.groups if not g.spike]
    bad_rank = sum(1 for g in others if g.rank != 1)
    report.add("atlas_circle_ranks", "all other groups are rank one",
               float(bad_rank), 0.0)
    worst = 0.0
    for g in others[:: max(1, len(others) // 16)]:
        expected = base_circle_state(g.alpha_lo)
        worst = max(worst, (g.representative.element - expected.element).norm())
    report.add("atlas_circle_members", "rank-one groups are base circle states",
               worst, 1e-9)

    # (b) distance on the generating line equals S(. , c)
    worst = 0.0
    for s in np.linspace(0.05, 0.95, 7):
        rho = State((1.0 - s) * rho0.element + s * APEX)
        via_face, _ = entropy_distance(rho, fam)
        direct = relative_entropy(rho, c)
        worst = max(worst, abs(via_face - direct))
    report.add("segment_distance_formula", "d(rho) = S(rho, c) on [rho(0), apex]",
               worst, 1e-9)

    # (c) the discontinuity at rho(0)
    exact, _ = entropy_distance(rho0, fam)
    report.add("distance_rho0_exact", "reduced distance at rho(0) is ln 2",
               abs(exact - np.log(2.0)), 1e-9)
    ladder = distance_continuation(rho0, fam, caps=(10.0, 20.0, 40.0, 80.0))
    monotone = all(b[1] <= a[1] + 1e-9 for a, b in zip(ladder, ladder[1:]))
    report.add("distance_rho0_monotone", "direct minimization decreases with the cap",
               0.0 if monotone else 1.0, 0.0, ok=monotone)
    report.add("distance_rho0_cap80", "direct value at cap 80 near ln 2",
               ladder[-1][1] - np.log(2.0), 5e-3)
    attained_any = any(att for _, _, att in ladder)
    report.add("distance_rho0_nonattained", "no cap attains the infimum",
               1.0 if attained_any else 0.0, 0.0, ok=not attained_any)
    d03, _ = entropy_distance(base_circle_state(0.3), fam)
    report.add("distance_circle_near_rho0", "d(rho(0.3)) = 0: the circle is in the rI-closure",
               d03, 1e-9)

    # (d) norm closure: tau paths reach [rho(0), c], the certificate bars the rest
    s_half, tau_half = staffelberg_tau_path(0.5, 1.0e4)
    report.add("tau_path_error_half", "tau(1/2) approximated at t = 1e4",
               (s_half.element - tau_half.element).norm(), 1e-2)
    worst = 0.0
    shrink_ok = True
    for lam in (0.25, 0.5, 0.75):
        s1, tau = staffelberg_tau_path(lam, 4.0e4)
        s2, _ = staffelberg_tau_path(lam, 8.0e4)
        e1 = (s1.element - tau.element).norm()
        e2 = (s2.element - tau.element).norm()
        worst = max(worst, e1)
        shrink_ok = shrink_ok and e2 < e1
    report.add("tau_path_error", "tau(lam) approximated at t = 4e4", worst, 1e-2)
    report.add("tau_path_shrinks", "doubling t improves the approximation",
               0.0 if shrink_ok else 1.0, 0.0, ok=shrink_ok)

    alpha, t = np.meshgrid(np.linspace(0.0, 2.0 * np.pi, 72, endpoint=False),
                           np.linspace(0.0, 50.0, 26), indexing="ij")
    zval, dz = staffelberg_z_certificate(alpha, t)
    scale = 2.0 * np.cosh(t) + np.exp(np.cos(alpha) * t)
    report.add("halfspace_certificate",
               "<sigma, v3> = z/T stays nonpositive", (zval / scale).max(), 1e-12)
    report.add("halfspace_derivative", "dz/dt / T stays nonpositive", (dz / scale).max(), 1e-12)

    m = State(0.5 * (c.element + APEX))
    d_m, _ = entropy_distance(m, fam)
    s_m = relative_entropy(m, c)
    report.add("upper_segment_distance", "midpoint of ]c, apex] matches S(. , c)",
               abs(d_m - s_m), 1e-9)
    report.add("upper_segment_positive", "midpoint of ]c, apex] has positive distance",
               0.12 - d_m, 0.0, ok=d_m > 0.12)
    margin = hs_inner(m.element, staffelberg_v3())
    report.add("upper_segment_outside_closure",
               "positive v3 margin separates it from the family",
               0.0 if margin > 0.4 else 1.0, 0.0, ok=margin > 0.4)
    return report


def swallow_report(atlas: ClosureAtlas | None = None) -> Report:
    """Numerical witnesses for the swallow closure structure.

    The geodesic closure misses rho(0) and rho(pi/2) although both carry
    entropy distance zero (two-stage geodesics); the mean value set has the
    two tangent points as non-exposed faces; the bilinear-form identities of
    the projected base circle hold to machine precision.  ``atlas`` reuses a
    closure atlas the caller already built.
    """
    fam = swallow_family()
    report = Report(name="swallow")
    rho0 = base_circle_state(0.0)
    rho90 = base_circle_state(np.pi / 2.0)

    # (a) atlas structure
    atlas = atlas or geodesic_closure_atlas(fam)
    spikes = atlas.spike_groups()
    report.add("atlas_two_spikes", "two crossing directions", float(len(spikes)), 2.0,
               ok=len(spikes) == 2)
    targets = {0.0: rho0, np.pi / 2.0: rho90}
    for g in sorted(spikes, key=lambda g: g.alpha_lo):
        angle = g.alpha_lo % (2.0 * np.pi)
        best = min(targets, key=lambda t: abs(angle - t))
        report.add("atlas_spike_angle", f"crossing near alpha = {best:.6f}",
                   abs(angle - best), 1e-8)
        expected_p = Projector(targets[best].element + APEX)
        report.add("atlas_spike_projector", "projector is rho + apex",
                   (g.projector.element - expected_p.element).norm(), 1e-8)
        report.add("atlas_spike_segment", "compressed family is one-dimensional",
                   float(g.family_dim), 1.0, ok=g.family_dim == 1)
        end_dist = min(
            (g.family.member([t]).element - targets[best].element).norm()
            for t in (-12.0, 12.0)
        )
        report.add("atlas_spike_segment_end", "the segment family approaches rho",
                   end_dist, 1e-4)
        mid = State(0.5 * (targets[best].element + APEX))
        report.add("atlas_spike_segment_mid", "exp1^p(0) is the segment midpoint",
                   (g.representative.element - mid.element).norm(), 1e-9)

    const = [
        g for g in atlas.groups
        if not g.spike and g.rank == 1 and g.n_samples > 10
    ]
    report.add("atlas_apex_group", "one long constant group", float(len(const)), 1.0,
               ok=len(const) == 1)
    if const:
        g = const[0]
        report.add("atlas_apex_member", "its single state is the apex",
                   (g.representative.element - APEX_STATE.element).norm(), 1e-9)
        inside = 0.0 < g.alpha_lo < g.alpha_hi < np.pi / 2.0
        report.add("atlas_apex_interval", "covering the open quarter arc",
                   0.0 if inside else 1.0, 0.0, ok=inside)
    moving = [g for g in atlas.groups if not g.spike and g not in const]
    worst = 0.0
    ok_range = True
    for g in moving[:: max(1, len(moving) // 16)]:
        alpha = g.alpha_lo % (2.0 * np.pi)
        ok_range = ok_range and (np.pi / 2.0 < alpha < 2.0 * np.pi)
        worst = max(worst, (g.representative.element
                            - base_circle_state(alpha).element).norm())
    report.add("atlas_circle_range", "moving rank-one groups live on (pi/2, 2pi)",
               0.0 if ok_range else 1.0, 0.0, ok=ok_range)
    report.add("atlas_circle_members", "they are base circle states", worst, 1e-9)

    # (b) rho(0), rho(pi/2) are missed by the geodesic closure but have
    # distance zero through the two-stage reduction, which entropy_distance
    # computes exactly: its face chain takes two steps, to the face rho + apex
    # and then to rho, and the segment family's own chain ends at rho too
    for name, rho, alpha in (("rho(0)", rho0, 0.0), ("rho(pi/2)", rho90, np.pi / 2.0)):
        d, _ = entropy_distance(rho, fam)
        report.add("rI_membership", f"{name} has entropy distance zero", d, 1e-9)
        member = rI_membership(rho, fam)
        report.add("rI_flag", f"rI membership of {name}", 0.0 if member else 1.0, 0.0,
                   ok=member)
        spike = min(spikes, key=lambda g: abs(g.alpha_lo % (2 * np.pi) - alpha))
        _, attained = entropy_distance(rho, spike.family)
        report.add("geo_misses", f"{name} is not attained inside the segment family",
                   1.0 if attained else 0.0, 0.0, ok=not attained)

    ladder = distance_continuation(rho0, fam, caps=(25.0, 50.0, 100.0, 200.0))
    monotone = all(b[1] <= a[1] + 1e-9 for a, b in zip(ladder, ladder[1:]))
    report.add("direct_distance_monotone", "direct minimization decreases with the cap",
               0.0 if monotone else 1.0, 0.0, ok=monotone)

    # (c) bilinear-form identities of the projected base circle
    circle = base_circle_blocks(np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False))
    report.add("bilinear_circle", "beta vanishes on the base circle",
               np.abs(swallow_beta(circle, circle)).max(), 1e-12)
    report.add("bilinear_tangent_rho0", "beta pairs the apex with rho(0)",
               abs(swallow_bilinear(rho0.element, APEX_STATE.element)), 1e-12)
    report.add("bilinear_tangent_rho90", "beta pairs the apex with rho(pi/2)",
               abs(swallow_bilinear(rho90.element, APEX_STATE.element)), 1e-12)
    center = swallow_bilinear(tracial_state(ALGEBRA).element, tracial_state(ALGEBRA).element)
    report.add("bilinear_center", "the tracial state is interior (beta < 0)",
               center, 0.0, ok=center < 0.0)

    # (d) boundary classification marks the tangent points non-exposed
    boundary = mean_value_boundary_sweep(fam)
    classes = classify_boundary_faces(boundary)
    report.add("nonexposed_count", "two non-exposed boundary points",
               float(classes.n_nonexposed), 2.0, ok=classes.n_nonexposed == 2)
    t1, t2 = swallow_polar_tangents()
    for t in (t1, t2):
        dist = min(
            float(np.hypot(v[0] - t[0], v[1] - t[1])) for v in classes.nonexposed
        ) if classes.nonexposed else np.inf
        report.add("nonexposed_position", "marker at a polar tangent point", dist, 1e-6)
    return report
