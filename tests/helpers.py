import numpy as np

from qexpfam import cone, defaults
from qexpfam.closures import AtlasGroup, _polar_sweep
from qexpfam.family import exp1, make_family
from qexpfam.findings import Report
from qexpfam.linalg import HermitianElement, eigh, hs_inner, identity, traceless_part, zero
from qexpfam.sampling import random_hermitian, random_traceless
from qexpfam.states import Projector, State, log_on_support, max_eig_data, pure_state


def traceless_part_by_sum(a):
    """traceless_part as element arithmetic, a - shift identity: the reference
    its block-by-block subtraction keeps bit for bit."""
    return a - (a.trace() / a.algebra.dim) * identity(a.algebra)


def random_unit_traceless(algebra, rng):
    a = random_traceless(algebra, rng)
    return a / a.norm()


def random_family(algebra, dim, rng):
    """Linear family spanned by ``dim`` random traceless directions."""
    return make_family(algebra, [random_traceless(algebra, rng) for _ in range(dim)])


def staffelberg_direction(alpha):
    """u(alpha) = sin(a)(s1 + 0) + cos(a)(s2 + 1); maximal eigenvalue 1."""
    return (float(np.sin(alpha)) * cone.PAULI[0]
            + float(np.cos(alpha)) * (cone.PAULI[1] + cone.APEX))


def swallow_direction(alpha):
    """u(alpha) = sin(a)(s1 + 1) + cos(a)(s2 + 1) for the swallow family."""
    return (float(np.sin(alpha)) * (cone.PAULI[0] + cone.APEX)
            + float(np.cos(alpha)) * (cone.PAULI[1] + cone.APEX))


def same_image(p, q):
    """Projector image equality: equal ranks, elements within MAX_EIG_GAP,
    robust to basis rotation inside degenerate eigenspaces."""
    return p.rank == q.rank and (p.element - q.element).norm() <= defaults.MAX_EIG_GAP


def decoupled_pair(algebra, rng, gap_lo=0.6, gap_hi=2.0):
    """(theta, u) with a simple top eigenvalue of u, spectral gap in
    [gap_lo, gap_hi], and theta block-diagonal with respect to the maximal
    projector (no first-order top coupling, so the geodesic limit is reached
    at an exponential rate)."""
    n = algebra.dim
    top = rng.uniform(0.5, 1.5)
    gap = rng.uniform(gap_lo, gap_hi)
    rest = np.sort(rng.uniform(-2.0, 0.0, size=n - 1))[::-1]
    spectrum = np.concatenate([[top], top - gap + rest - rest[0]])
    blocks = []
    k = 0
    for m in algebra.block_dims:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(g)
        blocks.append((q * spectrum[k : k + m]) @ q.conj().T)
        k += m
    u = HermitianElement(algebra, blocks)
    _, p = max_eig_data(u)
    theta = random_traceless(algebra, rng)
    theta = theta / max(1.0, theta.norm())
    dec = []
    for pk, tk, mdim in zip(p.element.blocks, theta.blocks, algebra.block_dims):
        qk = np.eye(mdim) - pk
        dec.append(pk @ tk @ pk + qk @ tk @ qk)
    return HermitianElement(algebra, dec), u


def random_support(algebra, rng, empty_first_block):
    """A spectral projector of rank 1 to N-1 of a random element, optionally
    with nothing of the first block."""
    keep = rng.permutation(algebra.dim) < rng.integers(1, algebra.dim)
    n0 = algebra.block_dims[0]
    if empty_first_block and algebra.n_blocks > 1:
        keep[:n0] = False
        keep[n0 + rng.integers(algebra.dim - n0)] = True
    blocks, k = [], 0
    for V in eigh(random_hermitian(algebra, rng)).eigenvectors:
        q = V[:, keep[k : k + V.shape[1]]]
        blocks.append(q @ q.conj().T)
        k += V.shape[1]
    return Projector(HermitianElement(algebra, blocks))


# -- per-state references for the stacked cone checks ---------------------------
#
# The formulas below are the per-state code that sampling.random_state,
# cone.base_circle_state, the cone geometry, cone.swallow_bilinear, family.ln0
# and cone.cone_identity_residuals ran before they went to stacks; the tests
# compare the stacked code with them on the same draws.


def reference_random_state(algebra, rng, invertible=True, min_eig=1e-3):
    n = algebra.dim
    lam = rng.dirichlet(np.ones(n))
    if invertible:
        lam = (1.0 - n * min_eig) * lam + min_eig
    blocks, k = [], 0
    for m in algebra.block_dims:
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(g)
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        blocks.append((q * lam[k : k + m]) @ q.conj().T)
        k += m
    return State(HermitianElement(algebra, blocks))


def reference_base_circle_state(alpha):
    return pure_state(cone.ALGEBRA, 0, [1.0, 1j * np.exp(-1j * alpha)])


def _reference_coordinates(a):
    s1h, s2h, zh = cone.FRAME
    return hs_inner(a - cone.THIRD, zh), float(np.hypot(hs_inner(a, s1h), hs_inner(a, s2h)))


def _reference_heights():
    return (_reference_coordinates(cone.APEX)[0],
            _reference_coordinates(reference_base_circle_state(0.0).element)[0])


def _reference_contains(a):
    ha, hb = _reference_heights()
    h, r = _reference_coordinates(a)
    if h < hb - 1e-9 or h > ha + 1e-9:
        return False
    return r <= cone.BASE_RADIUS * (ha - h) / (ha - hb) + 1e-9


def _reference_boundary_distance(a):
    ha, hb = _reference_heights()
    h, r = _reference_coordinates(a)
    rb = cone.BASE_RADIUS
    lateral = abs((ha - hb) * r + rb * h - rb * ha) / np.hypot(ha - hb, rb)
    return float(min(lateral, abs(h - hb)))


def _reference_project_to_slice(a):
    return sum((hs_inner(a, d) * d for d in cone.FRAME), zero(cone.ALGEBRA))


def reference_swallow_bilinear(a, b):
    v1 = cone.PAULI[0] + cone.APEX - cone.THIRD
    v2 = cone.PAULI[1] + cone.APEX - cone.THIRD
    eta_a, eta_b = hs_inner(a, v1), hs_inner(b, v1)
    xi_a, xi_b = hs_inner(a, v2), hs_inner(b, v2)
    return eta_a * eta_b + xi_a * xi_b + (eta_a + eta_b + xi_a + xi_b) / 3.0 - 7.0 / 9.0


def reference_cone_identity_residuals(n_samples, rng):
    """The findings of cone.cone_identity_residuals, one state at a time."""
    s1h, s2h, zh = cone.FRAME
    third, apex = cone.THIRD, cone.APEX_STATE.element
    report = Report(name="cone_identities")

    def outside(y):
        return 0.0 if _reference_contains(y) else _reference_boundary_distance(y)

    worst = 0.0
    for _ in range(n_samples):
        rho = reference_random_state(cone.ALGEBRA, rng, invertible=False)
        worst = max(worst, outside(_reference_project_to_slice(rho.element - third) + third))
    report.add("projection_in_cone", f"{n_samples} random states", worst, 1e-9)

    worst = 0.0
    for alpha in np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False):
        y = _reference_project_to_slice(reference_base_circle_state(alpha).element - third) + third
        worst = max(worst, _reference_boundary_distance(y))
    y = _reference_project_to_slice(apex - third) + third
    worst = max(worst, _reference_boundary_distance(y))
    report.add("extreme_points_on_boundary", "base circle and apex", worst, 1e-9)

    disagreements = 0
    for _ in range(n_samples):
        y = third + (rng.normal() * s1h + rng.normal() * s2h + rng.normal() * zh) * 0.45
        is_state = min(np.linalg.eigvalsh(y.blocks[0]).min(), y.blocks[1][0, 0].real) >= -1e-9
        if is_state != _reference_contains(y) and _reference_boundary_distance(y) > 1e-9:
            disagreements += 1
    report.add("slice_intersection", f"{n_samples} slice points", float(disagreements), 0.0)

    worst = 0.0
    for _ in range(n_samples):
        u = rng.normal() * cone.PAULI[0] + rng.normal() * cone.PAULI[1] + rng.normal() * cone.Z
        worst = max(worst, outside(exp1(u).element))
    report.add("exp1_in_cone", f"{n_samples} slice directions", worst, 1e-9)

    worst_norm, worst_theta = 0.0, 0.0
    for _ in range(n_samples):
        s = rng.uniform(0.1, 1.0)
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        h = rng.uniform(0.0, 1.0)
        extreme = (1.0 - h) * reference_base_circle_state(alpha).element + h * apex
        target = State(s * third + (1.0 - s) * extreme)
        assert target.is_invertible()
        theta = traceless_part(log_on_support(target))
        worst = max(worst, (theta - _reference_project_to_slice(theta)).norm())
        worst_norm = max(worst_norm, (exp1(theta).element - target.element).norm())
        worst_theta = max(worst_theta, theta.norm())
    report.add("interior_chart_in_slice", "ln0 of interior points lies in U", worst, 1e-9)
    report.add(
        "interior_approximation",
        f"exp1(U) reaches interior points (max |theta| {worst_theta:.2f})",
        worst_norm,
        1e-6,
    )
    report.add("interior_parameter_cap", "parameter norm stays below 60", worst_theta, 60.0)
    return report


def reference_atlas_groups(family, n):
    """The geodesic closure atlas's groups as (rank, alpha_lo, alpha_hi,
    n_samples, spike, blocks), in atlas order, by plain per-run bookkeeping:
    the n grid directions split into runs of equal maximal projectors, a last
    run that continues into the first joined to it, a run of one whose rank
    exceeds both neighbours' a grid spike, then one spike per crossing."""
    alphas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kernel = _polar_sweep(family)
    ranks, blocks = kernel.spectra(alphas).max_projectors()
    dist = np.sqrt(sum(
        np.linalg.norm(b - np.roll(b, -1, axis=0), axis=(1, 2)) ** 2 for b in blocks))
    same_next = (ranks == np.roll(ranks, -1)) & (dist <= defaults.MAX_EIG_GAP)
    runs = [r.tolist() for r in np.split(np.arange(n), np.flatnonzero(~same_next[:-1]) + 1)]
    if len(runs) > 1 and same_next[n - 1]:
        runs[0] = runs.pop() + runs[0]
    groups = []
    for r in runs:
        j = r[0]
        spike = len(r) == 1 and bool(ranks[j] > min(ranks[j - 1], ranks[(j + 1) % n]))
        groups.append((int(ranks[j]), float(alphas[j]), float(alphas[r[-1]]), len(r), spike,
                       tuple(b[j] for b in blocks)))
    found, at = kernel.crossings(alphas, ranks, blocks)
    spike_ranks, spike_blocks = at.max_projectors()
    for i, a in enumerate(found):
        groups.append((int(spike_ranks[i]), float(a), float(a), 0, True,
                       tuple(b[i] for b in spike_blocks)))
    return sorted(groups, key=lambda g: (g[1], g[2]))


def eager_atlas_groups(family, n=defaults.SWEEP_ANGLES):
    """Every group of the atlas built at once, as AtlasGroups in atlas order:
    the rows of reference_atlas_groups, and a rank-one group's pure columns
    from its own eigh of its projector block in the block where its trace is 1."""
    groups = []
    for rank, lo, hi, count, spike, blocks in reference_atlas_groups(family, n):
        pure = None
        if rank == 1:
            k = int(np.argmax([np.trace(b).real for b in blocks]))
            pure = (k, np.linalg.eigh(blocks[k][None])[1][0, :, ::-1])
        groups.append(AtlasGroup(blocks, rank, lo, hi, count, spike, family, pure))
    return groups
