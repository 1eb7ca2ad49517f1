"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time

import numpy as np

from helpers import decoupled_pair, random_family

from qexpfam import cone
from qexpfam.boundary import classify_boundary_faces, mean_value_boundary_sweep
from qexpfam.cli import main
from qexpfam.closures import (
    egeodesic_limit,
    geodesic_closure_atlas,
    rI_membership,
    reduce_distance_to_face,
)
from qexpfam.family import (
    distance_continuation,
    entropy_distance,
    exp1,
    free_energy,
    project_to_family,
)
from qexpfam.linalg import Algebra, diagonal, hs_inner, traceless_part, trace_norm
from qexpfam.maximizer import dE_directional_derivative, maximizer_certificate
from qexpfam.sampling import random_state, random_traceless
from qexpfam.states import (
    State,
    max_eig_data,
    pinsker_gap,
    relative_entropy,
)


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}  {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_staffelberg_discontinuity():
    start = time.monotonic()
    fam = cone.staffelberg_family()
    rho0 = cone.base_circle_state(0.0)
    v2 = traceless_part(cone.PAULI[1] + cone.APEX)

    exact = reduce_distance_to_face(rho0, fam, v2)
    ok_exact = abs(exact - np.log(2.0)) <= 1e-9

    ladder = distance_continuation(rho0, fam, caps=(10.0, 20.0, 40.0, 80.0))
    values = [v for _, v, _ in ladder]
    ok_monotone = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    ok_cap80 = values[-1] <= np.log(2.0) + 5e-3

    d03 = project_to_family(cone.base_circle_state(0.3), fam, param_cap=200.0).distance
    ok_circle = d03 <= 1e-2

    elapsed = time.monotonic() - start
    ok_time = elapsed < 10.0
    criterion(
        1,
        "Staffelberg discontinuity: exact ln2, monotone caps, circle distance",
        ok_exact and ok_monotone and ok_cap80 and ok_circle and ok_time,
        f"exact-ln2 {exact - np.log(2.0):.2e}, cap80 {values[-1] - np.log(2.0):.2e}, "
        f"d(rho(0.3)) {d03:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_metamorphosis_classification():
    start = time.monotonic()
    counts = []
    for k in range(7):
        fam = cone.plane_for_angle(k * np.pi / 12.0)
        boundary = mean_value_boundary_sweep(fam, 720)
        counts.append(classify_boundary_faces(boundary).n_nonexposed)
    elapsed = time.monotonic() - start
    ok = counts == [0, 2, 2, 2, 0, 0, 0] and elapsed < 30.0
    criterion(
        2,
        "metamorphosis non-exposed counts (0,2,2,2,0,0,0) at 720 angles",
        ok,
        f"counts {counts}, {elapsed:.1f}s",
    )


def test_criterion_03_pythagorean_identity():
    from qexpfam.family import pythagorean_residual

    rng = np.random.default_rng(3)
    algebra = cone.ALGEBRA
    families = {
        "staffelberg": cone.staffelberg_family(),
        "swallow": cone.swallow_family(),
        "random2d": random_family(algebra, 2, rng),
    }
    worst = 0.0
    for fam in families.values():
        for _ in range(100):
            sigma = fam.member(rng.normal(size=2))
            tau = fam.member(rng.normal(size=2))
            w = random_traceless(algebra, rng)
            for v in fam.basis:
                w = w - hs_inner(w, v) * v
            lam = sigma.spectral.all_eigenvalues().min()
            rho = State(sigma.element + (0.5 * lam / max(w.norm(), 1e-12)) * w)
            worst = max(worst, pythagorean_residual(rho, sigma, tau))
    criterion(3, "Pythagorean residual <= 1e-10 on 100 triples per family",
              worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_04_egeodesic_limits():
    rng = np.random.default_rng(4)
    algebra = cone.ALGEBRA
    worst_state, worst_free = 0.0, 0.0
    for _ in range(100):
        theta, u = decoupled_pair(algebra, rng)
        limit, asym = egeodesic_limit(theta, u)
        mu, _ = max_eig_data(u)
        state = exp1(theta + 40.0 * u)
        worst_state = max(worst_state, (state.element - limit.element).norm())
        f, _ = free_energy(theta + 40.0 * u)
        worst_free = max(worst_free, abs(f - 40.0 * mu - asym))
    ok = worst_state <= 1e-8 and worst_free <= 1e-8
    criterion(4, "e-geodesic limits at lambda=40 with gap >= 0.5",
              ok, f"state {worst_state:.2e}, free energy {worst_free:.2e}")


def test_criterion_05_swallow_closure_structure():
    fam = cone.swallow_family()
    atlas = geodesic_closure_atlas(fam)
    spikes = sorted(atlas.spike_groups(), key=lambda g: g.alpha_lo)
    ok_spikes = (
        len(spikes) == 2
        and abs(spikes[0].alpha_lo - 0.0) <= 1e-8
        and abs(spikes[1].alpha_lo - np.pi / 2.0) <= 1e-8
        and all(g.rank == 2 for g in spikes)
    )
    interval_ranks_ok = True
    for g in atlas.groups:
        if g.spike:
            continue
        alpha = g.alpha_lo % (2.0 * np.pi)
        if 1e-6 < alpha < np.pi / 2.0 - 1e-6:
            interval_ranks_ok &= g.rank == 1 and g.n_samples > 1 or g.n_samples == 1
        if g.rank != 1:
            interval_ranks_ok = False

    ok_ri = rI_membership(cone.base_circle_state(0.0), fam) and rI_membership(
        cone.base_circle_state(np.pi / 2.0), fam
    )

    beta_worst = max(
        abs(cone.swallow_bilinear(
            cone.base_circle_state(a).element, cone.base_circle_state(a).element
        ))
        for a in np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    )
    beta_worst = max(
        beta_worst,
        abs(cone.swallow_bilinear(cone.base_circle_state(0.0).element, cone.APEX)),
        abs(cone.swallow_bilinear(
            cone.base_circle_state(np.pi / 2.0).element, cone.APEX
        )),
    )
    ok = ok_spikes and interval_ranks_ok and ok_ri and beta_worst <= 1e-12
    criterion(5, "swallow closure structure, rI corners, bilinear identities",
              ok, f"transitions {[g.alpha_lo for g in spikes]}, beta {beta_worst:.2e}")


def test_criterion_06_projection_optimality():
    rng = np.random.default_rng(6)
    algebra = cone.ALGEBRA
    families = {
        "staffelberg": cone.staffelberg_family(),
        "swallow": cone.swallow_family(),
        "random2d": random_family(algebra, 2, rng),
    }
    worst_orth = 0.0
    worst_hess = np.inf
    for fam in families.values():
        for _ in range(200):
            rho = random_state(algebra, rng, invertible=True)
            res = project_to_family(rho, fam)
            assert res.attained
            for v in fam.basis:
                worst_orth = max(
                    worst_orth, abs(hs_inner(rho.element - res.sigma_star.element, v))
                )
            worst_hess = min(worst_hess, res.min_hessian_eig)
    ok = worst_orth <= 1e-9 and worst_hess > 0.0
    criterion(6, "projection orthogonality <= 1e-9, Hessian positive definite",
              ok, f"orthogonality {worst_orth:.2e}, min Hessian eig {worst_hess:.2e}")


def test_criterion_07_directional_derivative():
    rng = np.random.default_rng(7)
    algebra = cone.ALGEBRA
    fam = cone.staffelberg_family()
    h = 1e-4
    worst = 0.0
    for _ in range(200):
        rho = random_state(algebra, rng, invertible=True, min_eig=5e-2)
        u = random_traceless(algebra, rng, 0.3)
        analytic = dE_directional_derivative(rho, u, fam)
        dp, _ = entropy_distance(State(rho.element + h * u), fam, tol=1e-12)
        dm, _ = entropy_distance(State(rho.element - h * u), fam, tol=1e-12)
        fd = (dp - dm) / (2.0 * h)
        worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-3))
    ok_fd = worst <= 1e-5

    # abelian: the certificate candidate equals truncation-renormalization
    from qexpfam.family import make_family

    abelian = Algebra((1, 1, 1))
    fam_ab = make_family(abelian, [diagonal(abelian, [1.0, -1.0, 0.0])])
    worst_ab = 0.0
    for lam in ([0.6, 0.4, 0.0], [0.25, 0.75, 0.0], [0.5, 0.0, 0.5]):
        rho = State(diagonal(abelian, lam))
        cert = maximizer_certificate(rho, fam_ab)
        sigma = np.array(
            [b[0, 0].real for b in
             project_to_family(rho, fam_ab).sigma_star.element.blocks]
        )
        mask = np.array([1.0 if x > 0 else 0.0 for x in lam])
        trunc = sigma * mask
        trunc = trunc / trunc.sum()
        oracle = (rho.element - diagonal(abelian, trunc)).norm()
        worst_ab = max(worst_ab, abs(cert.residual - oracle))
    ok_ab = worst_ab <= 1e-10
    criterion(7, "directional derivative vs finite differences; abelian imprint",
              ok_fd and ok_ab, f"fd rel {worst:.2e}, abelian {worst_ab:.2e}")


def test_criterion_08_pinsker_gap():
    rng = np.random.default_rng(8)
    algebra = cone.ALGEBRA
    worst = np.inf
    for _ in range(1000):
        rho = random_state(algebra, rng, invertible=False)
        sigma = random_state(algebra, rng, invertible=False)
        worst = min(worst, pinsker_gap(rho, sigma))
    ok_gap = worst >= -1e-12

    bit = Algebra((1, 1))
    point = State(diagonal(bit, [1.0, 0.0]))
    fair = State(diagonal(bit, [0.5, 0.5]))
    s = relative_entropy(point, fair)
    t = trace_norm(point.element - fair.element)
    literal = 0.5 * s - t * t
    ok_literal = abs(literal - (-0.653)) <= 1e-3
    criterion(8, "Pinsker gap >= 0 on 1000 pairs; literal-constant counterexample",
              ok_gap and ok_literal, f"min gap {worst:.2e}, literal {literal:.4f}")


def test_criterion_09_cone_identities():
    report = cone.cone_identity_residuals(n_samples=200)
    ok = report.ok
    detail = "; ".join(f"{f.check} {f.value:.1e}" for f in report.findings[:4])
    criterion(9, "cone identities and interior approximation", ok, detail)


def test_criterion_10_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["report", "--which", "maximizer", "--seed", "11",
                     "--out", str(out), "--quiet"]) == 0
        assert main(["sweep", "--phi", "0.9", "--out", str(out), "--quiet"]) == 0
        runs.append(out)
    identical = True
    for name in sorted(p.name for p in runs[0].iterdir()):
        if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes():
            identical = False
    criterion(10, "byte-identical CSV outputs for fixed config and seed", identical)
