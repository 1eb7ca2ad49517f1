"""The benchmark's workloads: seeded inputs, the op list of one pass, and the
check each op's output must pass.

Every input is drawn from ``numpy.random.default_rng([seed, k])`` with a fixed
``k`` per workload, so one seed gives the same inputs on every run.  Expected
values are computed while the workload is built or prepared, never inside a
timed op, so tracing sees only the work of the ops themselves.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qexpfam import cli, closures, cone, defaults, family, sampling
from qexpfam.linalg import Algebra, HermitianElement
from qexpfam.states import State

LN2 = math.log(2.0)


@dataclass
class Op:
    """One closed-loop operation: ``run(out_dir)`` is timed, ``check`` is not.

    ``check`` returns None when the outcome is correct, otherwise the reason.
    ``files`` marks ops whose CSV/SVG output is hashed for the determinism
    check.  ``known_defect`` recognises a failed outcome as the symptom of a
    known defect of the package: such a failure still counts, but it does not
    make the run incorrect, so a run is flagged only for failures nobody has
    explained.
    """

    kind: str
    label: str
    run: Callable[[str], Any]
    check: Callable[[Any], str | None]
    files: bool = False
    known_defect: Callable[[Any], bool] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    prepare: Callable[[], None] = lambda: None
    inputs: dict = field(default_factory=dict)


# -- CLI ops --------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    lines: list[dict]
    stderr: str


def _parse_machine_lines(text: str) -> list[dict]:
    """``kind key=value ...`` lines as dicts with the kind under ``_``."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        rec = {"_": parts[0]}
        for part in parts[1:]:
            key, sep, value = part.partition("=")
            if sep:
                rec[key] = value
        out.append(rec)
    return out


def _cli_op(kind: str, label: str, argv: list[str], check=None) -> Op:
    def run(out_dir: str) -> CliOutcome:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv + ["--out", out_dir, "--quiet"])
        return CliOutcome(code, _parse_machine_lines(out.getvalue()), err.getvalue())

    def full_check(outcome: CliOutcome) -> str | None:
        if outcome.code != 0:
            failing = [f"{rec.get('check')} value={rec.get('value')}"
                       for rec in _lines_of(outcome, "finding") if rec.get("ok") == "0"]
            detail = outcome.stderr.strip().splitlines()[-1:] + failing[:3]
            return f"exit code {outcome.code}: {'; '.join(detail)}"
        return check(outcome) if check else None

    return Op(kind, label, run, full_check, files=True)


def _lines_of(outcome: CliOutcome, kind: str) -> list[dict]:
    return [rec for rec in outcome.lines if rec["_"] == kind]


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal parts of [lo, hi).

    Keeps the mix of cases (shapes, arcs) the same for every seed, so the
    cost of a pass varies little with the seed.
    """
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return [float(x) for x in lo + (hi - lo) * u]


def _interleave(*groups: list[Op]) -> list[Op]:
    """The ops of all groups, each group spread evenly over the pass.

    The machine's speed drifts within a run; spreading every kind of op over
    the whole pass keeps each kind's latencies from all sampling one stretch.
    """
    keyed = [((k + 0.5) / len(group), g, op)
             for g, group in enumerate(groups) for k, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


# -- cone_reports ---------------------------------------------------------------


def segment_distance(lam: float) -> float:
    """S(tau(lam), c) in closed form for tau(lam) = (1 - lam/2) rho(0) + (lam/2) apex.

    rho(0), the apex and c = tau(1) commute, so the relative entropy is the
    classical one between (1 - lam/2, lam/2) and (1/2, 1/2).
    """
    out = 0.0
    for p in (1.0 - lam / 2.0, lam / 2.0):
        if p > 0.0:
            out += p * math.log(2.0 * p)
    return out


def _sweep_op(label: str, phi: float) -> Op:
    shape = cone.classify_by_angle(phi)

    def check(outcome: CliOutcome) -> str | None:
        recs = _lines_of(outcome, "sweep")
        if len(recs) != 1:
            return f"expected one sweep line, got {len(recs)}"
        got_shape, got_n = recs[0].get("shape"), recs[0].get("nonexposed")
        if got_shape != shape.value or got_n != str(shape.n_nonexposed):
            return (f"phi={phi!r}: shape {got_shape} nonexposed {got_n}, expected "
                    f"{shape.value} {shape.n_nonexposed}")
        return None

    def missed_nonexposed(outcome: CliOutcome) -> bool:
        # Known defect: the 720-angle sweep labels both non-exposed points
        # exposed below a tilt of about 0.0495 and at isolated tilts such as
        # 0.8255269040265483; the shape itself is right.
        recs = _lines_of(outcome, "sweep")
        return (outcome.code == 0 and len(recs) == 1 and shape.n_nonexposed == 2
                and recs[0].get("shape") == shape.value and recs[0].get("nonexposed") == "0")

    op = _cli_op("sweep", label, ["sweep", "--phi", repr(phi)], check)
    op.known_defect = missed_nonexposed
    return op


def _distance_check(expected: float):
    def check(outcome: CliOutcome) -> str | None:
        exact = _lines_of(outcome, "exact_path")
        if len(exact) != 1:
            return "no exact_path line"
        value = float(exact[0]["value"])
        if abs(value - expected) > 1e-9:
            return f"exact_path {value!r}, expected {expected!r}"
        ladder = [float(r["value"]) for r in _lines_of(outcome, "continuation")]
        if len(ladder) != 4 or any(b > a + 1e-12 for a, b in zip(ladder, ladder[1:])):
            return f"continuation ladder not non-increasing: {ladder}"
        direct = float(_lines_of(outcome, "distance")[0]["value"])
        if direct < value - 1e-9:
            return f"direct value {direct!r} below the exact value {value!r}"
        return None

    return check


SMALL_TILT = 0.03
SWEEP_DEFECT_BELOW = 0.06


def cone_reports(seed: int) -> Workload:
    """Named reports, metamorphosis sweeps and distance reports through the CLI."""
    rng = np.random.default_rng([seed, 1])
    report_seed = int(rng.integers(2**31))
    # 0 and pi/3 are where the shape changes.  Below SWEEP_DEFECT_BELOW the
    # default 720-angle sweep misses both non-exposed points; SMALL_TILT shows
    # that defect in every pass, and the seeded angles stay above it so the
    # failure count depends on the seed only through isolated bad tilts.
    phis = [0.0, math.pi / 3.0, SMALL_TILT]
    phis += _stratified(rng, SWEEP_DEFECT_BELOW, math.pi / 2.0, 11)
    alphas = _stratified(rng, 0.0, 2.0 * math.pi, 2)
    lams = _stratified(rng, 0.0, 2.0, 1)

    reports = [_cli_op(f"report_{which}", f"report-{which}",
                       ["report", "--which", which, "--seed", str(report_seed)])
               for which in ("staffelberg", "swallow", "cone", "maximizer")]
    sweeps = [_sweep_op(f"sweep-{k}", phi) for k, phi in enumerate(phis)]
    # d(rho(0)) = ln 2, the jump of the Staffelberg distance; every other base
    # circle state is in the rI-closure; along [rho(0), apex] the distance is
    # S(., c), which vanishes at c.
    states = [("circle:0", LN2)]
    states += [(f"circle:{a!r}", 0.0) for a in alphas]
    states += [("c", 0.0), ("apex", LN2)]
    states += [(f"tau:{lam!r}", segment_distance(lam)) for lam in lams]
    distances = [_cli_op("distance", f"distance-{k}", ["distance", "--state", spec],
                         _distance_check(expected))
                 for k, (spec, expected) in enumerate(states)]
    return Workload("cone_reports", _interleave(reports, sweeps, distances), inputs={
        "report_seed": report_seed, "phis": phis,
        "states": [spec for spec, _ in states]})


# -- projection_batch -----------------------------------------------------------


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _face_generator(algebra: Algebra, rank: int, rng: np.random.Generator):
    """A generator whose top eigenvalue has multiplicity ``rank`` in block 0.

    Returns the element and the orthonormal columns spanning that top
    eigenspace (the image of its maximal projector).
    """
    blocks, top = [], None
    for k, n in enumerate(algebra.block_dims):
        u = _haar_unitary(n, rng)
        w = rng.uniform(-1.0, 0.5, size=n)
        if k == 0:
            w[:rank] = 1.0
            top = u[:, :rank]
        blocks.append((u * w) @ u.conj().T)
    return HermitianElement(algebra, blocks), top


def _face_state(algebra: Algebra, top: np.ndarray, rng: np.random.Generator) -> State:
    """A full-rank state of the corner algebra on the columns ``top``."""
    r = top.shape[1]
    lam = 0.05 + 0.95 * rng.dirichlet(np.ones(r))
    lam /= lam.sum()
    u = _haar_unitary(r, rng)
    small = (u * lam) @ u.conj().T
    blocks = [np.zeros((n, n), dtype=complex) for n in algebra.block_dims]
    blocks[0] = top @ small @ top.conj().T
    return State(HermitianElement(algebra, blocks))


# (block dims, family dimension, rank of the boundary face, interior states,
# boundary states) per family: one 16x16 block with a 12-dim family and four
# 4x4 blocks with a 6-dim family.  The 16x16 interior solves are the fastest
# ops and take nearly the same time for every state; the 4x(4x4) ones take
# one Newton step more or less from state to state.  With more than half of
# all ops 16x16 interior solves, the median op is one of them for every seed.
# The tail is set by the slowest 4x(4x4) boundary ladders, whose cost varies
# by half from state to state and by up to a fifth from family to family:
# with several families per case and many states in a pass, the tail is a
# high quantile of their cost rather than the slowest of a few.
PROJECTION_CASES = (((16,), 12, 4, 24, 6), ((4, 4, 4, 4), 6, 2, 6, 6))
PROJECTION_FAMILIES = 4
LADDER_CAPS = tuple(defaults.PARAM_CAP / f for f in (8.0, 4.0, 2.0, 1.0))


def projection_batch(seed: int) -> Workload:
    """Entropy projections at the size cap, interior and boundary states."""
    rng = np.random.default_rng([seed, 2])
    groups: list[list[Op]] = []
    refs: dict[str, float] = {}
    faces = []
    for c, (dims, dim, rank, n_interior, n_boundary) in enumerate(PROJECTION_CASES):
        algebra = Algebra(dims)
        interior_ops, boundary_ops = [], []
        for f in range(PROJECTION_FAMILIES):
            g1, top = _face_generator(algebra, rank, rng)
            gens = [g1] + [sampling.random_traceless(algebra, rng) for _ in range(dim - 1)]
            fam = family.make_family(algebra, gens)
            interior = [sampling.random_state(algebra, rng, invertible=True, min_eig=1e-2)
                        for _ in range(n_interior)]
            boundary = [_face_state(algebra, top, rng) for _ in range(n_boundary)]
            interior_ops += [_interior_op(f"interior-{c}-{f}-{k}", rho, fam)
                             for k, rho in enumerate(interior)]
            faces += [(f"boundary-{c}-{f}-{k}", rho, fam) for k, rho in enumerate(boundary)]
            boundary_ops += [_boundary_op(label, rho, fam, refs)
                             for label, rho, fam in faces[-n_boundary:]]
        groups += [interior_ops, boundary_ops]

    def prepare():
        # the exact boundary value: the distance inside the compressed family
        # of the face the state lies on
        for label, rho, fam in faces:
            refs[label] = closures.reduce_distance_to_face(
                rho, fam, fam.generators[0], param_cap=defaults.RI_PARAM_CAP)

    return Workload("projection_batch", _interleave(*groups), prepare,
                    inputs={"cases": [list(c) for c in PROJECTION_CASES],
                            "families_per_case": PROJECTION_FAMILIES})


def _interior_op(label: str, rho: State, fam) -> Op:
    def run(out_dir):
        return family.project_to_family(rho, fam)

    def check(res) -> str | None:
        if not res.attained or res.grad_residual > defaults.SOLVER_TOL:
            return (f"interior projection attained={res.attained} "
                    f"grad={res.grad_residual:.3e}")
        return None

    return Op("interior", label, run, check)


def _boundary_op(label: str, rho: State, fam, refs: dict) -> Op:
    def run(out_dir):
        res = family.project_to_family(rho, fam)
        ladder = family.distance_continuation(rho, fam, caps=LADDER_CAPS)
        return res, ladder

    def check(outcome) -> str | None:
        res, ladder = outcome
        exact = refs[label]
        values = [v for _, v, _ in ladder]
        if res.attained or any(att for _, _, att in ladder):
            return "boundary projection reported as attained"
        if any(b > a + 1e-12 for a, b in zip(values, values[1:])):
            return f"continuation ladder not non-increasing: {values}"
        if min(values + [res.distance]) < exact - 1e-9:
            return f"direct value below the face value {exact!r}: {values}"
        return None

    return Op("boundary", label, run, check)


# -- closure_chain --------------------------------------------------------------


def closure_chain(seed: int) -> Workload:
    """The closure-chain verifier at defaults plus rI-closure membership queries."""
    rng = np.random.default_rng([seed, 3])
    reports = [
        _cli_op("report_closures", f"closures-{name}",
                ["report", "--which", "closures", "--family", name])
        for name in ("staffelberg", "swallow")
    ]
    reports[0].known_defect = _only_rI_subset_norm_fails
    quarter = math.pi / 2.0
    # staffelberg: only rho(0) lies outside the rI-closure; swallow: exactly
    # the open arc (0, pi/2) lies outside, its end points inside
    queries = [("staffelberg", 0.0)]
    queries += [("staffelberg", a) for a in _stratified(rng, 0.0, 2.0 * math.pi, 19)]
    queries += [("swallow", 0.0), ("swallow", quarter)]
    queries += [("swallow", a) for a in _stratified(rng, 0.0, quarter, 9)]
    queries += [("swallow", a) for a in _stratified(rng, quarter, 2.0 * math.pi, 9)]
    families = {"staffelberg": cone.staffelberg_family(), "swallow": cone.swallow_family()}
    members: dict[str, list[Op]] = {name: [] for name in families}
    for k, (name, alpha) in enumerate(queries):
        if name == "staffelberg":
            expected = alpha != 0.0
        else:
            expected = not (0.0 < alpha < quarter)
        members[name].append(_rI_op(f"rI-{name}-{k}", cone.base_circle_state(alpha),
                                    families[name], expected))
    return Workload("closure_chain", _interleave(reports, *members.values()),
                    inputs={"queries": [[n, a] for n, a in queries]})


def _only_rI_subset_norm_fails(outcome: CliOutcome) -> bool:
    """Known defect: at default max_groups the norm approximation misses two
    base-circle groups of the Staffelberg atlas, so exactly two
    rI_subset_norm findings fail and the report exits 4."""
    failing = [rec for rec in _lines_of(outcome, "finding") if rec.get("ok") == "0"]
    return (outcome.code == 4 and len(failing) == 2
            and all(rec.get("check") == "rI_subset_norm" for rec in failing))


def _rI_op(label: str, rho: State, fam, expected: bool) -> Op:
    def run(out_dir):
        return closures.rI_membership(rho, fam)

    def check(member) -> str | None:
        if bool(member) != expected:
            return f"rI_membership {member}, expected {expected}"
        return None

    return Op("rI_membership", label, run, check)


WORKLOADS = {
    "cone_reports": cone_reports,
    "projection_batch": projection_batch,
    "closure_chain": closure_chain,
}

# About the wall time of one pass on a 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4, single-threaded OpenBLAS) at the slower of its two speeds.  A run
# makes seconds // NOMINAL_PASS_S passes, at least one, so both sides of a
# comparison do the same work.
NOMINAL_PASS_S = {
    "cone_reports": 9.6,
    "projection_batch": 7.5,
    "closure_chain": 25.0,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


