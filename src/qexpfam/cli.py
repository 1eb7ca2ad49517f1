"""Command line frontend.

    qexpfam sweep    [--phi LIST | --family NAME] --out DIR
    qexpfam distance --state SPEC [--family NAME] --out DIR
    qexpfam report   --which staffelberg|swallow|closures|maximizer|cone --out DIR

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 contract violation inside a report.  With --quiet only machine-readable
result lines are printed.  Fixed config and seed give byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import cone, defaults
from .boundary import classify_boundary_faces, mean_value_boundary_sweep
from .closures import geodesic_closure_atlas, inclusion_chain_check
from .config import RunConfig, build_family, parse_state
from .errors import (
    DomainError,
    NumericalDegeneracyError,
    PreconditionError,
    SolverError,
    UnderResolvedSweepError,
)
from .family import _project_ladder, entropy_distance
from .findings import Report
from .linalg import from_coords, traceless_part
from .maximizer import local_max_search, maximizer_certificate
from .output import (
    NUM,
    atlas_csv,
    boundary_csv,
    boundary_svg,
    certificates_csv,
    fmt,
    report_csv,
    write_csv,
)
from .sampling import random_state
from .states import Projector, State

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4


def _say(cfg: RunConfig, line: str, machine: bool = False):
    if machine or not cfg.quiet:
        print(line)


def cmd_sweep(cfg: RunConfig) -> int:
    """Boundary CSV + SVG + one classification line per angle or family."""
    jobs = []
    if cfg.phi_list:
        for phi in cfg.phi_list:
            jobs.append((f"phi{fmt(phi)}", cone.plane_for_angle(phi), phi))
    else:
        jobs.append((cfg.family_name.replace(":", "_"), build_family(cfg), None))
    for tag, family, phi in jobs:
        boundary = mean_value_boundary_sweep(family, n_angles=cfg.n_angles)
        classes = classify_boundary_faces(boundary)
        base = os.path.join(cfg.out_dir, f"boundary_{tag}")
        boundary_csv(base + ".csv", boundary)
        boundary_svg(base + ".svg", boundary, classes)
        n_seg = len(boundary.segments())
        if phi is not None:
            shape = cone.classify_by_angle(phi).value
            _say(cfg, f"sweep phi={fmt(phi)} shape={shape} "
                      f"nonexposed={classes.n_nonexposed} segments={n_seg}",
                 machine=True)
        else:
            _say(cfg, f"sweep family={cfg.family_name} "
                      f"nonexposed={classes.n_nonexposed} segments={n_seg}",
                 machine=True)
    return EXIT_OK


def cmd_distance(cfg: RunConfig, state_spec: str) -> int:
    """Distance report: the exact distance (entropy_distance), then the
    direct minimization ladder at fractions of the parameter cap, whose
    attained flags take the exact distance's answer."""
    family = build_family(cfg)
    rho = parse_state(cfg, state_spec)
    value, attained = entropy_distance(rho, family)
    caps = tuple(cfg.param_cap / f for f in (8.0, 4.0, 2.0, 1.0))
    results = _project_ladder(rho, family, caps, lambda: not attained)
    res = results[-1]

    _say(cfg, f"distance value={fmt(value)} attained={int(attained)}", machine=True)
    coords = " ".join(fmt(t) for t in res.theta_star)
    _say(cfg, f"projection theta=[{coords}] grad={fmt(res.grad_residual)} "
              f"iterations={res.iterations}", machine=True)
    if not attained:
        _say(cfg, f"exact_path value={fmt(value)}", machine=True)
    for cap, r in zip(caps, results):
        _say(cfg, f"continuation cap={fmt(cap)} value={fmt(r.distance)} "
                  f"attained={int(r.attained)}", machine=True)

    rows = [("direct", cap, r.distance, int(r.attained)) for cap, r in zip(caps, results)]
    rows.append(("final", defaults.RI_PARAM_CAP, value, int(attained)))
    write_csv(
        os.path.join(cfg.out_dir, "distance.csv"),
        ["path", "param_cap", "value", "attained"],
        ["%s", NUM, NUM, "%s"],
        rows,
    )
    return EXIT_OK


def _maximizer_report(cfg: RunConfig) -> Report:
    """Certificate table over random invertible states, with an independent
    finite-difference column for the directional derivative."""
    family = build_family(cfg)
    rng = np.random.default_rng(cfg.seed)
    report = Report(name="maximizer")
    rows = []
    for k in range(12):
        rho = random_state(cfg.algebra, rng, invertible=True, min_eig=5e-2)
        cert = maximizer_certificate(rho, family)
        u = traceless_part(from_coords(cfg.algebra, 0.2 * rng.normal(size=cfg.algebra.real_dim)))
        analytic = cert.derivative(u)
        h = 1e-4
        dp, _ = entropy_distance(State(rho.element + h * u), family, tol=1e-12)
        dm, _ = entropy_distance(State(rho.element - h * u), family, tol=1e-12)
        fd = (dp - dm) / (2.0 * h)
        rel = abs(analytic - fd) / max(1e-12, abs(fd))
        rows.append((k, cert.distance, cert.certified_value, cert.residual,
                     cert.gradient_norm, analytic, fd, rel))
        report.add("derivative_fd_match", f"state {k}", rel, 1e-5)
        consistent = abs(cert.certified_value - cert.distance)
        bound = 1e-8 if cert.residual <= 1e-10 else max(1.0, cert.distance)
        report.add("certificate_consistency", f"state {k}", consistent, bound)
    write_csv(
        os.path.join(cfg.out_dir, "maximizer_table.csv"),
        ["state", "distance", "certified_value", "residual", "gradient_norm",
         "derivative_analytic", "derivative_fd", "relative_error"],
        ["%s"] + [NUM] * 7,
        rows,
    )
    if cfg.algebra.block_dims == (2, 1):
        p = Projector(cone.base_circle_state(0.0).element + cone.APEX)
        cands = local_max_search(cone.staffelberg_family(), p, seed=cfg.seed)
        certificates_csv(os.path.join(cfg.out_dir, "certificates.csv"), cands)
        best = max(c.value for c in cands)
        report.add("face_search_max", "largest distance on the [rho(0), apex] face",
                   abs(best - np.log(2.0)), 1e-6)
    return report


def cmd_report(cfg: RunConfig, which: str) -> int:
    """Run a named report, write its findings CSV, exit 4 on violations."""
    if which == "staffelberg":
        atlas = geodesic_closure_atlas(cone.staffelberg_family())
        report = cone.staffelberg_report(atlas)
        atlas_csv(os.path.join(cfg.out_dir, "staffelberg_atlas.csv"), atlas)
    elif which == "swallow":
        atlas = geodesic_closure_atlas(cone.swallow_family())
        report = cone.swallow_report(atlas)
        atlas_csv(os.path.join(cfg.out_dir, "swallow_atlas.csv"), atlas)
    elif which == "closures":
        report = inclusion_chain_check(build_family(cfg))
    elif which == "maximizer":
        report = _maximizer_report(cfg)
    elif which == "cone":
        report = cone.cone_identity_residuals(rng=np.random.default_rng(cfg.seed))
    else:
        raise PreconditionError(
            f"unknown report '{which}' "
            "(use staffelberg | swallow | closures | maximizer | cone)"
        )
    report_csv(os.path.join(cfg.out_dir, f"report_{which}.csv"), report)
    for f in report.findings:
        _say(cfg, f"finding check={f.check} ok={int(f.ok)} value={fmt(f.value)} "
                  f"bound={fmt(f.bound)}", machine=not f.ok)
    _say(cfg, f"report name={report.name} ok={int(report.ok)} "
              f"findings={len(report.findings)}", machine=True)
    return EXIT_OK if report.ok else EXIT_CONTRACT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once: parse_args returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="qexpfam",
        description="Entropy distance from exponential families of quantum states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("sweep", "distance", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--family", help="staffelberg | swallow | cone:<phi> | custom")
        p.add_argument("--phi", help="comma separated list of plane angles")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="random seed (non-negative)")
        p.add_argument("--angles", type=int, help="sweep resolution")
        p.add_argument("--cap", type=float, help="solver parameter cap")
        p.add_argument("--quiet", action="store_true", help="machine-readable output only")
        if name == "distance":
            p.add_argument("--state", required=True, help="state specification")
        if name == "report":
            p.add_argument(
                "--which", required=True,
                help="staffelberg | swallow | closures | maximizer | cone",
            )
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    if args.family:
        cfg.family_name = args.family
    if args.phi:
        cfg.phi_list = tuple(float(x) for x in args.phi.split(",") if x.strip())
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.angles is not None:
        cfg.n_angles = args.angles
    if getattr(args, "cap", None) is not None:
        cfg.param_cap = args.cap
    if args.quiet:
        cfg.quiet = True
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
    except (PreconditionError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "distance":
            return cmd_distance(cfg, args.state)
        return cmd_report(cfg, args.which)
    except (PreconditionError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnderResolvedSweepError, SolverError, NumericalDegeneracyError,
            DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
