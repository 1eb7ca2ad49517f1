"""Run configuration: a sectioned key=value text format.

Matrix entries are written as re,im pairs, row major per block, so a config
is diff-friendly and parseable from any language.  emit() produces a
canonical form; parse(emit(c)) reproduces c exactly.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .errors import PreconditionError
from .linalg import Algebra, HermitianElement


def parse_element(algebra: Algebra, text: str) -> HermitianElement:
    """Hermitian element from 're,im re,im ...' entries, row major per block."""
    pairs = text.replace(";", " ").split()
    values = []
    for pair in pairs:
        re_s, im_s = pair.split(",")
        values.append(complex(float(re_s), float(im_s)))
    need = sum(n * n for n in algebra.block_dims)
    if len(values) != need:
        raise PreconditionError(
            f"expected {need} complex entries for block dims {algebra.block_dims}, "
            f"got {len(values)}"
        )
    blocks, k = [], 0
    for n in algebra.block_dims:
        blocks.append(np.array(values[k : k + n * n]).reshape(n, n))
        k += n * n
    return HermitianElement(algebra, blocks)


def element_entries(a: HermitianElement) -> list[float]:
    """Row-major re,im pairs per block, the wire format for matrix entries."""
    out: list[float] = []
    for b in a.blocks:
        for row in np.asarray(b):
            for entry in row:
                out.extend((float(entry.real), float(entry.imag)))
    return out


def emit_element(a: HermitianElement) -> str:
    """The entries of a as parse_element reads them."""
    v = element_entries(a)
    return " ".join(
        f"{format(x, '.17g')},{format(y, '.17g')}" for x, y in zip(v[::2], v[1::2])
    )


@dataclass
class RunConfig:
    """Everything a command needs: algebra, family, solver knobs, output."""

    block_dims: tuple[int, ...] = (2, 1)
    family_name: str = "staffelberg"
    custom_generators: tuple[str, ...] = ()
    tol: float = defaults.SOLVER_TOL
    param_cap: float = defaults.PARAM_CAP
    max_iter: int = defaults.MAX_ITER
    n_angles: int = defaults.SWEEP_ANGLES
    out_dir: str = "out"
    seed: int = 0
    quiet: bool = False
    phi_list: tuple[float, ...] = field(default_factory=tuple)

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.block_dims)

    def emit(self) -> str:
        cp = configparser.ConfigParser()
        cp["algebra"] = {"blocks": ",".join(str(n) for n in self.block_dims)}
        fam = {"name": self.family_name}
        for i, g in enumerate(self.custom_generators, start=1):
            fam[f"generator{i}"] = g
        cp["family"] = fam
        cp["solver"] = {
            "tol": format(self.tol, ".17g"),
            "param_cap": format(self.param_cap, ".17g"),
            "max_iter": str(self.max_iter),
        }
        sweep = {"n_angles": str(self.n_angles)}
        if self.phi_list:
            sweep["phi"] = ",".join(format(p, ".17g") for p in self.phi_list)
        cp["sweep"] = sweep
        cp["output"] = {"dir": self.out_dir}
        cp["run"] = {"seed": str(self.seed), "quiet": str(self.quiet).lower()}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser()
        try:
            cp.read_string(text)
        except configparser.Error as exc:
            raise PreconditionError(f"config parse error: {exc}") from exc
        cfg = cls()
        if cp.has_option("algebra", "blocks"):
            cfg.block_dims = tuple(
                int(x) for x in cp.get("algebra", "blocks").split(",") if x.strip()
            )
        if cp.has_section("family"):
            cfg.family_name = cp.get("family", "name", fallback=cfg.family_name)
            keys = [k for k in cp.options("family")
                    if k.startswith("generator") and k[9:].isdigit()]
            keys.sort(key=lambda k: int(k[9:]))
            cfg.custom_generators = tuple(cp.get("family", k) for k in keys)
        if cp.has_section("solver"):
            cfg.tol = cp.getfloat("solver", "tol", fallback=cfg.tol)
            cfg.param_cap = cp.getfloat("solver", "param_cap", fallback=cfg.param_cap)
            cfg.max_iter = cp.getint("solver", "max_iter", fallback=cfg.max_iter)
        if cp.has_section("sweep"):
            cfg.n_angles = cp.getint("sweep", "n_angles", fallback=cfg.n_angles)
            if cp.has_option("sweep", "phi"):
                cfg.phi_list = tuple(
                    float(x) for x in cp.get("sweep", "phi").split(",") if x.strip()
                )
        if cp.has_section("output"):
            cfg.out_dir = cp.get("output", "dir", fallback=cfg.out_dir)
        if cp.has_section("run"):
            cfg.seed = cp.getint("run", "seed", fallback=cfg.seed)
            cfg.quiet = cp.getboolean("run", "quiet", fallback=cfg.quiet)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r") as handle:
            return cls.parse(handle.read())

    def validate(self) -> None:
        if not self.block_dims or any(n < 1 for n in self.block_dims):
            raise PreconditionError(f"invalid block dims {self.block_dims}")
        if sum(self.block_dims) > defaults.MAX_TOTAL_DIM:
            raise PreconditionError("total algebra dimension exceeds the cap")
        if self.tol <= 0 or self.param_cap <= 0 or self.max_iter < 1:
            raise PreconditionError("solver knobs must be positive")
        if self.n_angles < 4:
            raise PreconditionError("n_angles must be at least 4")
        known = {"staffelberg", "swallow", "custom"}
        if self.family_name not in known and not self.family_name.startswith("cone:"):
            raise PreconditionError(
                f"unknown family '{self.family_name}' "
                "(use staffelberg | swallow | cone:<phi> | custom)"
            )
        if self.family_name == "custom" and len(self.custom_generators) < 1:
            raise PreconditionError("custom family needs generator1, generator2, ...")


def build_family(cfg: RunConfig):
    """Family named by the config (named cone families or custom generators)."""
    from . import cone
    from .family import make_family

    name = cfg.family_name
    if name == "staffelberg":
        return cone.staffelberg_family()
    if name == "swallow":
        return cone.swallow_family()
    if name.startswith("cone:"):
        return cone.plane_for_angle(float(name.split(":", 1)[1]))
    gens = [parse_element(cfg.algebra, g) for g in cfg.custom_generators]
    return make_family(cfg.algebra, gens)


def parse_state(cfg: RunConfig, spec: str):
    """State specifications for the command line.

    circle:<alpha>   base circle state (cone algebra)
    apex             0_2 + 1 (cone algebra)
    c                midpoint of the generating line (cone algebra)
    tau:<lam>        (1 - lam/2) rho(0) + (lam/2) apex (cone algebra)
    tracial          identity / N
    member:<t1,..>   family member at the given coordinates
    diag:<p1,..>     diagonal state with the given spectrum
    raw:<entries>    re,im entries row major per block
    """
    from . import cone
    from .linalg import diagonal, identity
    from .states import State

    kind, _, arg = spec.partition(":")
    if kind == "circle":
        return cone.base_circle_state(float(arg))
    if kind == "apex":
        return cone.apex_state()
    if kind == "c":
        return cone.midpoint_state()
    if kind == "tau":
        lam = float(arg)
        return State(
            (1.0 - lam / 2.0) * cone.base_circle_state(0.0).element
            + (lam / 2.0) * cone.unit()
        )
    if kind == "tracial":
        return State(identity(cfg.algebra) / cfg.algebra.dim)
    if kind == "member":
        coords = [float(x) for x in arg.split(",") if x.strip()]
        return build_family(cfg).member(coords)
    if kind == "diag":
        entries = [float(x) for x in arg.split(",") if x.strip()]
        return State(diagonal(cfg.algebra, entries))
    if kind == "raw":
        return State(parse_element(cfg.algebra, arg))
    raise PreconditionError(f"unknown state spec '{spec}'")
