"""Run configuration: a sectioned key=value text format.

Matrix entries are written as re,im pairs, row major per block, so a config
is diff-friendly and parseable from any language.  The README shows a
config that sets every key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from . import cone, defaults
from .errors import PreconditionError
from .family import make_family
from .linalg import Algebra, HermitianElement, diagonal, identity
from .states import State


def parse_element(algebra: Algebra, text: str) -> HermitianElement:
    """Hermitian element from 're,im re,im ...' entries, row major per block;
    malformed entries and non-Hermitian blocks raise PreconditionError."""
    pairs = text.replace(";", " ").split()
    need = sum(n * n for n in algebra.block_dims)
    if len(pairs) != need:
        raise PreconditionError(
            f"expected {need} complex entries for block dims {algebra.block_dims}, "
            f"got {len(pairs)}"
        )
    try:
        values = np.array([complex(float(x), float(y)) for x, y in (p.split(",") for p in pairs)])
        ends = np.cumsum([n * n for n in algebra.block_dims])[:-1]
        return HermitianElement(algebra, [b.reshape(n, n) for b, n
                                          in zip(np.split(values, ends), algebra.block_dims)])
    except ValueError as exc:  # a malformed re,im pair, or a block that is not Hermitian
        raise PreconditionError(f"bad element entries: {exc}") from None


def element_entries(blocks) -> np.ndarray:
    """Row-major re,im pairs per block, the wire format for matrix entries,
    of an element's complex blocks, or of stacks (rows, n_k, n_k) of them
    with one row of entries per row."""
    flat = [b.reshape(b.shape[:-2] + (-1,)) for b in blocks]
    return np.concatenate(flat, axis=-1, dtype=complex).view(np.float64)


def emit_element(a: HermitianElement) -> str:
    """The entries of a as parse_element reads them."""
    v = element_entries(a.blocks).tolist()
    return " ".join(
        f"{format(x, '.17g')},{format(y, '.17g')}" for x, y in zip(v[::2], v[1::2])
    )


def parse_angles(text: str) -> tuple[float, ...]:
    """The plane angles of a comma separated list; a list that names no
    angle raises PreconditionError, a malformed angle ValueError."""
    angles = tuple(float(x) for x in text.split(",") if x.strip())
    if not angles:
        raise PreconditionError(f"the angle list '{text}' names no angle")
    return angles


@dataclass
class RunConfig:
    """Everything a command needs: algebra, family, solver knobs, output."""

    block_dims: tuple[int, ...] = (2, 1)
    family_name: str = "staffelberg"
    custom_generators: tuple[str, ...] = ()
    param_cap: float = defaults.PARAM_CAP
    n_angles: int = defaults.SWEEP_ANGLES
    out_dir: str = "out"
    seed: int = 0
    quiet: bool = False
    phi_list: tuple[float, ...] = field(default_factory=tuple)

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.block_dims)

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
            cfg.param_cap = cp.getfloat("solver", "param_cap", fallback=cfg.param_cap)
        if cp.has_section("sweep"):
            cfg.n_angles = cp.getint("sweep", "n_angles", fallback=cfg.n_angles)
            if cp.has_option("sweep", "phi"):
                cfg.phi_list = parse_angles(cp.get("sweep", "phi"))
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
        if not 0.0 < self.param_cap < np.inf:
            raise PreconditionError(f"the parameter cap {self.param_cap} is not in (0, inf)")
        if self.n_angles < 4:
            raise PreconditionError("n_angles must be at least 4")
        if self.seed < 0:
            raise PreconditionError(f"the seed {self.seed} is negative")
        name = self.family_name
        named = name in ("staffelberg", "swallow") or name.startswith("cone:")
        if not named and name != "custom":
            raise PreconditionError(
                f"unknown family '{name}' "
                "(use staffelberg | swallow | cone:<phi> | custom)"
            )
        if named and self.block_dims != (2, 1):
            raise PreconditionError(f"family '{name}' lives in the cone algebra, blocks = 2,1")
        if self.family_name.startswith("cone:"):
            try:
                float(self.family_name[5:])
            except ValueError:
                raise PreconditionError(f"bad cone angle in '{self.family_name}'") from None
        if self.family_name == "custom" and len(self.custom_generators) < 1:
            raise PreconditionError("custom family needs generator1, generator2, ...")


def build_family(cfg: RunConfig):
    """Family named by the config (named cone families or custom generators)."""
    name = cfg.family_name
    if name == "staffelberg":
        return cone.staffelberg_family()
    if name == "swallow":
        return cone.swallow_family()
    if name.startswith("cone:"):
        return cone.plane_for_angle(float(name.split(":", 1)[1]))
    gens = [parse_element(cfg.algebra, g) for g in cfg.custom_generators]
    try:
        return make_family(cfg.algebra, gens)
    except ValueError as exc:  # rank-deficient once their trace parts are removed
        raise PreconditionError(f"custom generators: {exc}") from None


def _finite(what: str, text: str) -> float:
    """float(text), rejecting inf and nan: a state built from them is NaN."""
    x = float(text)
    if not np.isfinite(x):
        raise ValueError(f"{what} {text.strip()} is not finite")
    return x


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

    Malformed or non-finite numbers, an argument to a kind that takes none
    and invalid states raise PreconditionError.
    """
    kind, sep, arg = spec.partition(":")
    if kind in ("circle", "apex", "c", "tau") and cfg.algebra != cone.ALGEBRA:
        raise PreconditionError(f"state '{kind}' lives in the cone algebra, blocks = 2,1")
    if kind in ("apex", "c", "tracial") and sep:
        raise PreconditionError(f"bad state spec '{spec}': '{kind}' takes no argument")
    try:
        if kind == "circle":
            return cone.base_circle_state(_finite("angle", arg))
        if kind == "apex":
            return cone.APEX_STATE
        if kind == "c":
            return cone.midpoint_state()
        if kind == "tau":
            return cone.tau_state(_finite("lambda", arg))
        if kind == "tracial":
            return State(identity(cfg.algebra) / cfg.algebra.dim)
        if kind == "member":
            coords = [_finite("coordinate", x) for x in arg.split(",") if x.strip()]
            return build_family(cfg).member(coords)
        if kind == "diag":
            entries = [float(x) for x in arg.split(",") if x.strip()]
            return State(diagonal(cfg.algebra, entries))
        if kind == "raw":
            return State(parse_element(cfg.algebra, arg))
    except ValueError as exc:
        raise PreconditionError(f"bad state spec '{spec}': {exc}") from None
    raise PreconditionError(f"unknown state spec '{spec}'")
