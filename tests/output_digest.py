"""One SHA-256 per CLI command over everything the command leaves behind, and
one per demo over its exit code, stdout and stderr.

    PYTHONPATH=src python tests/output_digest.py
    PYTHONPATH=src python tests/output_digest.py --against parent.txt

Runs a fixed list of 37 ``qexpfam`` commands (every report at three seeds,
the closures report of four cone families, of a custom two-generator
family on blocks 2,2 and of a custom diagonal two-generator family on blocks
1,1,1,1, whose atlas has four rank-2 groups of family dimension 1, one of
the cone families at tilt 1.0471275, 7e-5
below pi/3, whose sampled spike member lifts to |x| = 78 in the family's
coordinates, two sweeps and seventeen distances, two
of them at a cap ladder whose caps act on rungs with different values, one
at a full-rank swallow state whose uncapped exact solve converges at
|theta| = 620.65, one at swallow rho(1e-4), whose exact solve converges
at |theta| = 1.4e5 (Armijo's floor is taken at the scale of the free
energy, where the objective rounds), and one at E_11 in a custom
three-generator family on one 4x4 block, whose face chain skips a face:
its first face has rank 3, and a lifted direction exposes the rank-2 face
{e_1, e_4} at once, and two at E_11 and that family conjugated by one Haar
unitary, with all three generators and with the first two, where E_11's
face search runs its great-circle step, and one at a random state in a
custom ten-generator family on blocks 3,2 whose config sets every key, the
end-to-end guard of the config format, and one at a state of full rank on
span(e_1, e_2, e_3) in a custom four-generator family on one 4x4 block whose
first generator is diag(1, 1, 1, -3): its chain is the one rank-3 face, and
the solve runs in a compressed family of dimension 3), each in a fresh temporary
directory, into which it
first writes the command's config file if it names one, and a fresh
process, and
prints one line per command: the SHA-256 over its exit code, stdout, stderr
and every file it wrote (relative path and bytes), then the command.  Then it
runs the five scripts in ``demos/`` beside the package's ``src/``, each in a
fresh process, and prints one line per demo: the SHA-256 over its exit code,
stdout and stderr, then ``demo`` and the script's name (42 lines in all; the
drawings a demo writes into ``demos/demos_out`` are not hashed).  Two checkouts
whose outputs are byte-identical print the same lines, so comparing the
printout of a change with its parent's checks that a refactor left every
output as it was.  With ``--against FILE``, a printout saved from another
checkout, it prints only the commands whose line differs from that file's
(or that the file lacks), demos included, and exits 1 if there is any, 0 if
none.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

import qexpfam
from qexpfam.config import emit_element, parse_element
from qexpfam.linalg import Algebra, HermitianElement, diagonal
from qexpfam.sampling import haar_unitary, random_state, random_traceless

# file name: text of the custom families' configs.  custom_2_2: a
# block-diagonal generator pair whose second blocks commute, so the atlas
# has runs and spikes.  tie_4: E_22, E_33 + E_24 + E_42 and E_24 + E_42
# (E_ij the matrix units), where the face chain of E_11 skips a face.
# diag_1111: two diagonal generators on four one-dimensional blocks, whose
# atlas has 8 groups, 4 of them of rank 2 with a one-dimensional family
CONFIGS = {
    "custom_2_2.cfg": "[algebra]\nblocks = 2,2\n[family]\nname = custom\n"
                      "generator1 = 1,0 0,0 0,0 0,0 1,0 0,0 0,0 -1,0\n"
                      "generator2 = 0,0 1,0 1,0 0,0 0,0 0,0 0,0 1,0\n",
    "tie_4.cfg": "[algebra]\nblocks = 4\n[family]\nname = custom\n"
                 "generator1 = 0,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0\n"
                 "generator2 = 0,0 0,0 0,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0 1,0 0,0 0,0 1,0 0,0 0,0\n"
                 "generator3 = 0,0 0,0 0,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0 0,0 0,0 0,0 1,0 0,0 0,0\n",
    "diag_1111.cfg": "[algebra]\nblocks = 1,1,1,1\n[family]\nname = custom\n"
                     "generator1 = 1,0 -0.4,0 -1,0 0.7,0\n"
                     "generator2 = 0.2,0 1,0 -0.3,0 -0.9,0\n",
}
E11 = "1,0 " + " ".join(["0,0"] * 15)


def _rotated(entries: str) -> str:
    """The entries of a 4x4 element conjugated by haar_unitary(4, default_rng(5))."""
    algebra, u = Algebra((4,)), haar_unitary(4, np.random.default_rng(5))
    a = u @ parse_element(algebra, entries).blocks[0] @ u.conj().T
    return emit_element(HermitianElement(algebra, [0.5 * (a + a.conj().T)]))


# tie_4 rotated, with all three generators (dim L = 3 at E_11) and with the
# first two (dim L = 2): off the axes the margin search of E_11's face runs
# its great-circle step
_TIE_4 = [line.split(" = ")[1] for line in CONFIGS["tie_4.cfg"].splitlines()
          if line.startswith("generator")]
for _name, _gens in (("tie_4_rotated.cfg", _TIE_4), ("tie_4_rotated_2.cfg", _TIE_4[:2])):
    CONFIGS[_name] = "[algebra]\nblocks = 4\n[family]\nname = custom\n" + "".join(
        f"generator{i} = {_rotated(g)}\n" for i, g in enumerate(_gens, 1))

# ten random generators on blocks 3,2 and a random invertible state (default_rng(3)),
# with every section of the config set; the generator keys are listed in
# string order (generator1, generator10, generator2, ...), so the family's
# coordinates come out right only if they are read in numeric order
_RNG, _ALGEBRA_3_2 = np.random.default_rng(3), Algebra((3, 2))
_GENS_10 = [emit_element(random_traceless(_ALGEBRA_3_2, _RNG)) for _ in range(10)]
RAW_3_2 = emit_element(random_state(_ALGEBRA_3_2, _RNG).element)
CONFIGS["custom_10.cfg"] = (
    "[algebra]\nblocks = 3,2\n[family]\nname = custom\n"
    + "".join(f"generator{k} = {_GENS_10[k - 1]}\n" for k in sorted(range(1, 11), key=str))
    + "[solver]\nparam_cap = 30\n[sweep]\nn_angles = 360\nphi = 0.5\n"
    "[output]\ndir = out\n[run]\nseed = 3\nquiet = true\n")

# diag(1, 1, 1, -3) and three random generators on one 4x4 block (default_rng(0)),
# and a random state of Mat(3) on span(e_1, e_2, e_3): the first generator
# exposes that face, and the family compresses to it with a real tangent space
_RNG, _ALGEBRA_4 = np.random.default_rng(0), Algebra((4,))
_GENS_4 = [emit_element(diagonal(_ALGEBRA_4, [1.0, 1.0, 1.0, -3.0]))] + [
    emit_element(random_traceless(_ALGEBRA_4, _RNG)) for _ in range(3)]
_CORNER = np.zeros((4, 4), dtype=complex)
_CORNER[:3, :3] = random_state(Algebra((3,)), _RNG).element.blocks[0]
RAW_4 = emit_element(HermitianElement(_ALGEBRA_4, [_CORNER]))
CONFIGS["compress_4.cfg"] = "[algebra]\nblocks = 4\n[family]\nname = custom\n" + "".join(
    f"generator{i} = {g}\n" for i, g in enumerate(_GENS_4, 1))

COMMANDS = (
    [["report", "--which", which, "--seed", seed]
     for which in ("staffelberg", "swallow", "cone", "maximizer")
     for seed in ("0", "7", "12345")]
    + [["report", "--which", "closures", "--family", fam]
       for fam in ("staffelberg", "swallow", "cone:0.7", "cone:1.0471275")]
    + [["sweep", "--phi", "0,0.03,0.5,0.8255269040265483,1.0471975511965976,1.2"],
       ["sweep", "--family", "swallow"]]
    + [["distance", "--state", state]
       for state in ("circle:0", "c", "apex", "tau:0.5", "circle:0.3", "circle:0.001",
                     "tracial")]
    + [["distance", "--family", "swallow", "--state", "circle:0.001"],
       ["distance", "--family", "swallow", "--state", "circle:0.001", "--cap", "25"],
       ["distance", "--state", "member:30,-20", "--cap", "20"],
       ["distance", "--family", "swallow", "--state",
        "raw:0.49998333333333317,0 0,-0.49994999999999984 0,0.49994999999999984 "
        "0.49998333333333317,0 3.3333333333333335e-05,0", "--cap", "10000"],
       ["distance", "--family", "swallow", "--state", "circle:1e-4"]]
    + [["report", "--which", "closures", "--config", name]
       for name in ("custom_2_2.cfg", "diag_1111.cfg")]
    + [["distance", "--config", "tie_4.cfg", "--state", "raw:" + E11]]
    + [["distance", "--config", name, "--state", "raw:" + _rotated(E11)]
       for name in ("tie_4_rotated.cfg", "tie_4_rotated_2.cfg")]
    + [["distance", "--config", "custom_10.cfg", "--state", "raw:" + RAW_3_2],
       ["distance", "--config", "compress_4.cfg", "--state", "raw:" + RAW_4]]
)


def _hash_run(proc: subprocess.CompletedProcess):
    """A SHA-256 started with a finished process's exit code, stdout and stderr."""
    h = hashlib.sha256()
    h.update(f"exit {proc.returncode}\n".encode())
    for stream in (proc.stdout, proc.stderr):
        h.update(len(stream).to_bytes(8, "little") + stream)
    return h


def digest(args: list[str], env: dict) -> str:
    """Run ``qexpfam args --out out`` in a fresh directory and hash its traces."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS.keys() & args:  # hashed below with the command's outputs
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(CONFIGS[name])
        proc = subprocess.run([sys.executable, "-m", "qexpfam.cli", *args, "--out", "out"],
                              cwd=tmp, env=env, capture_output=True)
        h = _hash_run(proc)
        files = sorted(os.path.relpath(os.path.join(d, f), tmp)
                       for d, _, names in os.walk(tmp) for f in names)
        for rel in files:
            with open(os.path.join(tmp, rel), "rb") as handle:
                data = handle.read()
            h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        return h.hexdigest()


def demo_digest(path: str, env: dict) -> str:
    """Run one demo script in a fresh process and hash its exit code and streams."""
    return _hash_run(subprocess.run([sys.executable, path], env=env,
                                    capture_output=True)).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="One SHA-256 per qexpfam CLI command and demo.")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved printout: print the commands whose line differs, exit 1")
    opts = parser.parse_args(argv)
    saved = None
    if opts.against is not None:
        with open(opts.against, encoding="utf-8") as handle:
            saved = {line.rstrip("\n") for line in handle}
    src = os.path.dirname(os.path.dirname(os.path.abspath(qexpfam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    demos = sorted(glob.glob(os.path.join(os.path.dirname(src), "demos", "demo_*.py")))
    runs = [(" ".join(args), digest, args) for args in COMMANDS]
    runs += [(f"demo {os.path.basename(path)}", demo_digest, path) for path in demos]
    differ = 0
    for label, run, what in runs:
        line = f"{run(what, env)} {label}"
        if saved is None:
            print(line, flush=True)
        elif line not in saved:
            differ += 1
            print(f"differs: {label}", flush=True)
    if saved is not None:
        print(f"{differ} of {len(runs)} lines differ from {opts.against}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
