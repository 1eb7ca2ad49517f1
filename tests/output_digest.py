"""One SHA-256 per CLI command over everything the command leaves behind.

    PYTHONPATH=src python tests/output_digest.py

Runs a fixed list of 25 ``qexpfam`` commands (every report at three seeds,
the closures report of three families, two sweeps and eight distances),
each in a fresh temporary directory and a fresh process, and prints one
line per command: the SHA-256 over its exit code, stdout, stderr and every
file it wrote (relative path and bytes), then the command.  Two checkouts
whose outputs are byte-identical print the same lines, so comparing the
printout of a change with its parent's checks that a refactor left every
output as it was.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

import qexpfam

COMMANDS = (
    [["report", "--which", which, "--seed", seed]
     for which in ("staffelberg", "swallow", "cone", "maximizer")
     for seed in ("0", "7", "12345")]
    + [["report", "--which", "closures", "--family", fam]
       for fam in ("staffelberg", "swallow", "cone:0.7")]
    + [["sweep", "--phi", "0,0.03,0.5,0.8255269040265483,1.0471975511965976,1.2"],
       ["sweep", "--family", "swallow"]]
    + [["distance", "--state", state]
       for state in ("circle:0", "c", "apex", "tau:0.5", "circle:0.3", "circle:0.001",
                     "tracial")]
    + [["distance", "--family", "swallow", "--state", "circle:0.001"]]
)


def digest(args: list[str], env: dict) -> str:
    """Run ``qexpfam args --out out`` in a fresh directory and hash its traces."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "qexpfam.cli", *args, "--out", "out"],
                              cwd=tmp, env=env, capture_output=True)
        h = hashlib.sha256()
        h.update(f"exit {proc.returncode}\n".encode())
        for stream in (proc.stdout, proc.stderr):
            h.update(len(stream).to_bytes(8, "little") + stream)
        files = sorted(os.path.relpath(os.path.join(d, f), tmp)
                       for d, _, names in os.walk(tmp) for f in names)
        for rel in files:
            with open(os.path.join(tmp, rel), "rb") as handle:
                data = handle.read()
            h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        return h.hexdigest()


def main() -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(qexpfam.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for args in COMMANDS:
        print(digest(args, env), " ".join(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
