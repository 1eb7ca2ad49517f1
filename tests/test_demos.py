"""Every demo runs to completion against the package sources."""

import os
import pathlib
import subprocess
import sys

import pytest

import qexpfam

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((CHECKOUT / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    src = os.path.dirname(os.path.dirname(qexpfam.__file__))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr
    # stdout is the same in every checkout of the same sources
    assert str(CHECKOUT) not in result.stdout


def test_all_five_demos_found():
    assert len(DEMOS) == 5
