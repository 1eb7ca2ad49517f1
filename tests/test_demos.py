"""Every demo runs to completion against the package sources."""

import os
import pathlib
import subprocess
import sys

import pytest

import qexpfam

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    src = os.path.dirname(os.path.dirname(qexpfam.__file__))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr


def test_all_five_demos_found():
    assert len(DEMOS) == 5
