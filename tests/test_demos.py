import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdlab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_where_scipy_cannot_be_imported(demo):
    """Each demo runs to exit 0 in a fresh interpreter in which ``import scipy``
    fails: the demos, like the library, need numpy only."""
    code = f"import runpy, sys; sys.modules['scipy'] = None; runpy.run_path({str(demo)!r}, run_name='__main__')"
    src = str(Path(tdlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
