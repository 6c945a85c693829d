"""One hypothesis profile for the whole suite: the same examples on every run.

And one whole-program pass for the whole suite, ``whole_program_pass``: a
fresh interpreter, in which ``import scipy`` fails and one CPU is usable
(so ``_fork_map`` runs every item in this process), runs ``tdlab list``,
``tdlab validate`` on a config that sets every key of every experiment to
its default, ``tdlab run`` of each experiment at its defaults and then the
four demos, under a ``sys.setprofile`` tracer that records each tdlab code
object it sees called.  It runs once per session, however many tests read
it: ``test_reachability`` reads the code objects it called, ``test_cli``
what the commands returned and wrote, ``test_demos`` what each demo printed.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tdlab", derandomize=True, deadline=None, database=None)
settings.load_profile("tdlab")

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

WHOLE_PROGRAM_PASS = """
import contextlib, io, os, runpy, sys, tempfile
from pathlib import Path

sys.modules["scipy"] = None  # the experiments, the CLI and the demos need numpy only
os.sched_getaffinity = lambda pid: {0}  # one usable CPU: _fork_map runs serially, here
src, out_path, demos = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = set()


def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
from tdlab.cli import main
from tdlab.experiments import EXPERIMENT_ORDER, EXPERIMENTS


def ini_value(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as printed:
    config = Path(tmp, "defaults.ini")  # every key of every experiment, at its default
    config.write_text("".join(
        f"[{name}]\\n" + "".join(f"{key} = {ini_value(v)}\\n" for key, v in EXPERIMENTS[name].defaults.items())
        for name in EXPERIMENT_ORDER
    ))
    codes = [main(["list"]), main(["validate", "--config", str(config)])]
    validated = f"ok ({len(EXPERIMENT_ORDER)} section(s))" in printed.getvalue()
    codes += [main(["run", name, "--out", str(Path(tmp, name))]) for name in EXPERIMENT_ORDER]
    unwritten = [name for name in EXPERIMENT_ORDER if not Path(tmp, name, "manifest.json").exists()]
    printed_chars = {}
    for demo in demos:
        before = printed.tell()
        runpy.run_path(demo, run_name="__main__")
        printed_chars[Path(demo).stem] = printed.tell() - before
sys.setprofile(None)
Path(out_path).write_text(repr({
    "seen": sorted(seen), "codes": codes, "validated": validated,
    "unwritten": unwritten, "printed_chars": printed_chars,
}))
"""


@pytest.fixture(scope="session")
def whole_program_pass(tmp_path_factory):
    """What the pass recorded: ``seen`` (the ``(co_filename,
    co_firstlineno)`` of each tdlab code object called), ``codes`` (the exit
    codes of ``list``, ``validate`` and the ten runs), ``validated``
    (``validate`` reported every section ok), ``unwritten`` (runs that wrote
    no manifest) and ``printed_chars`` (demo stem -> characters it printed).
    Asserts the pass exited 0."""
    import tdlab

    src = Path(tdlab.__file__).parent
    tmp = tmp_path_factory.mktemp("whole_program_pass")
    out = tmp / "recorded.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", WHOLE_PROGRAM_PASS, str(src), str(out), *map(str, DEMOS)],
        capture_output=True, text=True, env=env, cwd=tmp,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    recorded = ast.literal_eval(out.read_text())
    recorded["seen"] = set(recorded["seen"])
    return recorded
