from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_where_scipy_cannot_be_imported(demo, whole_program_pass):
    """Each demo runs to its end and prints something in the suite's one
    whole-program pass (``conftest.whole_program_pass``), whose interpreter
    cannot import scipy: the demos, like the library, need numpy only."""
    assert whole_program_pass["printed_chars"][demo.stem] > 0
