"""``tools/code_lines.py`` counts code lines on a made-up module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    def size(self):
        """Method docstring."""
        # a comment line
        text = """a string that is not a docstring

spans three lines"""
        return len(text)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, def, the three lines of ``text``, return
    assert code_lines.code_lines(FIXTURE) == 7
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 8, 11}


def test_the_table_has_a_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    code_lines.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "physical"], ["a.py", "7", "16"], ["b.py", "1", "2"], ["total", "8", "18"]]
