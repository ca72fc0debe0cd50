"""tools/code_lines.py: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

# a comment
import math


class Disc:
    """Class docstring."""

    def area(self, r):
        """Function docstring."""
        return math.pi * r**2  # trailing comment

    label = """not a docstring:
two lines"""
'''


def test_counts_lines_with_code_and_skips_docstrings(tmp_path, capsys):
    # import, class, def, return and the two lines of the assigned string
    assert code_lines.code_lines(SNIPPET) == 6
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    code_lines.main([str(path), str(path)])
    assert capsys.readouterr().out.split() == ["6", str(path), "6", str(path), "12", "total"]
