import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module
docstring."""
# a comment

import math  # trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring.
        """
        text = """not a
docstring"""
        return math.sqrt(x) + len(text)
'''


def test_counts_code_and_skips_blanks_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, class, def, the two-line string assignment and return
    assert code_lines.code_lines(str(path)) == 6
