import importlib.util
import subprocess
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


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True,
    )


def test_base_prints_counts_at_a_revision_and_the_total_delta(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    _git(repo, "init", "-q")
    (repo / "pkg" / "kept.py").write_text("x = 1\ny = 2\n")
    (repo / "pkg" / "same.py").write_text("z = 3\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "pkg" / "kept.py").write_text('"""Doc."""\nx = 1\n# note\ny = 2\nw = 4\n')
    (repo / "pkg" / "new.py").write_text(SOURCE)
    monkeypatch.chdir(repo)
    assert code_lines.main(["--base", "HEAD", "pkg/kept.py", "pkg/new.py"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     3      2     +1 pkg/kept.py",
        "     6      0     +6 pkg/new.py",  # absent at HEAD
        "     9      2     +7 total",
    ]
    # paths are read relative to the working folder, not the repository root
    monkeypatch.chdir(repo / "pkg")
    assert code_lines.main(["--base", "HEAD", "same.py"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "     1      1     +0 total"
    assert code_lines.main(["same.py"]) == 0  # no --base: the plain format
    assert capsys.readouterr().out.splitlines() == ["     1 same.py", "     1 total"]


def test_base_that_is_no_commit_is_an_error(tmp_path, monkeypatch, capsys):
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["--base", "HEAD", "a.py"]) == 1  # no commit yet
    assert "is not a commit" in capsys.readouterr().err
