"""`tools/code_lines.py`, the counter behind the size figures in ROADMAP.md."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Code lines: `import os`, `class Shape:`, `def area(self):` and the three
# lines of its return statement, one of them with a trailing comment.
SNIPPET = '''\
"""A module docstring,
over two lines."""

import os


class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        # A comment-only line.

        return os.path.join(
            "a",  # a trailing comment
            "b")
'''


def test_counts_code_lines_per_file_and_in_total(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SNIPPET)
    two.write_text("# only a comment\n\nx = 1\n")
    done = subprocess.run([sys.executable, str(TOOL), str(one), str(two)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["6", str(one), "1", str(two), "7", "total"]
