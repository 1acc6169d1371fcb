"""tools/code_lines.py counts code lines, not blanks, comments or docstrings."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code

# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring."""
        text = """a multi-line string
that is not a docstring"""
        return (
            text,
            os.sep,
        )


async def run():
    "one-line docstring"
    return 1
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_snippet_counts_only_its_code_lines():
    # import, class, def, the two lines of `text`, the four of `return (...)`,
    # async def, return 1
    assert load_tool().code_lines(SNIPPET) == 11
    assert load_tool().code_lines("") == 0


def test_the_script_prints_each_file_and_the_total(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SNIPPET)
    two.write_text("x = 1\n\n# done\n")
    done = subprocess.run(
        [sys.executable, str(TOOL), str(one), str(two)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == [f"11 {one}", f"1 {two}", "12 total"]


def test_a_directory_counts_the_python_files_directly_in_it(tmp_path):
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("y = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("z = 3\n")

    def printed(*args):
        done = subprocess.run(
            [sys.executable, str(TOOL), *map(str, args)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return done.stdout.splitlines()

    a, b = tmp_path / "a.py", tmp_path / "b.py"
    assert printed(tmp_path) == printed(a, b) == [f"1 {a}", f"11 {b}", "12 total"]
