"""tools/count_code_lines.py, the count that code-size figures cite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "count_code_lines.py"

_spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
counter = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counter)


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '''"""A module docstring
over two lines."""

# a comment
def f():
    """A function docstring."""
    return 1  # a trailing comment


class C:
    """A class
    docstring."""

    x = 2
'''
    # def, return, class and the assignment
    assert counter.count_code_lines(source) == 4


def test_multi_line_string_that_is_not_a_docstring_counts_on_every_line():
    source = 'x = 1\ntext = """one\n\ntwo"""\n'
    assert counter.count_code_lines(source) == 4


def run_tool(cwd):
    result = subprocess.run([sys.executable, str(TOOL)], cwd=cwd, capture_output=True,
                            text=True, check=True)
    return result.stdout.splitlines()


def test_total_is_the_sum_of_the_module_rows_from_any_directory(tmp_path):
    lines = run_tool(tmp_path)
    *rows, total = lines
    paths = [row.split()[1] for row in rows]
    assert paths == sorted(paths) and "src/surrokit/cli.py" in paths
    counts = [int(row.split()[0]) for row in rows]
    assert total.split() == [str(sum(counts)), "total"] and sum(counts) > 0
    assert run_tool(ROOT) == lines
