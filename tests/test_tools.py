"""tools/count_code_lines.py, the count that code-size figures cite, and
tools/cli_matrix.py, the CLI comparison of two trees."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "count_code_lines.py"
MATRIX_TOOL = ROOT / "tools" / "cli_matrix.py"


def load_tool(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


counter = load_tool(TOOL)
cli_matrix = load_tool(MATRIX_TOOL)


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


def test_cli_matrix_of_the_tree_against_itself_reports_no_difference():
    started = time.perf_counter()
    result = subprocess.run([sys.executable, str(MATRIX_TOOL), str(ROOT), str(ROOT)],
                            capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert elapsed < 15, elapsed


def test_cli_matrix_covers_every_stage_flag_and_input_mode():
    commands = cli_matrix.matrix()
    edges = cli_matrix.edge_commands()
    grid = commands[:-len(edges)]
    assert commands[-len(edges):] == edges
    words = {word for argv in commands for word in argv}
    assert {"--sweep-T", "--panel", "--panel-dir", "--donor", "--alpha"} <= words
    assert sum(argv[0] == "simulate" for argv in grid) == 2 * len(cli_matrix.CORPORA)
    # Each analyze run is evaluated twice: at default flags and at the others.
    analyze = [argv for argv in grid if argv[0] == "analyze"]
    assert len(analyze) == len(cli_matrix.CORPORA) * 3 * 2 * 2 * 2
    assert sum(argv[0] == "evaluate" for argv in grid) == 2 * len(analyze)
    # The edges: one simulate, six window reads, one evaluate per window read
    # that succeeds and one whose capacity figures overflow, one --panel read
    # of each bad panel and one of huge-pre, a --panel-dir read of the
    # partial corpus at --jobs 1 and 2, a --panel-dir read into its own
    # corpus, and last a --panel read and an evaluate whose --out file lies in
    # that corpus.
    assert [argv[0] for argv in edges].count("simulate") == 1
    assert [argv[0] for argv in edges].count("analyze") == (
        6 + len(cli_matrix.BAD_PANELS) + 1 + 2 + 1 + 1)
    own, panel_into, evaluate_into = edges[-3:]
    corpus = own[own.index("--panel-dir") + 1]
    assert own[own.index("--out") + 1] == corpus
    for argv in (panel_into, evaluate_into):
        assert argv[argv.index("--out") + 1].rpartition("/")[0] == corpus
    assert [argv[0] for argv in edges].count("evaluate") == 4
    assert ["--long-cycle-days", "1e300", "--short-cycle-days", "1e-300"] in [
        argv[-4:] for argv in edges if argv[0] == "evaluate"]
    assert [argv[argv.index("--panel") + 1] for argv in edges if "--panel" in argv] == [
        *(f"bad/{name}.csv" for name in [*cli_matrix.BAD_PANELS, "huge-pre"]),
        f"{corpus}/sim-00000.csv"]
    assert [argv[-1] for argv in edges if "bad/partial" in argv] == ["1", "2"]
    assert not any(part.startswith("/") for argv in commands for part in argv)


def test_cli_matrix_compare_reports_each_kind_of_difference(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for work in (base, change):
        (work / "c" / "reports").mkdir(parents=True)
        (work / "c" / "same.json").write_text("[]")
        # Differing timings only: no difference.
        (work / "c" / "manifest.json").write_text(json.dumps(
            {"command": "simulate", "duration_seconds": len(work.name), "out_dir": "c"}))
    (base / "c" / "reports" / "report.json.manifest.json").write_text(json.dumps(
        {"command": "evaluate", "duration_seconds": 1.0, "estimates_dir": "e", "alpha": 0.05}))
    (change / "c" / "reports" / "report.json.manifest.json").write_text(json.dumps(
        {"command": "evaluate", "duration_seconds": 2.0, "estimates": "e", "alpha": 0.1}))
    (base / "c" / "reports" / "report.json").write_text('{"n_pairs": 4}')
    (change / "c" / "reports" / "report.json").write_text('{"n_pairs": 5}')
    (base / "c" / "only.csv").write_text("x\n")
    base_results = [{"argv": ["evaluate", "--out", "r"], "exit": 0, "stderr": ""},
                    {"argv": ["analyze"], "exit": 0, "stderr": ""}]
    change_results = [{"argv": ["evaluate", "--out", "r"], "exit": 3, "stderr": "surrokit: x\n"},
                      {"argv": ["analyze"], "exit": 0, "stderr": ""}]
    assert cli_matrix.compare(base_results, change_results, base, change) == [
        "exit code of `evaluate --out r`: BASE 0, CHANGE 3",
        "stderr of `evaluate --out r`: BASE '', CHANGE 'surrokit: x\\n'",
        "only in BASE: c/only.csv",
        "bytes differ: c/reports/report.json",
        "manifest fields differ: c/reports/report.json.manifest.json: alpha, estimates, "
        "estimates_dir",
    ]
    assert cli_matrix.compare(base_results, base_results, base, base) == []


def test_cli_matrix_refuses_a_path_that_is_no_repository_root(tmp_path):
    result = subprocess.run([sys.executable, str(MATRIX_TOOL), str(ROOT), str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 2 and result.stderr.startswith("usage:")
