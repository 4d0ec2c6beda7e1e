"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ```python block of the README's ``## Library example`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # the example's four prints
