"""Every public name of surrokit has a reader besides the tests."""

import ast
import inspect
import re
from pathlib import Path

import surrokit

ROOT = Path(__file__).resolve().parents[1]


def read_names(path: Path) -> set[str]:
    """The names that ``path``'s code reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_is_read_by_the_package_perfbench_or_the_readme():
    # The package's own modules count when their code reads a name, so its
    # definition and its re-export in __init__.py do not.
    public = {name for name, value in vars(surrokit).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    modules = [path for path in (ROOT / "src" / "surrokit").glob("*.py")
               if path.name != "__init__.py"]
    read = set().union(*map(read_names, modules))
    for path in (ROOT / "perfbench").rglob("*"):
        if path.suffix in (".py", ".md"):
            read.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    read.update(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(public - read) == []
