"""Every public name of surrokit, and every public member of its classes, has
a reader besides the tests."""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import surrokit

ROOT = Path(__file__).resolve().parents[1]


def read_names(path: Path, bare: bool = True) -> set[str]:
    """The names that ``path``'s code reads as an attribute, and bare if ``bare``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@functools.cache
def names_read_outside_the_tests(bare: bool = True) -> frozenset[str]:
    """The names read by the package's modules, perfbench or the README.

    The package's own modules count when their code reads a name, so a
    definition and its re-export in __init__.py do not. Without ``bare``
    they count only a name read as an attribute, as a class member is, so
    a local variable of the same name does not.
    """
    modules = [path for path in (ROOT / "src" / "surrokit").glob("*.py")
               if path.name != "__init__.py"]
    read = set().union(*(read_names(path, bare) for path in modules))
    for path in (ROOT / "perfbench").rglob("*"):
        if path.suffix in (".py", ".md"):
            read.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    read.update(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    return frozenset(read)


def public_members(cls: type) -> set[str]:
    """The public methods, properties and dataclass fields that ``cls`` itself defines."""
    kinds = (property, classmethod, staticmethod)
    names = {name for name, value in vars(cls).items()
             if inspect.isfunction(value) or isinstance(value, kinds)}
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_read_by_the_package_perfbench_or_the_readme():
    public = {name for name, value in vars(surrokit).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(public - names_read_outside_the_tests()) == []


def test_every_public_member_is_read_by_the_package_perfbench_or_the_readme():
    classes = [value for name, value in vars(surrokit).items()
               if not name.startswith("_") and inspect.isclass(value)
               and not issubclass(value, BaseException)]
    assert len(classes) > 3
    unread = [f"{cls.__name__}.{name}" for cls in classes
              for name in sorted(public_members(cls) - names_read_outside_the_tests(bare=False))]
    assert unread == []
