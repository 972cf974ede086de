"""Every name a library module imports is used in that module.

Each ``src/nvmsim/*.py`` is parsed with ``ast``.  An imported name counts as
used when the module reads it as a name anywhere, annotations included, or
lists it in ``__all__`` (a package re-export).  A line that imports a name
on purpose without using it says so with ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nvmsim").glob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []  # (line, bound name)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_the_library_has_modules_to_check():
    assert len(SOURCES) >= 10 and any(path.name == "engine.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == [], path.name


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from operator import add, sub  # noqa: F401\n"
              "from itertools import count, repeat\n"
              "from typing import Optional\n"
              "__all__ = ['repeat']\n"
              "def f(x: Optional[int]):\n"
              "    return count(x)\n")
    assert unused_imports(source) == [(2, "os")]
