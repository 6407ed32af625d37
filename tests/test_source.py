"""Static checks over the package's own source, in place of a linter."""

import ast
from pathlib import Path

import pytest

import ridepool

SOURCES = sorted(Path(ridepool.__file__).parent.glob("*.py"))


def imported_names(tree):
    """(bound name, line) of each import in `tree` but `__future__`'s `annotations`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    yield name, node.lineno


def read_names(tree):
    """The names `tree` reads: each loaded `Name`, which is also the base of
    every attribute chain, in annotations too, string annotations parsed."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("from .mechanisms import POOLED, UNSERVED\n"
                     "import numpy as np\n"
                     "def f(d) -> 'np.ndarray':\n"
                     "    return d.decision == UNSERVED\n")
    used = read_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["POOLED"]
