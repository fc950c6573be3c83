"""Every import in the library is used.

An import is unused when the name it binds is never read in its module, is
not listed in ``__all__`` and its import statement carries no ``# noqa``
(on the statement's first line or on the name's own line).
"""
import ast
import pathlib

import pytest

SRC = sorted((pathlib.Path(__file__).parent.parent / "src" / "tetra").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                own_lines = (node.lineno, alias.lineno)
                if not any("# noqa" in lines[n - 1] for n in own_lines):
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {
        n.id for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(
        f"line {line}: {name}" for name, line in bound.items()
        if name not in read and name not in exported
    )


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = (
        "import math\n"
        "import os  # noqa: F401\n"
        "from .errors import NormTooLarge, Outside\n"
        "__all__ = ['Outside']\n"
        "x = math.pi\n"
    )
    assert unused_imports(source) == ["line 3: NormTooLarge"]
