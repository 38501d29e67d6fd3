"""Source-level rules for the package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import fiblie

PACKAGE = Path(fiblie.__file__).parent


def _nodes(match) -> list[str]:
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if match(node)
    ]


def test_package_has_no_assert_guards():
    # python -O strips asserts, so every guard must raise FibLieError instead
    assert _nodes(lambda node: isinstance(node, ast.Assert)) == []


def _raises_value_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_package_raises_no_bare_value_error():
    # the CLI turns FibLieError into exit 2; InputError is also a ValueError
    assert _nodes(_raises_value_error) == []


def test_package_imports_only_stdlib_at_module_level():
    # fiblie has no runtime dependency, and no import hides inside a function
    allowed = sys.stdlib_module_names | {"fiblie"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [] if node.level else [node.module.split(".")[0]]
            else:
                continue
            if node not in tree.body or not allowed.issuperset(roots):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
