"""Source-level rules for the package."""

from __future__ import annotations

import ast
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
