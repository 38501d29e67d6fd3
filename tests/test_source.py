"""Source-level rules for the package."""

from __future__ import annotations

import ast
from pathlib import Path

import fiblie

PACKAGE = Path(fiblie.__file__).parent


def test_package_has_no_assert_guards():
    # python -O strips asserts, so every guard must raise FibLieError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
