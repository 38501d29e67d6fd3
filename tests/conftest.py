"""Fixtures shared by the test modules."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import fiblie
from fiblie import grading


@pytest.fixture
def folds(monkeypatch) -> list[int]:
    """The levels folded by ``level_multidegree_counts`` while the test runs,
    in order.  A level its guard refuses is not folded, so it is not listed.
    The spy replaces the function in every package module that binds it."""
    folded: list[int] = []
    fold = grading.level_multidegree_counts

    def spy(n: int):
        counts = fold(n)
        folded.append(n)
        return counts

    for info in pkgutil.iter_modules(fiblie.__path__):
        module = importlib.import_module(f"fiblie.{info.name}")
        if getattr(module, "level_multidegree_counts", None) is fold:
            monkeypatch.setattr(module, "level_multidegree_counts", spy)
    return folded
