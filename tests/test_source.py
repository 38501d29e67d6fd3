"""Source-level rules for the package."""

from __future__ import annotations

import ast
import os
import subprocess
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


def _name(node) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _raised(node) -> str | None:
    """The name of the class a raise statement raises, or None."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return None
    return _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)


def test_package_raises_no_bare_value_error():
    # the CLI turns FibLieError into exit 2; InputError is also a ValueError
    assert _nodes(lambda node: _raised(node) == "ValueError") == []


def test_every_error_class_is_raised():
    # an error class leaves the package with its last raise
    nodes = [
        node
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
    ]
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    errors = {"FibLieError"}
    for _ in classes:  # enough passes to reach every subclass of a subclass
        errors |= {c.name for c in classes if any(_name(b) in errors for b in c.bases)}
    raised = {_raised(node) for node in nodes}
    assert sorted(errors - {"FibLieError"} - raised) == []


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


def _imported(node) -> set[str]:
    """The top-level modules an absolute import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_package_starts_no_threads():
    # run_suites forks its workers, and a fork copies only the calling
    # thread: that is safe only while the package starts no threads
    threads = {"threading", "_thread", "concurrent"}
    assert _nodes(lambda node: _imported(node) & threads) == []


def test_only_verify_makes_processes_and_only_by_fork():
    # run_suites forks its pool, or runs the suites in process where the
    # platform has no fork; no module names another start method
    importers = _nodes(lambda node: "multiprocessing" in _imported(node))
    assert {entry.split(":")[0] for entry in importers} == {"verify.py"}
    methods = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "spawn" in path.read_text() or "forkserver" in path.read_text()
    ]
    assert methods == []


def _random_call(node) -> str | None:
    """The function a call takes from the random module by attribute, or None."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return None
    module = node.func.value
    return node.func.attr if isinstance(module, ast.Name) and module.id == "random" else None


def test_randomized_checks_take_an_explicit_seed():
    # every random.Random(...) is given its seed, and nothing draws from the
    # random module's shared generator, whose state no caller hands in
    unseeded = _nodes(
        lambda node: _random_call(node) == "Random" and not (node.args or node.keywords)
    )
    shared = _nodes(lambda node: _random_call(node) not in (None, "Random"))
    imported = _nodes(lambda node: isinstance(node, ast.ImportFrom) and node.module == "random")
    assert (unseeded, shared, imported) == ([], [], [])


def _is_unbounded_cache(node) -> bool:
    # lru_cache(maxsize=None), lru_cache(None) or functools.cache
    if _name(node) == "cache":
        return True
    if not isinstance(node, ast.Call) or _name(node.func) != "lru_cache":
        return False
    sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_unbounded_caches_are_the_known_ones():
    # an unbounded cache grows for the life of the process; homology's three
    # are read through cache_info() by the benchmark, as is its bounded
    # differential cache
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                _is_unbounded_cache(d) for d in node.decorator_list
            ):
                found.add(f"{path.stem}.{node.name}")
            # a cache applied by a call: name = lru_cache(maxsize=None)(function)
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _is_unbounded_cache(node.value.func)
            ):
                found.update(f"{path.stem}.{_name(t)}" for t in node.targets)
    assert found == {
        "homology._pool",
        "homology.chain_basis",
        "homology._bracket_pair",
    }


_MUTATORS = {"append", "update", "add", "pop", "clear", "setdefault"}


def _root(node) -> str | None:
    """The name an attribute or item chain such as ``a.b[c].d`` starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _module_state_written(path: Path) -> set[str]:
    """module.name for each module-level name of ``path`` that one of its
    functions rebinds (``global``) or mutates in place: a mutating method
    call, or an item or attribute assignment.  A name the function binds
    itself is its own local, not the module's."""
    tree = ast.parse(path.read_text(), str(path))
    module_names = {name for name, _ in _top_level_names(tree)} | {
        (alias.asname or alias.name).split(".")[0]
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        for alias in stmt.names
    }
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes = list(ast.walk(func))
        declared = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
        local = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)} | {
            node.id
            for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        written = set(declared)
        for node in nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATORS:
                    written.add(_root(node.func.value))
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    written.add(_root(target.value))
        found.update(
            f"{path.stem}.{name}"
            for name in written
            if name in module_names and (name in declared or name not in local)
        )
    return found


def test_module_state_is_the_known_one():
    # a package function rebinds or mutates no module-level name but the
    # seed default, which perfbench's verify workload sets through
    # verify.set_seed; ROADMAP item 14 empties this set once item 1 moves
    # the seed into run_suites' arguments there
    found = set().union(*map(_module_state_written, sorted(PACKAGE.glob("*.py"))))
    assert found == {"verify._DEFAULT_SEED"}


def test_import_loads_neither_the_parser_nor_the_cli():
    # a library import pays for neither fiblie.expr nor fiblie.cli
    code = (
        "import sys, fiblie; "
        "print([m for m in ('fiblie.expr', 'fiblie.cli') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    ).stdout
    assert out.strip() == "[]"


def test_text_is_parsed_in_expr_only():
    # fiblie.expr.eval_text is the package's one parser of element text
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("parse_")
    ]
    assert all(name.startswith("expr.py:") for name in found), found


def test_package_reads_no_monomials_alias():
    # an Element is its own set of monomials; Element.monomials, which
    # returns the element, stays as API for callers outside the package
    found = _nodes(lambda node: isinstance(node, ast.Attribute) and node.attr == "monomials")
    assert found == []


ROOT = Path(__file__).resolve().parents[1]

# second implementations kept as labelled oracles: only tests call them
ORACLES = {"gf2.rank_naive", "series.euler_product_1var"}


def _top_level_names(tree) -> list[tuple[str, object]]:
    """(name, defining statement) for each top-level function, class and
    constant; module dunders such as ``__all__`` are protocol, not API."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.extend((t.id, stmt) for t in targets if isinstance(t, ast.Name))
    return [(name, stmt) for name, stmt in out if not name.startswith("__")]


def _named(tree, skip=None) -> set[str]:
    """Identifiers, attributes, imported names and string constants (each
    dotted part) of the tree, outside the statement ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _source_trees() -> dict[Path, ast.Module]:
    """The parsed modules of the package, the scripts and the benchmark,
    without their tests."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
        if not path.name.startswith("test_")
    }


def test_package_holds_only_what_runs():
    # every top-level name of the package is named outside its own
    # definition by the package, the scripts or the benchmark; a name only
    # tests reach is dead code unless it is a labelled oracle
    trees = _source_trees()
    named = {path: _named(tree) for path, tree in trees.items()}
    unnamed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(n for p, n in named.items() if p != path))
        for name, stmt in _top_level_names(trees[path]):
            if name not in elsewhere and name not in _named(trees[path], skip=stmt):
                unnamed.add(f"{path.stem}.{name}")
    assert unnamed == ORACLES


def _members(cls: ast.ClassDef) -> list[tuple[str, object]]:
    """(name, defining statement) for each method and annotated field of the
    class; dunders such as ``__len__`` are protocol, not API."""
    out = []
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            out.append((stmt.target.id, stmt))
    return [(name, stmt) for name, stmt in out if not name.startswith("__")]


def _read(tree, skip=None) -> set[str]:
    """Attributes read (``x.name``) and string constants (each dotted part)
    of the tree, outside the statement ``skip``."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_class_members_are_read():
    # every method and annotated field of a top-level class of the package
    # is read as an attribute, or named in a string, outside its own
    # definition by the package, the scripts or the benchmark; a member that
    # is only set, or only tests read, is dead.  The classes fiblie exports
    # are public API, so their members stay.
    trees = _source_trees()
    read = {path: _read(tree) for path, tree in trees.items()}
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        elsewhere = set().union(*(r for p, r in read.items() if p != path))
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name in fiblie.__all__:
                continue
            for name, stmt in _members(cls):
                if name not in elsewhere and name not in _read(trees[path], skip=stmt):
                    unread.add(f"{path.stem}.{cls.name}.{name}")
    assert unread == set()
