"""The part of the lint gate a box without ruff can check, and the
reachability gate.

``pyproject.toml`` selects ruff's error tier only (E9, F63, F7, F82);
ruff itself is a CI dependency, not a test one.  What that tier guards
first — every file parses and compiles, every exported name exists — is
checked here so tier-1 says it too.  The reachability gate checks that
every module is imported by something a user or a measurement runs,
and that every exported name is used by something other than a test.
"""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "examples", "bench"])
def test_every_source_file_compiles(tree):
    paths = sorted((ROOT / tree).rglob("*.py"))
    assert paths
    for path in paths:
        # compile() alone: nothing is executed and no bytecode is written
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


def test_every_exported_name_resolves():
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    assert len(packages) > 10
    for package in packages:
        missing = [name for name in package.__all__ if not hasattr(package, name)]
        assert not missing, f"{package.__name__}.__all__ names {missing}"


def test_no_trace_of_the_collision_path():
    """Every live flow owns its FID (the classifier probes), so nothing
    in ``src/repro`` may name the old pinned-to-the-slow-path rule.  The
    acceptance grep, minus the two names ISSUE 23 keeps for the probe
    counter (``stats()["fid_collisions"]``,
    ``classifier_fid_collisions_total``)."""
    old_rule = re.compile(r"collided|fid_collision(?!s)|ORIGINAL_COLLISION")
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if old_rule.search(line)
    ]
    assert not hits, hits


@pytest.mark.parametrize(
    "gone, reason",
    [
        pytest.param(
            r"--(metrics-json|metrics-prom|trace-out|span-out|audit-out|timeseries-out"
            r"|forensics-out|profile-out)\b|CycleAttribution",
            "one run leaves one record (--obs-out DIR): the eight per-artifact "
            "flags it replaced, and the recorder nobody called, are gone",
            id="artifact-flags",
        ),
        pytest.param(
            r"Autoscal|autoscale_decision|ClusterSignals|SignalSample|placement_listener"
            r"|notify_placement|busy_ns|stats\.comparison",
            "no command, workload, benchmark or example reached the autoscaler, "
            "its signals, the placement-listener bus or stats.comparison",
            id="autoscaler",
        ),
    ],
)
def test_no_trace_of_deleted_names(gone, reason):
    """Nothing we ship or document may name what was deleted.  ``bench/``
    is not ours to edit (its own ``run.py --trace-out`` is a different
    flag) and ``docs/measurements/`` is a log of commands as they were
    run."""
    gone = re.compile(gone)
    trees = ["src", "docs", "README.md", "DESIGN.md", "examples", "benchmarks", ".github",
             ".claude"]
    paths = [
        path
        for tree in trees
        for path in ([ROOT / tree] if (ROOT / tree).is_file() else sorted((ROOT / tree).rglob("*")))
        if path.is_file()
        and path.suffix in (".py", ".md", ".yml", ".yaml", ".toml", ".txt", ".json")
        and "measurements" not in path.parts
    ]
    assert len(paths) > 100
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if gone.search(line)
    ]
    assert not hits, f"{reason}: {hits}"


# -- reachability ---------------------------------------------------------------

SRC = ROOT / "src"

#: Where a user or a measurement enters the package: the CLI and every
#: script under ``bench/``, ``benchmarks/`` and ``examples/``.  Tests do
#: not count.
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_TREES = ("bench", "benchmarks", "examples")

#: Modules or exports the gate would flag, kept on purpose: dotted name -> why.
REACH_ALLOWLIST = {
    "repro.core.verify_equivalence_migration":
        "the migration equivalence oracle; the migration tests are its callers by design",
    "repro.traffic.batch_from_specs":
        "the columnar twin of TrafficGenerator the batch-lane equivalence tests build input with",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


@functools.lru_cache(maxsize=None)
def _source():
    """Every ``src/repro`` module's AST by dotted name, which of them are
    packages, and the ASTs of the entry scripts."""
    trees, packages = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
            packages.add(".".join(parts))
        trees[".".join(parts)] = _parse(path)
    scripts = [_parse(path) for tree in ENTRY_TREES for path in sorted((ROOT / tree).rglob("*.py"))]
    return trees, frozenset(packages), scripts


def _assigned(tree, target):
    """The literal a module assigns to ``target`` at top level (or None)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(name, "id", None) == target for name in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _defining_module(module, name):
    """The module ``from module import name`` loads ``name`` from.

    Through a package, that is where the package's own ``from M import
    name`` line or its PEP 562 ``_LAZY`` map points, else its submodule
    ``name``; nested packages are followed the same way.  A package's
    other imports are not followed: importing one name does not make the
    rest of the package reachable.
    """
    trees, packages, __ = _source()
    while module in packages:
        init = trees[module]
        source = (_assigned(init, "_LAZY") or {}).get(name) or next(
            (
                node.module
                for node in init.body
                if isinstance(node, ast.ImportFrom)
                and any((alias.asname or alias.name) == name for alias in node.names)
            ),
            None,
        )
        if source is None:
            return f"{module}.{name}" if f"{module}.{name}" in trees else None
        module = source
    return module


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (_defining_module(node.module, alias.name) for alias in node.names)


def _reached_modules():
    """The ``src/repro`` modules an entry point imports, transitively."""
    trees, packages, scripts = _source()
    reached = set()
    todo = list(ENTRY_MODULES) + [module for tree in scripts for module in _imported_modules(tree)]
    while todo:
        module = todo.pop()
        if module in trees and module not in packages and module not in reached:
            reached.add(module)
            todo.extend(_imported_modules(trees[module]))
    return reached


def _used_names(tree):
    """Every identifier ``tree``'s code uses (docstrings do not count)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreached_modules():
    trees, packages, __ = _source()
    return sorted(set(trees) - packages - _reached_modules())


def _unused_exports():
    """Every ``package.name`` in a package's ``__all__`` that no entry
    script and no module's code uses.  A package's own re-export does
    not count; the defining module's own use does, since that name is
    live code that is merely exported more widely than it needs to be."""
    trees, packages, scripts = _source()
    modules = [tree for module, tree in trees.items() if module not in packages]
    users = [_used_names(tree) for tree in scripts + modules]
    return sorted(
        f"{package}.{name}"
        for package in packages
        for name in _assigned(trees[package], "__all__")
        if not any(name in used for used in users)
    )


def test_every_module_is_reached_from_a_command_or_a_measurement():
    """Every non-package module under ``src/repro`` is imported,
    transitively, by the CLI, a ``bench/`` workload, a ``benchmarks/``
    file or an ``examples/`` script.  A static walk: importing the roots
    would prove nothing, because every package ``__init__`` imports its
    whole package."""
    flagged = [module for module in _unreached_modules() if module not in REACH_ALLOWLIST]
    assert not flagged, f"delete them or allowlist them with a reason: {flagged}"


def test_every_export_is_used_outside_the_tests():
    flagged = [name for name in _unused_exports() if name not in REACH_ALLOWLIST]
    assert not flagged, f"delete them or allowlist them with a reason: {flagged}"


def test_the_reachability_allowlist_is_short_and_current():
    assert len(REACH_ALLOWLIST) <= 5
    assert all(reason.strip() for reason in REACH_ALLOWLIST.values())
    stale = set(REACH_ALLOWLIST) - set(_unreached_modules()) - set(_unused_exports())
    assert not stale, f"allowlisted but reached and used: {sorted(stale)}"
