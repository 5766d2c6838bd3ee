"""The part of the lint gate a box without ruff can check.

``pyproject.toml`` selects ruff's error tier only (E9, F63, F7, F82);
ruff itself is a CI dependency, not a test one.  What that tier guards
first — every file parses and compiles, every exported name exists — is
checked here so tier-1 says it too.
"""

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


def test_no_trace_of_the_artifact_flags():
    """One run leaves one record (``--obs-out DIR``): nothing we ship or
    document may name the eight per-artifact flags it replaced, or the
    recorder nobody called.  ``bench/`` is not ours to edit (its own
    ``run.py --trace-out`` is a different flag) and
    ``docs/measurements/`` is a log of commands as they were run."""
    gone = re.compile(
        r"--(metrics-json|metrics-prom|trace-out|span-out|audit-out|timeseries-out"
        r"|forensics-out|profile-out)\b|CycleAttribution"
    )
    trees = ["src", "docs", "README.md", "examples", "benchmarks", ".github", ".claude"]
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
    assert not hits, hits
