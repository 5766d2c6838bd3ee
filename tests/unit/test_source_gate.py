"""The part of the lint gate a box without ruff can check, the
reachability gate and the knob gate.

``pyproject.toml`` selects ruff's error tier only (E9, F63, F7, F82);
ruff itself is a CI dependency, not a test one.  What that tier guards
first — every file parses and compiles, every exported name exists — is
checked here so tier-1 says it too.  The reachability gate checks that
every module is imported by something a user or a measurement runs,
and that every exported name is used by something other than a test.
Its method-level check asks the same of every public function, class
and method.  The knob gate checks that every setting something calls
takes more than one value there.
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


#: Everything we ship or document (``bench/`` is not ours to edit; its own
#: ``run.py --trace-out`` is a different flag).
SHIPPED = ("src", "docs", "README.md", "DESIGN.md", "examples", "benchmarks", ".github",
           ".claude")


@pytest.mark.parametrize(
    "gone, reason, trees",
    [
        pytest.param(
            r"--(metrics-json|metrics-prom|trace-out|span-out|audit-out|timeseries-out"
            r"|forensics-out|profile-out)\b|CycleAttribution",
            "one run leaves one record (--obs-out DIR): the eight per-artifact "
            "flags it replaced, and the recorder nobody called, are gone",
            SHIPPED,
            id="artifact-flags",
        ),
        pytest.param(
            r"Autoscal|autoscale_decision|ClusterSignals|SignalSample|placement_listener"
            r"|notify_placement|busy_ns|stats\.comparison",
            "no command, workload, benchmark or example reached the autoscaler, "
            "its signals, the placement-listener bus or stats.comparison",
            SHIPPED,
            id="autoscaler",
        ),
        pytest.param(
            r"enable_consolidation|_apply_raw|raw_actions|explain_consolidation|run_load_batch"
            r"|select_flows|audit_commit|txn_commit|txn_store|set_weights|record_all",
            "a setting nothing set is a constant: the raw-action ablation, the "
            "cluster's columnar route, commit auditing, the health model's "
            "transaction rule, the weighted sharder and the forensics record-all "
            "mode are gone",
            SHIPPED,
            id="one-value-knobs",
        ),
        pytest.param(
            r"__deepcopy__|_identity_memo|wire_directions|observed_tuples",
            "a flow record copies itself (FlowRecord.copy) and one flow_walk finds "
            "every direction with its observed tuples: the deepcopy hooks, their "
            "memo and the two separate chain walks are gone",
            SHIPPED,
            id="deepcopy-protocol",
        ),
        pytest.param(
            r"_PlanInfoColumn|seen_plans|run\.lane|id\(plan",
            "every route hands its replay one plan table (PlanTable): the per-packet "
            "label column, the id(plan)-keyed tables and the lane's side slot are gone",
            ("src/repro",),
            id="plan-table",
        ),
        pytest.param(
            r"repro\.obs\.benchdiff",
            "the BENCH_*.json differ lives beside its one caller, "
            "benchmarks/check_bench_diff.py (benchmarks.benchdiff); `repro obs diff` is gone",
            ("src/repro",),
            id="benchdiff",
        ),
        pytest.param(
            r"rebind|graveyard|handlers_rebound|__func__",
            "a record names its handlers and the importing runtime resolves them; "
            "recovery reads nothing from the dead replica",
            ("src/repro",),
            id="named-handlers",
        ),
        pytest.param(
            r"physical_cores|physical-cores|core_pool|\bResource\b|Interrupt|delay_hop"
            r"|CountingObserver|FanoutObserver|EngineObserver|sim_process_resumes_total",
            "each replica replays on its own cores and every plan hop is a real stage: "
            "the shared core pool, the delay hops, the engine counters and the "
            "primitives only their own tests reached are gone",
            ("src", "docs", "DESIGN.md"),
            id="des-extras",
        ),
        pytest.param(
            r"_apply_nondrop|ConsolidatedAction\.apply\b",
            "a Global MAT hit runs the rule's one program on both routes; the "
            "step-by-step interpreter and action walk live beside the tests",
            ("src/repro",),
            id="one-rule-body",
        ),
    ],
)
def test_no_trace_of_deleted_names(gone, reason, trees):
    """Nothing in ``trees`` may name what was deleted; ``docs/measurements/``
    is a log of commands as they were run."""
    gone = re.compile(gone)
    paths = [
        path
        for tree in trees
        for path in ([ROOT / tree] if (ROOT / tree).is_file() else sorted((ROOT / tree).rglob("*")))
        if path.is_file()
        and path.suffix in (".py", ".md", ".yml", ".yaml", ".toml", ".txt", ".json")
        and "measurements" not in path.parts
    ]
    assert len(paths) > 50
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if gone.search(line)
    ]
    assert not hits, f"{reason}: {hits}"


def test_the_interpreted_route_runs_the_rule_program():
    """A Global MAT hit has one body, ``RuleProgram.run``: the interpreted
    route (``SpeedyBox._run_fast``) loops over nothing itself, and the
    step-by-step interpreter lives in the tests."""
    framework = _parse(ROOT / "src" / "repro" / "core" / "framework.py")
    (run_fast,) = [
        node for node in ast.walk(framework)
        if isinstance(node, ast.FunctionDef) and node.name == "_run_fast"
    ]
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(run_fast))
    assert "program_of" in {getattr(node, "attr", None) for node in ast.walk(run_fast)}


def test_nothing_in_the_package_deep_copies():
    """Snapshots copy through ``FlowRecord.copy``; the docs may still
    tell how ``copy.deepcopy`` used to do it, the package may not."""
    hits = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "deepcopy" in line
    ]
    assert not hits, hits


# -- reachability ---------------------------------------------------------------

SRC = ROOT / "src"

#: Where a user or a measurement enters the package: the CLI and every
#: script under ``bench/``, ``benchmarks/`` and ``examples/``.  Tests do
#: not count.
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_TREES = ("bench", "benchmarks", "examples")

#: Modules or exports the gate would flag, kept on purpose: dotted name -> why.
REACH_ALLOWLIST = {}


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


# -- definitions ----------------------------------------------------------------

#: Where a use counts: everything a user or a measurement runs.  Tests do not.
USE_TREES = ("src", "bench", "benchmarks", "examples")

#: Public functions, classes and methods the gate would flag, kept on
#: purpose: dotted name -> why.
DEF_ALLOWLIST = {
    "repro.obs.trace.PacketTracer.begin":
        "the nested half of the tracer's span API (begin/end): no recorder nests spans "
        "today, and deleting it takes the tracer's nesting tests with it (ROADMAP item 5)",
}


def _is_exempt(name):
    """Private names, dunders, and ``ast.NodeVisitor``'s ``visit_*``
    dispatch (the visitor calls them by a name it builds)."""
    return name.startswith("_") or name.startswith("visit_")


@functools.lru_cache(maxsize=None)
def _definitions():
    """``{name: [dotted name]}`` for every public top-level function and
    class under ``src/repro`` and every public method (or nested class)
    of a top-level class."""
    trees, __, ___ = _source()
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {}
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, kinds):
                continue
            found.setdefault(node.name, []).append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds):
                        found.setdefault(item.name, []).append(f"{module}.{node.name}.{item.name}")
    return {name: where for name, where in found.items() if not _is_exempt(name)}


def _uses(tree, is_package):
    """Every name ``tree``'s code uses: an identifier, an attribute, an
    imported name or a string constant (a handler a record resolves with
    ``getattr`` is named by a string).  A use inside a definition of the
    same name is the definition's own; ``__all__`` and a package's
    re-exports (its imports, its ``_LAZY`` map) are not uses."""
    used = set()
    todo = [(tree, frozenset())]
    while todo:
        node, inside = todo.pop()
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) in ("__all__", "_LAZY") for target in node.targets
        ):
            continue
        if isinstance(node, ast.ImportFrom):
            if not is_package:
                used.update(alias.name for alias in node.names if alias.name not in inside)
            continue
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in inside:
            used.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        todo.extend((child, inside) for child in ast.iter_child_nodes(node))
    return used


@functools.lru_cache(maxsize=None)
def _unused_definitions():
    """Every public definition under ``src/repro`` whose name no code in
    ``USE_TREES`` uses, as dotted names.  By name: a use of ``run``
    anywhere keeps every ``run``."""
    used = set()
    for tree_name in USE_TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            used |= _uses(_parse(path), path.name == "__init__.py")
    return sorted(
        dotted
        for name, where in _definitions().items()
        if name not in used
        for dotted in where
    )


def test_every_definition_is_used_outside_the_tests():
    """A public function, class or method under ``src/repro`` that only
    tests use is test code: move it beside the tests that use it (a
    reference they compare against moves; it is not deleted), or delete
    it with its tests."""
    flagged = [name for name in _unused_definitions() if name not in DEF_ALLOWLIST]
    assert not flagged, f"move them beside their tests, delete them, or allowlist them: {flagged}"


def test_the_definition_allowlist_is_short_and_current():
    assert len(DEF_ALLOWLIST) <= 5
    assert all(reason.strip() for reason in DEF_ALLOWLIST.values())
    stale = sorted(set(DEF_ALLOWLIST) - set(_unused_definitions()))
    assert not stale, f"allowlisted but used: {stale}"


# -- knobs ----------------------------------------------------------------------

#: The NF and packet vocabulary and the generic primitives: their defaults
#: are part of a reusable API, not settings of this system.
KNOB_EXEMPT = ("repro.nf", "repro.net", "repro.sim", "repro.stats", "repro.obs.registry")

#: Functions whose one-value parameters are kept on purpose: dotted name -> why.
KNOB_ALLOWLIST = {
    "repro.cli.main":
        "argv=None reads sys.argv; the tests pass argument lists, the console script none",
    "repro.core.verification.verify_equivalence":
        "the equivalence oracle; its knobs are what the tests sweep it over",
    "repro.ft.verify.verify_equivalence_failover":
        "the failover oracle; its knobs are what the tests sweep it over",
    "repro.traffic.columnar.uniform_batch":
        "the synthetic batch builder; the tests shape it per case",
}

#: A value no literal comparison can pin down: a name, a call, a splat.
MANY = object()


def _literal(node):
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return MANY
    return (type(value).__name__, repr(value))


def _parameters(func):
    """``func``'s positional parameter names after ``self``/``cls``, and
    ``{name: default value}`` for every defaulted parameter."""
    args = func.args
    positional = [arg.arg for arg in args.posonlyargs + args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    if positional and positional[0] in ("self", "cls") and not static:
        positional = positional[1:]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults.update(
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    # A default is one value even when it is a name (``NULL_REGISTRY``).
    return positional, {
        name: value if (value := _literal(node)) is not MANY else ("expr", ast.unparse(node))
        for name, node in defaults.items()
    }


@functools.lru_cache(maxsize=None)
def _knob_index():
    """Every public in-scope function by call name: ``{name: [(qualname,
    positional, defaults)]}``, with ``__init__`` filed under its class's
    name and under every public subclass that inherits it."""
    trees, packages, __ = _source()
    defs, bases = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.setdefault(node.name, []).append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                bases[node.name] = [getattr(base, "id", None) for base in node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        call_name = node.name if item.name == "__init__" else item.name
                        defs.setdefault(call_name, []).append(
                            (f"{module}.{node.name}.{item.name}", item)
                        )
    # A class without its own __init__ is constructed through its base's.
    for name in bases:
        base = name
        while base in bases and base not in defs:
            base = next(iter(bases[base]), None)
        if base != name and base in defs:
            defs.setdefault(name, []).extend(
                entry for entry in defs[base] if entry[0].endswith(".__init__")
            )
    return (
        {
            name: [(qualname, *_parameters(func)) for qualname, func in entries]
            for name, entries in defs.items()
        },
        bases,
    )


def _call_name(node, enclosing_class, bases):
    func = node.func
    if isinstance(func, ast.Name):
        return enclosing_class if func.id == "cls" else func.id
    if isinstance(func, ast.Attribute):
        if (
            func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
        ):
            return next(iter(bases.get(enclosing_class, [])), None)
        return func.attr
    return None


def _dict_keys(trees):
    """Every key some dict display or ``dict(...)`` call spells out: what a
    ``**`` splat can carry."""
    keys = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys if isinstance(k, ast.Constant))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
                keys.update(keyword.arg for keyword in node.keywords if keyword.arg)
    return keys


def _forwarders(trees):
    """``{function name: callee names}`` for every function that passes its
    own ``**kwargs`` on."""
    forwards = {}
    for tree in trees:
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.args.kwarg is not None:
                splat = func.args.kwarg.arg
                for call in ast.walk(func):
                    if isinstance(call, ast.Call) and any(
                        keyword.arg is None and getattr(keyword.value, "id", None) == splat
                        for keyword in call.keywords
                    ):
                        callee = call.func
                        forwards.setdefault(func.name, set()).add(
                            getattr(callee, "attr", None) or getattr(callee, "id", None)
                        )
    return forwards


def _walk_with_scope(tree):
    """Every node of ``tree`` with the name of the class it sits in and
    the names its enclosing function binds (parameters, assignments)."""
    todo = [(tree, None, frozenset())]
    while todo:
        node, owner, bound = todo.pop()
        yield node, owner, bound
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            bound = frozenset(
                [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
                + [name.id for name in ast.walk(node)
                   if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
            )
        todo.extend((child, owner, bound) for child in ast.iter_child_nodes(node))


@functools.lru_cache(maxsize=None)
def _knob_uses():
    """``{(qualname, parameter): values}`` over every call in ``src/repro``
    and the entry trees, and the set of ``(qualname, parameter)`` a
    ``bench/`` call passes (``bench/`` is not ours to edit)."""
    trees, __, ___ = _source()
    index, bases = _knob_index()
    roots = [
        (tree, tree_name == "bench")
        for tree_name in ENTRY_TREES
        for tree in (_parse(path) for path in sorted((ROOT / tree_name).rglob("*.py")))
    ] + [(tree, False) for tree in trees.values()]
    splattable = _dict_keys(tree for tree, __ in roots)
    forwards = _forwarders(tree for tree, __ in roots)
    uses, from_bench = {}, set()

    def record(name, args, keywords, in_bench):
        for qualname, positional, defaults in index.get(name, ()):
            given = {}
            for position, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    given.update((p, MANY) for p in positional[position:])
                    break
                if position < len(positional):
                    given[positional[position]] = _literal(arg)
            for keyword in keywords:
                if keyword.arg is not None:
                    given[keyword.arg] = _literal(keyword.value)
                else:
                    given.update((p, MANY) for p in defaults if p in splattable)
            for parameter, default in defaults.items():
                uses.setdefault((qualname, parameter), set()).add(given.get(parameter, default))
                if in_bench and parameter in given:
                    from_bench.add((qualname, parameter))

    top_level = set(bases) | {
        node.name for tree in trees.values() for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for tree, in_bench in roots:
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        handed = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and id(node) not in callees and node.id in index and node.id in top_level
        }
        for node, owner, bound in _walk_with_scope(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node, owner, bases)
            record(name, node.args, node.keywords, in_bench)
            named = [keyword for keyword in node.keywords if keyword.arg is not None]
            for callee in forwards.get(name, ()):
                record(callee, [], named, in_bench)
            if name not in index and name in bound:
                # A callee picked at run time (``platform_cls(...)``) may be
                # any function or class the module hands around as a value.
                for callee in handed:
                    record(callee, [], named, in_bench)
    return uses, from_bench


def _in_scope_knobs():
    index, __ = _knob_index()
    return {
        (qualname, parameter)
        for entries in index.values()
        for qualname, __, defaults in entries
        for parameter in defaults
        if not qualname.startswith(KNOB_EXEMPT)
    }


def _one_value_knobs():
    """``(qualname, parameter)`` for every in-scope defaulted parameter
    whose calls all leave it at one value.  A function no root calls has
    no value in use at all; whether it should exist is a question about
    its callers (the reachability gate's), not its settings."""
    uses, from_bench = _knob_uses()
    return sorted(
        knob
        for knob in _in_scope_knobs()
        if knob not in from_bench and len(uses.get(knob, ())) == 1 and MANY not in uses[knob]
    )


def test_every_setting_takes_more_than_one_value():
    """A defaulted parameter every caller leaves alone, or sets to the one
    same literal, is a constant with a name: fold its value in and delete
    its other arm.  Callers are ``src/repro`` code and the entry trees;
    tests do not count."""
    flagged = [
        f"{qualname}({parameter})"
        for qualname, parameter in _one_value_knobs()
        if qualname not in KNOB_ALLOWLIST
    ]
    assert not flagged, f"delete them or allowlist their function with a reason: {flagged}"


def test_the_knob_allowlist_is_short_and_current():
    assert len(KNOB_ALLOWLIST) <= 5
    assert all(reason.strip() for reason in KNOB_ALLOWLIST.values())
    owners = {qualname for qualname, __ in _one_value_knobs()}
    stale = sorted(set(KNOB_ALLOWLIST) - owners)
    assert not stale, f"allowlisted but every setting takes two values: {stale}"
