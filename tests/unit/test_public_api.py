"""API-surface guard: everything exported exists, imports cleanly, and the
layering rules hold."""

import importlib
import pathlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.net",
    "repro.nf",
    "repro.nf.snort",
    "repro.platform",
    "repro.sim",
    "repro.stats",
    "repro.traffic",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert exported, f"{package} must declare __all__"
        for name in exported:
            assert hasattr(module, name) or getattr(module, name, None) is not None, (
                f"{package}.__all__ lists {name!r} but it does not resolve"
            )

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_sorted(self, package):
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert exported == sorted(exported), f"{package}.__all__ not sorted"

    def test_version_string(self):
        """One version source: pyproject reads ``repro.__version__``."""
        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
        root = pathlib.Path(__file__).resolve().parents[2]
        pyproject = (root / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
        # A literal, so the build reads it without importing the package.
        init = (root / "src" / "repro" / "__init__.py").read_text()
        assert f'__version__ = "{repro.__version__}"' in init

    def test_top_level_convenience_imports(self):
        from repro import BessPlatform, CostModel, OpenNetVMPlatform, ServiceChain, SpeedyBox

        assert all((BessPlatform, CostModel, OpenNetVMPlatform, ServiceChain, SpeedyBox))


class TestLayering:
    """The dependency discipline DESIGN.md implies."""

    def test_net_is_a_leaf_of_core(self):
        import repro.net.packet as packet_module

        source = open(packet_module.__file__).read()
        assert "repro.core" not in source
        assert "repro.platform" not in source
        assert "repro.nf" not in source

    def test_sim_depends_on_nothing_else(self):
        import repro.sim.engine, repro.sim.resources

        for module in (repro.sim.engine, repro.sim.resources):
            source = open(module.__file__).read()
            for forbidden in ("repro.net", "repro.core", "repro.nf", "repro.platform"):
                assert forbidden not in source, f"{module.__name__} imports {forbidden}"

    def test_costs_is_a_leaf(self):
        import repro.platform.costs as costs_module

        source = open(costs_module.__file__).read()
        for forbidden in ("repro.core", "repro.nf", "repro.sim", "repro.net"):
            assert forbidden not in source

    def test_every_paper_nf_exported(self):
        import repro.nf as nf

        for name in ("SnortIDS", "MaglevLoadBalancer", "IPFilter", "Monitor", "MazuNAT"):
            assert name in nf.__all__


class TestDocstringCoverage:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_classes_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__, f"{package} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name, None)
            if isinstance(obj, type):
                assert obj.__doc__, f"{package}.{name} lacks a docstring"
