"""Table II accounting: lines of code added to integrate NFs.

The paper reports how many lines each NF needed to participate in
SpeedyBox (Snort: +27, Maglev: +23, ...).  Our NFs carry the same split:
their processing logic is ordinary NF code, and the integration consists
solely of calls into the instrumentation API (``api.add_header_action``,
``api.add_state_function``, ``api.register_event``, ``api.nf_extract_fid``).

This module measures that split honestly from the AST: *integration LOC*
is the number of source lines spanned by statements whose call graph
touches the ``api`` parameter, and *core LOC* is every other code line
(excluding blanks, comments and docstrings).
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass
from typing import List, Set, Tuple

_API_CALL_NAMES = {
    "add_header_action",
    "add_state_function",
    "register_event",
    "nf_extract_fid",
    "localmat_add_HA",
    "localmat_add_SF",
}


@dataclass
class InstrumentationReport:
    """LOC split of one NF source module."""

    name: str
    core_loc: int
    added_loc: int

    @property
    def overhead_percent(self) -> float:
        if self.core_loc == 0:
            return 0.0
        return 100.0 * self.added_loc / self.core_loc

    def as_row(self) -> Tuple[str, int, str]:
        return (self.name, self.core_loc, f"{self.added_loc} (+{self.overhead_percent:.1f}%)")


class _ApiCallCollector(ast.NodeVisitor):
    """Collect the line numbers of statements that call the api parameter."""

    def __init__(self):
        self.api_lines: Set[int] = set()

    @staticmethod
    def _is_api_call(node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in _API_CALL_NAMES:
            return False
        target = func.value
        return isinstance(target, ast.Name) and target.id == "api"

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_api_call(node):
            end = getattr(node, "end_lineno", node.lineno)
            self.api_lines.update(range(node.lineno, end + 1))
        self.generic_visit(node)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    end = getattr(body[0], "end_lineno", body[0].lineno)
                    lines.update(range(body[0].lineno, end + 1))
    return lines


def count_instrumentation(source: str, name: str = "") -> InstrumentationReport:
    """Split ``source`` into core vs instrumentation LOC."""
    tree = ast.parse(source)
    collector = _ApiCallCollector()
    collector.visit(tree)
    doc_lines = _docstring_lines(tree)

    code_lines: Set[int] = set()
    for number, text in enumerate(source.splitlines(), start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if number in doc_lines:
            continue
        code_lines.add(number)

    added = len(code_lines & collector.api_lines)
    core = len(code_lines) - added
    return InstrumentationReport(name=name, core_loc=core, added_loc=added)


def count_instrumentation_of(obj, name: str = "") -> InstrumentationReport:
    """LOC split of the module defining ``obj`` (class or function)."""
    module = inspect.getmodule(obj)
    if module is None:
        raise ValueError(f"cannot locate module for {obj!r}")
    source = inspect.getsource(module)
    return count_instrumentation(source, name=name or obj.__name__)


def combine(name: str, reports: List[InstrumentationReport]) -> InstrumentationReport:
    """Aggregate the LOC split of an NF spread over several modules."""
    return InstrumentationReport(
        name=name,
        core_loc=sum(report.core_loc for report in reports),
        added_loc=sum(report.added_loc for report in reports),
    )


def integration_table() -> List[InstrumentationReport]:
    """The Table II rows for this repo's five paper NFs.

    Snort's core functionality spans three modules (rule parser,
    detection engine, NF wrapper); its instrumentation lives only
    in the wrapper — exactly the paper's structure, where 27 lines were
    added to the 1129-line Snort core.
    """
    from repro.nf.ipfilter import IPFilter
    from repro.nf.maglev import MaglevLoadBalancer
    from repro.nf.mazunat import MazuNAT
    from repro.nf.monitor import Monitor
    from repro.nf.snort import engine, nf as snort_nf, rules

    snort_parts = [
        count_instrumentation(inspect.getsource(module), name=module.__name__)
        for module in (rules, engine, snort_nf)
    ]
    subjects = [
        ("Maglev", MaglevLoadBalancer),
        ("IPFilter", IPFilter),
        ("Monitor", Monitor),
        ("MazuNAT", MazuNAT),
    ]
    table = [combine("Snort", snort_parts)]
    table.extend(count_instrumentation_of(cls, name) for name, cls in subjects)
    return table
