"""Mini-Snort IDS (§VI-C).

A from-scratch reimplementation of the slice of Snort the paper
exercises: a rule-file parser for the classic rule syntax
(``alert tcp any any -> 10.0.0.0/24 80 (msg:...; content:...; sid:...)``),
``content`` options with ``nocase``, offset, depth, distance and within,
``pcre`` regex support, flowbits, and the three verdict branches (pass /
alert / log) that the paper's equivalence tests cover (§VII-C1).  Each
rule's contents are tested directly, at C speed (``engine``); real
Snort's Aho–Corasick prescan is the tests' reference, and the cost model
still charges its scan per payload byte.

Per Observation 1, Snort "assigns a rule matching function for each flow
as the initial packet arrives" and invokes the same function for
subsequent packets — :class:`SnortIDS` reproduces exactly that structure
and records the per-flow inspection function as its SpeedyBox state
function.
"""

from repro.nf.snort.engine import DetectionEngine, FlowMatcher, InspectionResult
from repro.nf.snort.nf import SnortIDS
from repro.nf.snort.rules import RuleAction, RuleParseError, SnortRule, parse_rule, parse_rules

__all__ = [
    "DetectionEngine",
    "FlowMatcher",
    "InspectionResult",
    "RuleAction",
    "RuleParseError",
    "SnortIDS",
    "SnortRule",
    "parse_rule",
    "parse_rules",
]
