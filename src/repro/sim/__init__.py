"""Discrete-event simulation engine.

This subpackage is a small, self-contained discrete-event simulator in the
style of SimPy: *processes* are Python generators that yield scheduling
primitives (:class:`Timeout`, :class:`Get`, :class:`Put`) to an
:class:`Engine` that advances a virtual clock, and hand items to each
other through bounded :class:`Store` queues.  It replays a loaded run
when a registry or a tracer watches it (``repro.platform``), and it is
the reference the closed-form replays are checked against.

The engine is deterministic: given the same processes and the same
scheduling order, every run produces identical timestamps.  Ties in event
time are broken by insertion order.
"""

from repro.sim.analytic import analytic_replay, plans_are_analytic
from repro.sim.engine import Engine, Get, Process, Put, SimulationError, Timeout
from repro.sim.resources import Store

__all__ = [
    "Engine",
    "Get",
    "Process",
    "Put",
    "SimulationError",
    "Store",
    "Timeout",
    "analytic_replay",
    "plans_are_analytic",
]
