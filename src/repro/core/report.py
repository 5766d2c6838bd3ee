"""What a runtime reports about one packet, and the report's shape.

Both runtimes return a :class:`ProcessReport` per packet: the path it
took and its cycle meters, which a platform prices (``repro.platform``)
and telemetry lays out (``repro.obs``).  :func:`shape_of` is everything
a report shows but its FID, interned: two reports of one shape price to
the same floats on a platform and draw the same spans, so the platform's
stage plans and timings and the telemetry's templates are each built
once per shape.  This module imports nothing of the runtime, so every
layer that keys on a shape can import it.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.platform.costs import CycleMeter


class PathTaken(enum.Enum):
    ORIGINAL = "original"            # initial packet, recorded + consolidated
    ORIGINAL_HANDSHAKE = "handshake"  # pre-establishment, not recorded
    FAST = "fast"                    # Global MAT fast path


_FAST = PathTaken.FAST


@dataclass(slots=True)
class ProcessReport:
    """Everything a platform needs to time one packet."""

    path: PathTaken
    fid: int
    dropped: bool = False
    closing: bool = False
    events_fired: int = 0
    #: classifier + MAT machinery + consolidated-action application
    fixed_meter: CycleMeter = field(default_factory=CycleMeter)
    #: slow path: chain-ordered (nf_name, meter) for NFs that ran
    nf_meters: List[Tuple[str, CycleMeter]] = field(default_factory=list)
    #: fast path: per wave, per batch (nf_name, meter)
    sf_waves: List[List[Tuple[str, CycleMeter]]] = field(default_factory=list)
    #: True for a report a :class:`CompiledFlow` shares among its
    #: packets: the flow's singleton (no SF waves, no active event), or
    #: the one of a signature the flow produced before (see
    #: :mod:`repro.core.fastpath`).  Consumers may key caches on the
    #: report's identity when this is set — the object outlives the run.
    steady: bool = field(default=False, repr=False, compare=False)
    #: ``(platform, stage_plan, plan_id, table)`` memo for steady
    #: (shared) reports: the run whose plan table is ``table`` finds the
    #: report's plan and its index in one probe.  Keeping the memo *on
    #: the report* (instead of an ``id()``-keyed side table) means a
    #: report garbage-collected after a flow eviction can never leave a
    #: stale entry behind for a recycled id.  A later run trusts only the
    #: plan, and only the batch lane reads it then (the loaded pass takes
    #: its shape's).  Owned by ``repro.platform``.
    plan_cache: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: the report's shape (:func:`shape_of`), computed the first time a
    #: platform prices it or a span recorder or tracer sees it.  It
    #: leaves the FID out, so a bulk-admitted flow's report starts with
    #: its template's (``CompiledFlow.clone_for``).
    shape: Optional["Shape"] = field(default=None, repr=False, compare=False)

    @property
    def is_fast(self) -> bool:
        return self.path is _FAST


class Shape:
    """A report's shape, interned: one object per distinct :func:`shape_of`
    key while anything holds it, so a cache probes by identity instead of
    hashing the key's nested tuples again on every packet.  The table
    decides which object stands for a key, never a result."""

    __slots__ = ("key", "__weakref__")

    def __init__(self, key: tuple):
        self.key = key


_SHAPES: "weakref.WeakValueDictionary[tuple, Shape]" = weakref.WeakValueDictionary()


def _meter_key(name: str, meter: CycleMeter) -> tuple:
    return name, tuple(meter.counts.items()), meter.direct_cycles


def shape_of(report: ProcessReport) -> Shape:
    """Everything a report shows but its FID: the path, the drop flag,
    the events fired, and each fixed, NF and SF meter's name, counts and
    direct cycles.  Counts go in charge order, the order a meter sums its
    cycles in, so reports of one shape sum to equal floats.  Computed
    once per report (``report.shape``): a report's fields are final once
    the runtime hands it out."""
    shape = report.shape
    if shape is None:
        fixed = report.fixed_meter
        key = (report.path, report.dropped, report.events_fired,
               tuple(fixed.counts.items()), fixed.direct_cycles,
               tuple([_meter_key(name, meter) for name, meter in report.nf_meters]),
               tuple([tuple([_meter_key(name, meter) for name, meter in wave])
                      for wave in report.sf_waves]))
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = Shape(key)
        report.shape = shape
    return shape
