"""The sim engine's observer.

:class:`repro.sim.engine.Engine` carries a nullable ``observer``
attribute; when set, the engine's stores call it at three points — put,
get, blocked.  The engine stays dependency-free (it never imports this
module).  The run's blocked counts live on the stores themselves and
reach the registry through ``Platform._publish_load_metrics``; this
observer is for the tracer alone.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import PacketTracer


class TracingObserver:
    """Streams store occupancy and blocking into a packet tracer.

    Emits one counter sample per put/get (the occupancy *after* the
    operation) on track ``<prefix>ring:<store name>`` and an instant
    marker for each blocked put/get — in Perfetto the rings render as
    stacked area charts with block events pinned on top.  ``prefix``
    keeps one run's tracks apart from another's on a shared tracer.
    """

    def __init__(self, tracer: PacketTracer, prefix: str):
        self.tracer = tracer
        self.prefix = prefix

    def store_put(self, store: Any) -> None:
        """One occupancy sample, after a put or a get."""
        track = f"{self.prefix}ring:{store.name}"
        self.tracer.counter("occupancy", track, store.engine.now, len(store))

    store_get = store_put

    def store_blocked(self, store: Any, process: Any, kind: str) -> None:
        track = f"{self.prefix}ring:{store.name}"
        self.tracer.instant(f"blocked_{kind}", track, store.engine.now, process=process.name)
