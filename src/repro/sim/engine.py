"""Core of the discrete-event simulation engine.

Processes are plain Python generators.  A process yields *commands* —
:class:`Timeout`, :class:`Get` or :class:`Put` — and the engine resumes
it when the command completes, sending the command's result back into
the generator.  Example::

    def producer(engine, store):
        for i in range(3):
            yield Timeout(1.0)
            yield Put(store, i)

    engine = Engine()
    store = Store(engine)
    engine.add_process(producer(engine, store))
    engine.run()

Time is a float in arbitrary units; the platform models use nanoseconds.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for invalid simulator usage (e.g. negative delays)."""


class Timeout:
    """Suspend the yielding process for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Put:
    """Put ``item`` into ``store``; blocks while the store is full."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        self.store = store
        self.item = item

    def __repr__(self) -> str:
        return f"Put({self.store!r}, {self.item!r})"


class Get:
    """Take the oldest item from ``store``; blocks while it is empty."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        self.store = store

    def __repr__(self) -> str:
        return f"Get({self.store!r})"


class Process:
    """A running generator inside the engine; ``finished`` flips to True
    when the generator returns."""

    __slots__ = ("generator", "name", "finished")

    def __init__(self, generator: Generator, name: str = ""):
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} ({state})>"


class Engine:
    """The event loop: a priority queue of (time, sequence, callback).

    ``observer`` is a nullable instrumentation hook read by the stores:
    when set to an object with the three store methods of
    :class:`repro.obs.trace.TracingObserver` (``store_put``,
    ``store_get``, ``store_blocked``), every store on this engine
    reports to it.  It defaults to ``None``, and the engine never
    imports the observer type.
    """

    __slots__ = ("_now", "_queue", "_sequence", "observer")

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.observer: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def add_process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(generator, name=name)
        self._schedule_resume(process, None)
        return process

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` time units."""
        if delay < 0:
            raise SimulationError(f"negative schedule delay: {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), callback))

    def run(self) -> float:
        """Run until the queue drains; returns the final simulation time."""
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            entry = heappop(queue)
            self._now = entry[0]
            entry[2]()
        return self._now

    # -- process machinery -------------------------------------------------

    def _schedule_resume(self, process: Process, value: Any, delay: float = 0.0) -> None:
        self.schedule(delay, lambda: self._resume(process, value))

    def _resume(self, process: Process, value: Any) -> None:
        try:
            command = process.generator.send(value)
        except StopIteration:
            process.finished = True
            return
        if isinstance(command, Timeout):
            self._schedule_resume(process, None, delay=command.delay)
        elif isinstance(command, Put):
            command.store._put(process, command.item)
        elif isinstance(command, Get):
            command.store._get(process)
        else:
            raise SimulationError(f"process {process.name} yielded unsupported value: {command!r}")
