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
import math
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(Exception):
    """Raised for invalid simulator usage (e.g. negative delays)."""


class Timeout:
    """Suspend the yielding process for ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not 0 <= delay < math.inf:  # a NaN fails both bounds
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay!r}")
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

    __slots__ = ("send", "name", "finished")

    def __init__(self, generator: Generator, name: str = ""):
        #: resumes the generator with its last command's result
        self.send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} ({state})>"


class Engine:
    """The event loop: a priority queue of ``(time, sequence, process,
    value)``, a process to resume with ``value`` or, with ``process``
    None, a :meth:`schedule` callback.  :meth:`run` resumes a process
    inline and carries out the command it yields; a store queues a
    process once its put or get completes.

    ``observer`` is a nullable instrumentation hook read by the stores:
    when set to an object with the two store methods of
    :class:`repro.obs.trace.TracingObserver` (``store_depth`` after each
    put and get, ``store_blocked`` for each wait), every store on this
    engine reports to it.  It defaults to ``None``, and the engine never
    imports the observer type.
    """

    __slots__ = ("_now", "_queue", "_sequence", "observer")

    def __init__(self):
        self._now = 0.0
        self._queue: List[Tuple[float, int, Optional[Process], Any]] = []
        self._sequence = itertools.count()
        self.observer: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def add_process(self, generator: Generator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(generator, name=name)
        heapq.heappush(self._queue, (self._now, next(self._sequence), process, None))
        return process

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback()`` after ``delay`` time units."""
        if not 0 <= delay < math.inf:  # a NaN fails both bounds
            raise SimulationError(f"schedule delay must be finite and >= 0, got {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), None, callback))

    def run(self) -> float:
        """Run until the queue drains; returns the final simulation time."""
        queue = self._queue
        heappop, heappush = heapq.heappop, heapq.heappush
        sequence = self._sequence
        while queue:
            now, __, process, value = heappop(queue)
            self._now = now
            if process is None:
                value()
                continue
            try:
                command = process.send(value)
            except StopIteration:
                process.finished = True
                continue
            kind = type(command)
            if kind is Timeout:
                heappush(queue, (now + command.delay, next(sequence), process, None))
            elif kind is Get:
                command.store._get(process)
            elif kind is Put:
                command.store._put(process, command.item)
            else:
                raise SimulationError(f"process {process.name} yielded unsupported value: {command!r}")
        return self._now
