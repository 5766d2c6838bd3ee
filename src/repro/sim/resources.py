"""The one shared resource of the discrete-event engine: :class:`Store`,
a bounded FIFO queue (models the RX/TX ring buffers that OpenNetVM uses
to hand packet descriptors between cores)."""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Engine, Process


class Store:
    """A FIFO queue with optional capacity.

    Producers yield ``Put(store, item)`` and block while the store is full;
    consumers yield ``Get(store)`` and block while it is empty.  FIFO order
    is preserved for both items and blocked processes.  The store counts
    what went through it: puts, gets, the deepest occupancy, and the puts
    and gets that had to wait.
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_items",
        "_blocked_putters",
        "_blocked_getters",
        "total_put",
        "total_got",
        "high_watermark",
        "blocked_puts",
        "blocked_gets",
    )

    def __init__(self, engine: "Engine", capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity!r}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._blocked_putters: Deque[Tuple["Process", Any]] = deque()
        self._blocked_getters: Deque["Process"] = deque()
        self.total_put = 0
        self.total_got = 0
        self.high_watermark = 0
        self.blocked_puts = 0
        self.blocked_gets = 0

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else str(self.capacity)
        return f"<Store {self.name or id(self)} {len(self._items)}/{cap}>"

    # -- engine-facing plumbing -------------------------------------------
    #
    # A putter waits only on a full store and a getter only on an empty
    # one, so a get frees one slot for at most one waiting putter, and a
    # put into an empty store feeds at most one waiting getter.  Each
    # call enqueues or dequeues, reports to the observer and wakes its
    # waiters itself, in the order the engine queues their resumptions.

    def _put(self, process: "Process", item: Any) -> None:
        items = self._items
        engine = self.engine
        observer = engine.observer
        if self.capacity is not None and len(items) >= self.capacity:
            self._blocked_putters.append((process, item))
            self.blocked_puts += 1
            if observer is not None:
                observer.store_blocked(self, engine._now, process, "put")
            return
        items.append(item)
        self.total_put += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        if observer is not None:
            observer.store_depth(self, engine._now, len(items))
        heappush(engine._queue, (engine._now, next(engine._sequence), process, None))
        if self._blocked_getters:
            getter = self._blocked_getters.popleft()
            item = items.popleft()
            self.total_got += 1
            if observer is not None:
                observer.store_depth(self, engine._now, len(items))
            heappush(engine._queue, (engine._now, next(engine._sequence), getter, item))

    def _get(self, process: "Process") -> None:
        items = self._items
        engine = self.engine
        observer = engine.observer
        if not items:
            self._blocked_getters.append(process)
            self.blocked_gets += 1
            if observer is not None:
                observer.store_blocked(self, engine._now, process, "get")
            return
        item = items.popleft()
        self.total_got += 1
        if observer is not None:
            observer.store_depth(self, engine._now, len(items))
        heappush(engine._queue, (engine._now, next(engine._sequence), process, item))
        if self._blocked_putters:
            putter, item = self._blocked_putters.popleft()
            items.append(item)
            self.total_put += 1
            if observer is not None:
                observer.store_depth(self, engine._now, len(items))
            heappush(engine._queue, (engine._now, next(engine._sequence), putter, None))
