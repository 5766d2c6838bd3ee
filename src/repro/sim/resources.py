"""The one shared resource of the discrete-event engine: :class:`Store`,
a bounded FIFO queue (models the RX/TX ring buffers that OpenNetVM uses
to hand packet descriptors between cores)."""

from __future__ import annotations

from collections import deque
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

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- engine-facing plumbing -------------------------------------------

    def _put(self, process: "Process", item: Any) -> None:
        if self.full:
            self._blocked_putters.append((process, item))
            self.blocked_puts += 1
            observer = self.engine.observer
            if observer is not None:
                observer.store_blocked(self, process, "put")
            return
        self._enqueue(item)
        self.engine._schedule_resume(process, None)
        self._feed_getters()

    def _get(self, process: "Process") -> None:
        if not self._items:
            self._blocked_getters.append(process)
            self.blocked_gets += 1
            observer = self.engine.observer
            if observer is not None:
                observer.store_blocked(self, process, "get")
            return
        item = self._dequeue()
        self.engine._schedule_resume(process, item)
        self._admit_putters()

    def _enqueue(self, item: Any) -> None:
        items = self._items
        items.append(item)
        self.total_put += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        observer = self.engine.observer
        if observer is not None:
            observer.store_put(self)

    def _dequeue(self) -> Any:
        item = self._items.popleft()
        self.total_got += 1
        observer = self.engine.observer
        if observer is not None:
            observer.store_get(self)
        return item

    def _feed_getters(self) -> None:
        while self._blocked_getters and self._items:
            getter = self._blocked_getters.popleft()
            self.engine._schedule_resume(getter, self._dequeue())

    def _admit_putters(self) -> None:
        while self._blocked_putters and not self.full:
            putter, item = self._blocked_putters.popleft()
            self._enqueue(item)
            self.engine._schedule_resume(putter, None)
        self._feed_getters()
