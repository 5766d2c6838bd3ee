"""Host-time span tracer for the benchmark's traced pass.

A span is ``(id, name, start_ns, end_ns, parent_id)``; names read
``layer:callable`` (``core:SpeedyBox.process``).  The benchmark wraps the
layers' public callables from its own side — instance attributes on the
objects it builds, module and class attributes where the caller looks the
name up — and undoes every patch when the repeat ends; nothing under
``src/`` is edited.

Every call is aggregated per name (calls, total, self, max).  Only calls
of at least :data:`KEEP_SPAN_NS` also keep an individual span, so a run
of millions of packets holds a few hundred of them.  A call's *self*
time is its duration minus the duration of the traced calls made inside
it, which is what lets the layers sum to the repeat.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: calls shorter than this are aggregated per name only
KEEP_SPAN_NS = 1_000_000

_MISSING = object()


class Tracer:
    """Spans and per-name totals of one traced repeat."""

    def __init__(self):
        #: kept spans: (id, name, start_ns, end_ns, parent id or None)
        self.spans: List[Tuple[int, str, int, int, Optional[int]]] = []
        #: name -> [calls, total_ns, self_ns, max_ns]
        self.totals: Dict[str, List[int]] = {}
        #: open frames, innermost last: [id, name, parent frame, child_ns, start_ns]
        self._stack: List[list] = []
        self._next_id = 0
        #: (owner, attribute, previous own value or _MISSING), for unpatch_all
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _push(self, name: str) -> list:
        stack = self._stack
        frame = [self._next_id, name, stack[-1] if stack else None, 0, 0]
        self._next_id += 1
        stack.append(frame)
        frame[4] = time.perf_counter_ns()
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, parent, child_ns, start = frame
        duration = end - start
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        if duration > entry[3]:
            entry[3] = duration
        if parent is not None:
            parent[3] += duration
        if duration >= KEEP_SPAN_NS:
            # A parent lasts at least as long as its child, so the parent
            # of a kept span is always kept too.
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[0])
            )

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one call of ``name``."""
        frame = self._push(name)
        try:
            yield
        finally:
            self._pop(frame)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a call of ``name``."""
        push, pop = self._push, self._pop

        def traced(*args, **kwargs):
            frame = push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)

        return traced

    # -- patching the program from the benchmark's side ----------------------

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until
        :meth:`unpatch_all`.  ``owner`` is an instance, a class or a
        module; a missing attribute is an error, so a renamed callable
        shows up as a failing benchmark rather than a silent zero."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, self.wrap(name, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attribute, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    # -- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0, 0))[0]

    def total_ns(self, name: str) -> int:
        return self.totals.get(name, (0, 0, 0, 0))[1]

    def self_ns(self, prefix: str) -> int:
        """Summed self time of every name starting with ``prefix``."""
        return sum(
            entry[2] for name, entry in self.totals.items() if name.startswith(prefix)
        )

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
                for i, n, s, e, p in self.spans
            ],
            "totals": {
                name: dict(zip(("calls", "total_ns", "self_ns", "max_ns"), entry))
                for name, entry in sorted(self.totals.items())
            },
        }
