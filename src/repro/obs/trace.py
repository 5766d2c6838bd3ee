"""The packet-path tracer: per-packet spans with two export formats.

A *span* is a named interval on a *track* (a core, a ring, a pipeline
stage) with nanosecond start and duration plus free-form args — "this
packet spent 400 cycles in the firewall hop", "ring1 held this descriptor
for 2.3 µs".  Spans nest: :meth:`PacketTracer.begin`/:meth:`~PacketTracer.end`
maintain a per-track stack so an NF hop can contain its transport
sub-span, and the recorded depth survives export.

Exports
-------

- :meth:`PacketTracer.to_jsonl` — one JSON object per line, trivially
  greppable / loadable with pandas;
- :meth:`PacketTracer.to_chrome` — the Chrome trace-event format
  (``{"traceEvents": [...]}``, complete ``"ph": "X"`` events with ``ts``
  and ``dur`` in microseconds), so a capture opens directly in
  ``chrome://tracing`` or https://ui.perfetto.dev with one named thread
  per track.  Counter series (ring occupancy over time) export as
  ``"ph": "C"`` events and render as stacked area charts.

Like the metrics registry, the tracer has a null mode: :data:`NULL_TRACER`
accepts every call and records nothing, so instrumented code never
branches on "is tracing on".
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.record import dump_jsonl

#: events per ``json.dumps`` call in :meth:`PacketTracer.write_chrome`
_CHROME_CHUNK_EVENTS = 1024


class Span:
    """One recorded interval on a track."""

    __slots__ = ("name", "track", "start_ns", "dur_ns", "depth", "args")

    def __init__(
        self,
        name: str,
        track: str,
        start_ns: float,
        dur_ns: float,
        depth: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ):
        if dur_ns < 0:
            raise ValueError(f"span {name!r} has negative duration {dur_ns!r}")
        self.name = name
        self.track = track
        self.start_ns = float(start_ns)
        self.dur_ns = float(dur_ns)
        self.depth = depth
        self.args = args or {}

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.dur_ns

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} track={self.track} "
            f"[{self.start_ns:g}, {self.end_ns:g}) ns depth={self.depth}>"
        )


class _CounterSample:
    __slots__ = ("name", "track", "ts_ns", "value")

    def __init__(self, name: str, track: str, ts_ns: float, value: float):
        self.name = name
        self.track = track
        self.ts_ns = float(ts_ns)
        self.value = float(value)


class _Instant:
    __slots__ = ("name", "track", "ts_ns", "args")

    def __init__(self, name: str, track: str, ts_ns: float, args: Dict[str, Any]):
        self.name = name
        self.track = track
        self.ts_ns = float(ts_ns)
        self.args = args


class PacketTracer:
    """Collects spans, instants and counter samples; exports them."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans: List[Span] = []
        self._instants: List[_Instant] = []
        self._counters: List[_CounterSample] = []
        #: per-track stack of (name, start_ns, args) for begin/end nesting
        self._open: Dict[str, List[Tuple[str, float, Dict[str, Any]]]] = {}

    # -- recording ---------------------------------------------------------

    def span(
        self, name: str, track: str, start_ns: float, dur_ns: float, **args: Any
    ) -> Optional[Span]:
        """Record a complete interval (the common one-shot form)."""
        if not self.enabled:
            return None
        depth = len(self._open.get(track, ()))
        span = Span(name, track, start_ns, dur_ns, depth=depth, args=args)
        self._spans.append(span)
        return span

    def begin(self, name: str, track: str, ts_ns: float, **args: Any) -> None:
        """Open a nested span; close it with :meth:`end` on the same track."""
        if not self.enabled:
            return
        self._open.setdefault(track, []).append((name, float(ts_ns), args))

    def end(self, track: str, ts_ns: float, **extra_args: Any) -> Optional[Span]:
        """Close the innermost open span on ``track``."""
        if not self.enabled:
            return None
        stack = self._open.get(track)
        if not stack:
            raise ValueError(f"end() with no open span on track {track!r}")
        name, start_ns, args = stack.pop()
        if extra_args:
            args = {**args, **extra_args}
        span = Span(name, track, start_ns, ts_ns - start_ns, depth=len(stack), args=args)
        self._spans.append(span)
        return span

    def instant(self, name: str, track: str, ts_ns: float, **args: Any) -> None:
        """A zero-duration marker (drop, event firing, blocked put)."""
        if not self.enabled:
            return
        self._instants.append(_Instant(name, track, float(ts_ns), args))

    def counter(self, name: str, track: str, ts_ns: float, value: float) -> None:
        """One sample of a time-varying quantity (e.g. ring occupancy)."""
        if not self.enabled:
            return
        self._counters.append(_CounterSample(name, track, ts_ns, value))

    # -- introspection -----------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    @property
    def open_depth(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    def __len__(self) -> int:
        return len(self._spans) + len(self._instants) + len(self._counters)

    def tracks(self) -> List[str]:
        """Every track name in first-use order."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.track)
        for instant in self._instants:
            seen.setdefault(instant.track)
        for sample in self._counters:
            seen.setdefault(sample.track)
        return list(seen)

    def reset(self) -> None:
        self._spans.clear()
        self._instants.clear()
        self._counters.clear()
        self._open.clear()

    # -- export ------------------------------------------------------------

    def _jsonl_records(self) -> Iterator[Dict[str, Any]]:
        for span in self._spans:
            yield {
                "type": "span",
                "name": span.name,
                "track": span.track,
                "start_ns": span.start_ns,
                "dur_ns": span.dur_ns,
                "depth": span.depth,
                "args": span.args,
            }
        for instant in self._instants:
            yield {
                "type": "instant",
                "name": instant.name,
                "track": instant.track,
                "ts_ns": instant.ts_ns,
                "args": instant.args,
            }
        for sample in self._counters:
            yield {
                "type": "counter",
                "name": sample.name,
                "track": sample.track,
                "ts_ns": sample.ts_ns,
                "value": sample.value,
            }

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(record, sort_keys=True) for record in self._jsonl_records())

    def write_jsonl(self, path) -> int:
        return dump_jsonl(path, self._jsonl_records())

    def to_chrome(self) -> Dict[str, Any]:
        """The capture as a Chrome trace-event JSON object.

        ``ts``/``dur`` are microseconds (the format's unit); every track
        becomes a named thread of pid 0 via ``thread_name`` metadata, and
        events are sorted by timestamp so ``ts`` is monotonic.
        """
        tids = {track: index for index, track in enumerate(self.tracks())}
        events: List[Dict[str, Any]] = []
        for track, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        timed: List[Dict[str, Any]] = []
        for span in self._spans:
            timed.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tids[span.track],
                    "ts": span.start_ns / 1000.0,
                    "dur": span.dur_ns / 1000.0,
                    "args": span.args,
                }
            )
        for instant in self._instants:
            timed.append(
                {
                    "name": instant.name,
                    "ph": "i",
                    "s": "t",
                    "pid": 0,
                    "tid": tids[instant.track],
                    "ts": instant.ts_ns / 1000.0,
                    "args": instant.args,
                }
            )
        for sample in self._counters:
            timed.append(
                {
                    "name": f"{sample.track}:{sample.name}",
                    "ph": "C",
                    "pid": 0,
                    "tid": tids[sample.track],
                    "ts": sample.ts_ns / 1000.0,
                    "args": {sample.name: sample.value},
                }
            )
        timed.sort(key=lambda event: event["ts"])
        events.extend(timed)
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def write_chrome(self, path) -> int:
        """Write the Chrome-trace JSON; returns the event count."""
        trace = self.to_chrome()
        events = trace["traceEvents"]
        # ``json.dump`` to a file always takes the pure-Python encoder
        # (one generator frame per token); ``json.dumps`` takes the C
        # one.  Encoding a chunk of events at a time gives the same
        # bytes without holding the whole document as one string.
        head, tail = json.dumps({**trace, "traceEvents": []}).split("[]", 1)
        with open(path, "w") as handle:
            handle.write(head + "[")
            for start in range(0, len(events), _CHROME_CHUNK_EVENTS):
                if start:
                    handle.write(", ")
                handle.write(json.dumps(events[start : start + _CHROME_CHUNK_EVENTS])[1:-1])
            handle.write("]" + tail)
        return len(events)

    def __repr__(self) -> str:
        return (
            f"<PacketTracer {len(self._spans)} spans, {len(self._instants)} instants, "
            f"{len(self._counters)} counter samples over {len(self.tracks())} tracks>"
        )


#: The shared disabled tracer — the default everywhere.
NULL_TRACER = PacketTracer(enabled=False)
