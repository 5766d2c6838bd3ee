"""The packet-path tracer: per-packet spans with two export formats.

A *span* is a named interval on a *track* (a core, a ring, a pipeline
stage) with nanosecond start and duration plus free-form args — "this
packet spent 400 cycles in the firewall hop", "ring1 held this descriptor
for 2.3 µs".  A span's depth is 0 unless its recorder says otherwise (a
flow span's stage children are at depth 1).

A packet's events repeat from one packet to the next but for where they
start, so the tracer keeps one *row* per packet or call, in call order:
``(template, start_ns, packet, value)``.  An :class:`EventTemplate`
fixes the rest and is built once: per report shape and platform
(:func:`repro.obs.timeline.trace_unloaded`), per DES stage and hop, per
counter track, per repeating marker.  A flow span recorder's rows join
by reference (:meth:`PacketTracer.adopt`); :meth:`PacketTracer.events`
turns rows back into objects.

:meth:`PacketTracer.write_chrome` writes the Chrome trace-event format
(``ts``/``dur`` in µs, one named thread per track, counter series as
``"ph": "C"``) for ``chrome://tracing`` or https://ui.perfetto.dev.  It
renders a template at a time (:func:`render`): the rows are grouped by
template, each template's events are encoded once with a :func:`slot`
where a row's numbers go (:func:`encode`), each event's start is a
float64 column summed in the per-row order, and the text of an event is
its literal pieces joined around ``repr`` mapped over its columns.  One
stable sort on (``ts``, kind, row, event) then orders the events: ties
go spans, then instants, then counter samples, each in record order.
:meth:`PacketTracer.write_jsonl` writes one JSON object per event.

:class:`TracingObserver` is the discrete-event engine's observer: the
engine's stores report puts, gets and blocked waits to it, and it
streams them onto the tracer (the engine never imports it).  Like the
metrics registry, the tracer has a null mode: :data:`NULL_TRACER`
accepts every call and records nothing, so instrumented code never
branches on "is tracing on".
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.record import dump_jsonl
from repro.vector import np

#: A :func:`slot` as ``json.dumps`` spells it, a whole value (quoted) or
#: inside a string (NUL is ``\u0000``; no recorded text holds a NUL, or
#: the ``\x01`` :func:`encode` cuts at).
_SLOT = re.compile(r'"\\u0000(\d+)\\u0000"|\\u0000(\d+)\\u0000')
_CUT_JSON = ', "\\u0001", '
#: a row's ``k``-th event starts at slot ``FIRST_TS + k``
FIRST_TS = 5


def slot(index: int) -> str:
    """The stand-in for a row's ``index``-th number: rendered, the
    ``repr`` of that number."""
    return "\x00%d\x00" % index


PACKET, VALUE, VALUE_US = slot(0), slot(1), slot(2)


def encode(groups: List[list], sort_keys: bool = False) -> List[List[tuple]]:
    """Every event of every group as JSON cut at its slots, in one
    ``json.dumps`` call: per event, ``(pieces, slots)`` — the literal
    text, and between each two pieces the number of the slot there."""
    flat: list = []
    for group in groups:
        for event in group:
            flat += (event, "\x01")
    text = json.dumps(flat, sort_keys=sort_keys)[1:-1]
    texts = iter((text + ", ").split(_CUT_JSON))
    cut = []
    for group in groups:
        events = []
        for __ in group:
            parts = _SLOT.split(next(texts))
            events.append((parts[::3], [int(quoted or inner) for quoted, inner
                                        in zip(parts[1::3], parts[2::3])]))
        cut.append(events)
    return cut


def laid_out(offsets, t) -> list:
    """Each event's start from ``t``: ``t + off``, then ``t += step``, per
    ``(off, step)`` of ``offsets``.  ``t`` is one row's start (a float) or
    a group's, a column at a time (a float64 array): one summation order
    for both.  A zero ``off`` or ``step`` adds nothing, so events that
    start together share one column."""
    starts = []
    for off, step in offsets:
        starts.append(t + off if off else t)
        if step:
            t = t + step
    return starts


def groups_of(rows: list) -> List[Tuple[Any, np.ndarray]]:
    """The rows' indices, ascending, by template and row length (a flow
    span row grows when it is stamped)."""
    n = len(rows)
    templates = list(map(itemgetter(0), rows))
    codes = {template: code for code, template in enumerate(dict.fromkeys(templates))}
    widths = np.fromiter(map(len, rows), np.intp, n)
    keys = np.fromiter(map(codes.__getitem__, templates), np.intp, n)
    keys = keys * (int(widths.max(initial=0)) + 1) + widths
    order = np.argsort(keys, kind="stable")
    cuts = (np.flatnonzero(np.diff(keys[order])) + 1).tolist()
    return [(templates[order[lo]], order[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, n])
            if hi > lo]


def track_order(rows: list, groups: list) -> List[str]:
    """Every track in first-use order: spans', then instants', then
    counter samples', each by the row and event that first puts one there."""
    uses = []
    for template, indices in groups:
        uses += template.track_uses(rows, indices)
    uses.sort(key=itemgetter(0, 1, 2))
    return list(dict.fromkeys(use[3] for use in uses))


def joined(events: List[tuple], separator: str) -> tuple:
    """:func:`encode`'s ``events`` as one, ``separator`` between each two."""
    pieces, slots = list(events[0][0]), list(events[0][1])
    for more, more_slots in events[1:]:
        pieces[-1] += separator + more[0]
        pieces += more[1:]
        slots += more_slots
    return pieces, slots


def render(rows: list, groups: list, cut: list, tids, unit: float) -> tuple:
    """The text of every event of ``rows``, a group at a time, and per
    text its start (ns, divided by ``unit``), kind, row and event number
    as four columns.  ``cut`` is each group's events, :func:`encode`d; a
    start slot holds the start divided by ``unit`` (1.0 leaves it be)."""
    texts: List[str] = []
    times: List[np.ndarray] = []
    kinds: List[np.ndarray] = []
    owners: List[np.ndarray] = []
    numbers: List[np.ndarray] = []
    for (template, indices), events in zip(groups, cut):
        n = len(indices)
        values, starts = template.columns(list(map(rows.__getitem__, indices.tolist())), tids)
        # a start column two events share (a flow root and its first
        # child) is scaled and spelled once; ``starts`` keeps the ids live
        scaled = {id(start): start / unit for start in starts}
        spelled = {key: column.tolist() for key, column in scaled.items()}
        for k, start in enumerate(starts):
            values[FIRST_TS + k] = spelled[id(start)]
        # by column, so a column two slots share is spelled once too
        reprs: Dict[int, List[str]] = {}
        for k, ((pieces, slots), kind) in enumerate(zip(events, template.kinds)):
            parts = [repeat(pieces[0], n)]
            for index, piece in zip(slots, pieces[1:]):
                column = values[index]
                text = reprs.get(id(column))
                if text is None:
                    text = reprs[id(column)] = list(map(repr, column))
                parts += (text, repeat(piece, n))
            texts += map("".join, zip(*parts))
            times.append(scaled[id(starts[k])])
            kinds.append(np.full(n, kind))
            owners.append(indices)
            numbers.append(np.full(n, k))
    if not texts:
        return texts, tuple(np.empty(0) for __ in range(4))
    return texts, tuple(map(np.concatenate, (times, kinds, owners, numbers)))


def chrome_event(kind: int, name: str, track: str, tid, ts, dur, args) -> Dict[str, Any]:
    """A Chrome trace event: kind 0 a complete span, 1 an instant, 2 a
    counter sample (``args`` its ``{name: value}``)."""
    if kind == 0:
        dur = VALUE_US if dur is VALUE else dur / 1000.0
        return {"name": name, "ph": "X", "pid": 0, "tid": tid, "ts": ts, "dur": dur, "args": args}
    if kind == 1:
        return {"name": name, "ph": "i", "s": "t", "pid": 0, "tid": tid, "ts": ts, "args": args}
    return {"name": f"{track}:{name}", "ph": "C", "pid": 0, "tid": tid, "ts": ts, "args": args}


class Span:
    """One recorded interval on a track."""

    __slots__ = ("name", "track", "start_ns", "dur_ns", "depth", "args")

    def __init__(self, name: str, track: str, start_ns: float, dur_ns: float,
                 args: Optional[Dict[str, Any]] = None):
        if dur_ns < 0:
            raise ValueError(f"span {name!r} has negative duration {dur_ns!r}")
        self.name = name
        self.track = track
        self.start_ns = float(start_ns)
        self.dur_ns = float(dur_ns)
        #: 0 unless a recorder nests it (a flow span's stage children)
        self.depth = 0
        self.args = args or {}

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.dur_ns

    def __repr__(self) -> str:
        return (f"<Span {self.name!r} track={self.track} "
                f"[{self.start_ns:g}, {self.end_ns:g}) ns depth={self.depth}>")


_Instant = namedtuple("_Instant", "name track ts_ns args")
_CounterSample = namedtuple("_CounterSample", "name track ts_ns value")


class EventTemplate:
    """A run of events fixed but for a row's start, packet and value.

    ``entries`` are ``(kind, name, track, off, step, dur_ns, args)``
    (kinds as :func:`chrome_event`'s); a row ``(template, start_ns,
    packet, value)`` puts each at ``t + off``, then ``t += step``, from
    ``t = start_ns`` (:func:`laid_out`, for a row and a column alike), with :data:`PACKET` and :data:`VALUE` standing for
    its packet and value.  Every template — the flow span recorder's too
    — has ``size``, ``kinds`` (its events'), :meth:`materialize`,
    :meth:`track_uses`, :meth:`chrome` and :meth:`columns`.
    """

    __slots__ = ("entries", "size", "kinds", "offsets", "tracks", "_per_value")

    def __init__(self, entries: tuple):
        self.entries = entries
        self.size = len(entries)
        #: each event's ``(off, step)``, for :func:`laid_out`
        self.offsets = tuple((entry[3], entry[4]) for entry in entries)
        self.kinds = [entry[0] for entry in entries]
        self.tracks = tuple((entry[0], entry[2]) for entry in entries)
        #: a span lasting its row's value (a DES hop) shows it in µs too
        self._per_value = any(entry[5] is VALUE for entry in entries)

    def materialize(self, row: tuple, out: tuple) -> None:
        """Append ``row``'s events to ``out``: (spans, instants, samples)."""
        __, t, packet, value = row
        starts = laid_out(self.offsets, t)
        for (kind, name, track, __, __, dur, args), ts in zip(self.entries, starts):
            if packet is not None or value is not None:
                name = name.replace(PACKET, str(packet))
                dur = value if dur is VALUE else dur
                args = {key: packet if arg is PACKET else value if arg is VALUE else arg
                        for key, arg in args.items()}
            if kind == 0:
                out[0].append(Span(name, track, ts, dur, args))
            elif kind == 1:
                out[1].append(_Instant(name, track, ts, args))
            else:
                out[2].append(_CounterSample(name, track, ts, args[name]))

    def track_uses(self, rows: list, indices: np.ndarray) -> List[tuple]:
        """``(kind, row, event, track)`` for each of the template's
        events, at the first of its rows (``indices`` into ``rows``)."""
        first = int(indices[0])
        return [(kind, first, k, track) for k, (kind, track) in enumerate(self.tracks)]

    def chrome(self, tids: Dict[str, int], row: tuple) -> List[Dict[str, Any]]:
        """The Chrome events of rows like ``row``, with their slots;
        ``tids`` numbers the tracks."""
        return [chrome_event(kind, name, track, tids[track], slot(FIRST_TS + k), dur, args)
                for k, (kind, name, track, __, __, dur, args) in enumerate(self.entries)]

    def columns(self, rows: List[tuple], tids) -> Tuple[Dict[int, list], List[np.ndarray]]:
        """The rows' slot values, and each event's start (ns) as a column."""
        values = [row[3] for row in rows]
        fields = {0: [row[2] for row in rows], 1: values}
        if self._per_value:
            fields[2] = [value / 1000.0 for value in values]
        return fields, laid_out(self.offsets, np.array([row[1] for row in rows], np.float64))


class PacketTracer:
    """Collects spans, instants and counter samples; exports them."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._rows: List[tuple] = []
        #: one row, ``append((template, start_ns, packet, value))``: what
        #: :meth:`add` does once ``enabled`` is checked (a DES replay binds
        #: it, and its templates, before the engine runs)
        self.append = self._rows.append
        #: templates by key: (counter, track), (track, hop), (marker,
        #: track, repr(args)), and (platform, report shape) for timelines
        self.templates: Dict[tuple, Any] = {}
        #: id(row list) -> (the list, rows taken) for :meth:`adopt`
        self._adopted: Dict[int, Tuple[list, int]] = {}
        #: DES replays recorded so far (``Platform._replay`` numbers them
        #: and prefixes the tracks of every one after the first)
        self.des_runs = 0
        #: the unloaded timeline's cursor (ns) and how many packets it has
        #: laid out (the next one's number): one per tracer, so every
        #: platform that shares it lays its packets end to end
        self.unloaded_ns = 0.0
        self.unloaded_packets = 0

    # -- recording ---------------------------------------------------------

    def span(self, name: str, track: str, start_ns: float, dur_ns: float,
             **args: Any) -> Optional[Span]:
        """Record a complete interval."""
        if not self.enabled:
            return None
        span = Span(name, track, start_ns, dur_ns, args=args)
        self.add(EventTemplate(((0, name, track, 0.0, 0.0, span.dur_ns, args),)), span.start_ns)
        return span

    def instant(self, name: str, track: str, ts_ns: float, **args: Any) -> None:
        """A zero-duration marker (drop, event firing, blocked put)."""
        if self.enabled:
            self.add(self.marker(name, track, args), float(ts_ns))

    def counter(self, name: str, track: str, ts_ns: float, value: float) -> None:
        """One sample of a time-varying quantity (e.g. ring occupancy)."""
        if self.enabled:
            self.add(self.series(name, track), float(ts_ns), None, float(value))

    def marker(self, name: str, track: str, args: Dict[str, Any]) -> EventTemplate:
        """The template of marker ``name`` on ``track`` with ``args``: a
        marker that repeats (a store's blocked puts) shares one."""
        return self.shared((name, track, repr(args)), ((1, name, track, 0.0, 0.0, 0.0, args),))

    def series(self, name: str, track: str) -> EventTemplate:
        """The template of counter ``name``'s samples on ``track``, a
        row's value the sample."""
        return self.shared((name, track), ((2, name, track, 0.0, 0.0, 0.0, {name: VALUE}),))

    def hop(self, track: str, hop: int) -> EventTemplate:
        """The template of span ``pkt<packet>`` on ``track``, ``hop`` in
        its args: one DES stage serving one packet, a row's value its
        duration."""
        return self.shared((track, hop), ((0, "pkt" + PACKET, track, 0.0, 0.0, VALUE, {"hop": hop}),))

    def shared(self, key: tuple, entries: tuple) -> EventTemplate:
        """The template of ``entries``, built the first time ``key`` asks."""
        template = self.templates.get(key)
        if template is None:
            template = self.templates[key] = EventTemplate(entries)
        return template

    def add(self, template: EventTemplate, start_ns: float, packet=None, value=None) -> None:
        """One row of ``template``'s events."""
        if self.enabled:
            self._rows.append((template, start_ns, packet, value))

    def adopt(self, rows: list) -> int:
        """Take, by reference, the rows of the list ``rows`` not taken
        before (a repeat call takes none); returns their event count."""
        if not self.enabled:
            return 0
        taken = self._adopted.get(id(rows))
        new = rows[taken[1] if taken is not None and taken[0] is rows else 0 :]
        self._adopted[id(rows)] = (rows, len(rows))
        self._rows.extend(new)
        return sum(row[0].size for row in new)

    # -- introspection -----------------------------------------------------

    def events(self) -> Tuple[List[Span], list, list]:
        """Every event as objects: spans, instants, counter samples, each
        in record order."""
        out: tuple = ([], [], [])
        for row in self._rows:
            row[0].materialize(row, out)
        return out

    @property
    def spans(self) -> List[Span]:
        return self.events()[0]

    def __len__(self) -> int:
        return sum(row[0].size for row in self._rows)

    def tracks(self) -> List[str]:
        """Every track name in first-use order: spans', then instants',
        then counter samples'."""
        return track_order(self._rows, groups_of(self._rows))

    def reset(self) -> None:
        self._rows.clear()
        self.templates.clear()
        self._adopted.clear()
        self.des_runs = 0
        self.unloaded_ns = 0.0
        self.unloaded_packets = 0

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        spans, instants, counters = self.events()
        return dump_jsonl(path, [
            *({"type": "span", "name": span.name, "track": span.track, "start_ns": span.start_ns,
               "dur_ns": span.dur_ns, "depth": span.depth, "args": span.args} for span in spans),
            *({"type": "instant", **mark._asdict()} for mark in instants),
            *({"type": "counter", **sample._asdict()} for sample in counters),
        ])

    def write_chrome(self, path) -> int:
        """Write the Chrome-trace JSON; returns the event count: each
        track's ``thread_name`` metadata, then the events by ``ts``."""
        rows = self._rows
        groups = groups_of(rows)
        tids = {track: tid for tid, track in enumerate(track_order(rows, groups))}
        cut = encode([template.chrome(tids, rows[indices[0]]) for template, indices in groups])
        texts, (times, kinds, owners, events) = render(rows, groups, cut, tids, 1000.0)
        lines = [json.dumps({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                             "args": {"name": track}}) for track, tid in tids.items()]
        lines += map(texts.__getitem__, np.lexsort((events, owners, kinds, times)).tolist())
        with open(path, "w") as handle:
            handle.write('{"traceEvents": [' + ", ".join(lines) + '], "displayTimeUnit": "ns"}')
        return len(lines)

    def __repr__(self) -> str:
        return f"<PacketTracer {len(self)} events over {len(self.tracks())} tracks>"


#: The shared disabled tracer — the default everywhere.
NULL_TRACER = PacketTracer(enabled=False)


class TracingObserver:
    """Streams store occupancy and blocking into a packet tracer: one
    counter sample per put/get (the occupancy *after* it) on track
    ``<prefix>ring:<store name>`` and a marker per blocked put/get, so
    Perfetto shows each ring as an area chart with its blocks on top.
    ``prefix`` keeps one run's tracks apart from another's.  A store's
    templates are bound at its first sample and a process's first wait,
    so a sample or a wait is one row appended.  The stores' own blocked
    counts reach the registry through ``Platform._publish_load_metrics``;
    this observer feeds the tracer.
    """

    def __init__(self, tracer: PacketTracer, prefix: str):
        self.tracer = tracer
        self.prefix = prefix
        self._append = tracer.append
        #: store -> its occupancy samples' template; (store, process,
        #: kind) -> the template of that process's waits on it
        self._depth: Dict[Any, EventTemplate] = {}
        self._waits: Dict[tuple, EventTemplate] = {}

    def store_depth(self, store: Any, now: float, depth: int) -> None:
        """One occupancy sample, after a put or a get."""
        template = self._depth.get(store)
        if template is None:
            template = self._depth[store] = self.tracer.series(
                "occupancy", f"{self.prefix}ring:{store.name}")
        self._append((template, now, None, float(depth)))

    def store_blocked(self, store: Any, now: float, process: Any, kind: str) -> None:
        """A ``kind`` ("put" or "get") of ``process`` that has to wait."""
        template = self._waits.get((store, process, kind))
        if template is None:
            template = self._waits[store, process, kind] = self.tracer.marker(
                f"blocked_{kind}", f"{self.prefix}ring:{store.name}", {"process": process.name})
        self._append((template, now, None, None))
