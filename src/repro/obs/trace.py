"""The packet-path tracer: per-packet spans with two export formats.

A *span* is a named interval on a *track* (a core, a ring, a pipeline
stage) with nanosecond start and duration plus free-form args — "this
packet spent 400 cycles in the firewall hop", "ring1 held this descriptor
for 2.3 µs".  A span's depth is 0 unless its recorder says otherwise (a
flow span's stage children are at depth 1).

A packet's events repeat from one packet of a flow to the next but for
where they start, so the tracer keeps one *row* per packet or call, in
call order: ``(template, start_ns, packet, value)``.  An
:class:`EventTemplate` fixes the rest and is built once: per timeline
shape (:func:`repro.obs.timeline.trace_unloaded`), per DES stage and
hop, per counter track, per repeating marker.  A flow span recorder's
rows join by reference (:meth:`PacketTracer.adopt`);
:meth:`PacketTracer.events` turns rows back into objects.

:meth:`PacketTracer.write_chrome` writes the Chrome trace-event format
(``ts``/``dur`` in µs, one named thread per track, counter series as
``"ph": "C"``) for ``chrome://tracing`` or https://ui.perfetto.dev.
Each template's events are encoded once per export with ``str.format``
fields where a row's numbers go (:func:`encode`), so a row is one
``format``; events come out sorted by ``ts``, ties in record order
(spans, then instants, then counter samples).
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
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.record import dump_jsonl

#: A :func:`slot` as ``json.dumps`` spells it (NUL is ``\u0000``; no
#: recorded text holds a NUL, or the ``\x01`` :func:`encode` cuts at).
_QUOTED = re.compile(r'"\\u0000(\d+)\\u0000"')
_INNER = re.compile(r"\\u0000(\d+)\\u0000")
_CUT_JSON = ', "\\u0001", '
#: a row's ``k``-th event starts at field ``{FIRST_TS + k}``
FIRST_TS = 5
#: between a row's events in its one format string (JSON escapes it)
ROW_SEP = "\x02"


def slot(index: int) -> str:
    """The stand-in for a row's ``index``-th number: encoded, the
    ``str.format`` field ``{index!r}``."""
    return "\x00%d\x00" % index


PACKET, VALUE, VALUE_US = slot(0), slot(1), slot(2)


def encode(groups: List[list], sort_keys: bool = False) -> List[List[str]]:
    """Every event of every group as JSON with each :func:`slot` a
    ``str.format`` field, in one ``json.dumps`` call; an event that is a
    ``str`` is its own text."""
    flat: list = []
    for group in groups:
        for event in group:
            if event.__class__ is not str:
                flat += (event, "\x01")
    text = json.dumps(flat, sort_keys=sort_keys)[1:-1].replace("{", "{{").replace("}", "}}")
    text = _INNER.sub(r"{\1!r}", _QUOTED.sub(r"{\1!r}", text))
    texts = iter((text + ", ").split(_CUT_JSON))
    return [[event if event.__class__ is str else next(texts) for event in group]
            for group in groups]


def rendered(starts: List[float], text: str, fields: tuple) -> Tuple[List[float], List[str]]:
    """The ``ts`` and the JSON of each event of a row whose events start
    at ``starts`` (ns): ``text`` is the row's events' one format string."""
    times = [start / 1000.0 for start in starts]
    return times, text.format(*fields, *times).split(ROW_SEP)


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
    ``t = start_ns``, with :data:`PACKET` and :data:`VALUE` standing for
    its packet and value.  Every template — the flow span recorder's too
    — has ``size``, ``tracks`` (its events' ``(kind, track)``),
    :meth:`materialize`, :meth:`chrome` and :meth:`render`.
    """

    __slots__ = ("entries", "size", "tracks", "_texts", "_text")

    def __init__(self, entries: tuple):
        self.entries = entries
        self.size = len(entries)
        self.tracks = tuple((entry[0], entry[2]) for entry in entries)
        self._texts = None

    def starts(self, t: float) -> List[float]:
        starts = []
        for __, __, __, off, step, __, __ in self.entries:
            starts.append(t + off)
            t += step
        return starts

    def materialize(self, row: tuple, out: tuple) -> None:
        """Append ``row``'s events to ``out``: (spans, instants, samples)."""
        __, t, packet, value = row
        for (kind, name, track, __, __, dur, args), ts in zip(self.entries, self.starts(t)):
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

    def chrome(self, tids: Dict[str, int]) -> List[Dict[str, Any]]:
        """The Chrome events with their slots; ``tids`` numbers the tracks."""
        return [chrome_event(kind, name, track, tids[track], slot(FIRST_TS + k), dur, args)
                for k, (kind, name, track, __, __, dur, args) in enumerate(self.entries)]

    def render(self, row: tuple, texts: List[str], timed: tuple) -> None:
        """Add the ``ts`` and the JSON of each of ``row``'s events to
        ``timed[kind]``'s two lists; ``texts`` are :meth:`chrome`'s, encoded."""
        if texts is not self._texts:
            self._texts, self._text = texts, ROW_SEP.join(texts)
        __, t, packet, value = row
        fields = (packet, value, None if value is None else value / 1000.0, None, None)
        if self.size == 1:  # most rows: a counter sample, a DES hop, a marker
            ts = (t + self.entries[0][3]) / 1000.0
            times, lines = timed[self.entries[0][0]]
            times.append(ts)
            lines.append(self._text.format(*fields, ts))
            return
        for entry, ts, line in zip(self.entries, *rendered(self.starts(t), self._text, fields)):
            times, lines = timed[entry[0]]
            times.append(ts)
            lines.append(line)


class PacketTracer:
    """Collects spans, instants and counter samples; exports them."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._rows: List[tuple] = []
        #: templates by key: (counter, track), (track, hop), (marker,
        #: track, *args), a timeline's entries, and (platform, id(report))
        #: -> (report, its timeline)
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
        if not self.enabled:
            return
        # a marker that repeats (a store's blocked puts) shares one template
        entry = (1, name, track, 0.0, 0.0, 0.0, args)
        self.add(self.shared((name, track, repr(args)), (entry,)), float(ts_ns))

    def counter(self, name: str, track: str, ts_ns: float, value: float) -> None:
        """One sample of a time-varying quantity (e.g. ring occupancy)."""
        if self.enabled:
            entry = (2, name, track, 0.0, 0.0, 0.0, {name: VALUE})
            self.add(self.shared((name, track), (entry,)), float(ts_ns), None, float(value))

    def packet_span(self, track: str, hop: int, start_ns: float, dur_ns: float, packet) -> None:
        """Span ``pkt<packet>`` on ``track``, ``hop`` in its args: one DES
        stage serving one packet."""
        entry = (0, "pkt" + PACKET, track, 0.0, 0.0, VALUE, {"hop": hop})
        self.add(self.shared((track, hop), (entry,)), float(start_ns), packet, float(dur_ns))

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

    def tracks(self, templates=None) -> List[str]:
        """Every track name in first-use order: spans', then instants',
        then counter samples'."""
        if templates is None:
            templates = dict.fromkeys(row[0] for row in self._rows)
        seen: Dict[str, None] = {}
        for wanted in (0, 1, 2):
            for template in templates:
                for kind, track in template.tracks:
                    if kind == wanted:
                        seen.setdefault(track)
        return list(seen)

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
        templates = dict.fromkeys(row[0] for row in self._rows)
        tids = {track: tid for tid, track in enumerate(self.tracks(templates))}
        encoded = dict(zip(templates, encode([template.chrome(tids) for template in templates])))
        # per kind, the events' ts and their JSON: two flat lists, so an
        # event allocates nothing the garbage collector has to walk
        timed = tuple(([], []) for __ in range(3))
        for row in self._rows:
            template = row[0]
            template.render(row, encoded[template], timed)
        times = timed[0][0] + timed[1][0] + timed[2][0]
        texts = timed[0][1] + timed[1][1] + timed[2][1]
        lines = [json.dumps({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                             "args": {"name": track}}) for track, tid in tids.items()]
        # stable: ties keep record order
        lines += map(texts.__getitem__, sorted(range(len(times)), key=times.__getitem__))
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
    ``prefix`` keeps one run's tracks apart from another's.  The stores'
    own blocked counts reach the registry through
    ``Platform._publish_load_metrics``; this observer feeds the tracer.
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
