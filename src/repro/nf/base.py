"""Base class for network functions.

An NF implements :meth:`NetworkFunction.process`, which *both* performs
the NF's real behaviour on the packet and — when handed an instrumented
API — records that behaviour in the Local MAT.  The same code path runs in
baseline mode with a :class:`~repro.core.local_mat.NullInstrumentationAPI`
whose recording calls are no-ops, mirroring how the paper adds a handful
of API lines to existing NF code without changing its logic (§IV-B).

Cost accounting: NFs charge the primitive operations they perform to
``self.meter``; the platform points ``meter`` at a fresh
:class:`~repro.platform.costs.CycleMeter` per packet (or per stage) and
converts to cycles afterwards.  Functional-only callers leave the default
null meter in place.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.local_mat import InstrumentationAPI
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.platform.costs import CycleMeter, NULL_METER, Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_PARSE = Operation.PARSE


class FlowField(NamedTuple):
    """One per-flow field an NF declares: its name and how a write moves it.

    ``kind`` is ``"count"`` (one more per packet), ``"add"`` (plus a
    size), ``"last"`` (the latest value written) or ``"opaque"`` (a
    value the NF alone interprets).  An import adds a ``count`` or
    ``add`` field to the row it finds and replaces the others.
    """

    name: str
    kind: str


class FlowRows(Mapping):
    """One NF's per-flow fields: a row per key the NF observes, a column
    per declared field.

    The NF reads and writes its columns in place on its per-packet path
    (``row = rows.index.get(key)``, then ``rows.columns[i][row]``); the
    framework reads a row as one value (the field of a one-field row,
    else a tuple), moves it whole, and gathers a column at a time.  As a
    mapping it is key -> that value.  Values are immutable.
    """

    __slots__ = ("fields", "index", "columns", "changes", "_free", "_adds")

    def __init__(self, fields: Tuple[FlowField, ...]):
        self.fields = fields
        #: key -> row
        self.index: Dict[object, int] = {}
        self.columns: Tuple[list, ...] = tuple([] for __ in fields)
        #: rows filed, dropped or rewritten by an import so far (a
        #: runtime's generation counts them)
        self.changes = 0
        self._free: List[int] = []
        self._adds = tuple(field.kind in ("count", "add") for field in fields)

    def __getitem__(self, key):
        return row_value(self.columns, self.index[key])

    def __contains__(self, key) -> bool:
        return key in self.index

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def insert(self, key, values) -> int:
        """File a row for a key that has none; returns the row."""
        self.changes += 1
        columns = self.columns
        # indexed loops: a zip costs more than the one or two fields it pairs
        if self._free:
            row = self._free.pop()
            for field, column in enumerate(columns):
                column[row] = values[field]
        else:
            row = len(columns[0])
            for field, column in enumerate(columns):
                column.append(values[field])
        self.index[key] = row
        return row

    def pop(self, key):
        """Remove the key's row; returns its value (``None``: no row)."""
        row = self.index.pop(key, None)
        if row is None:
            return None
        self.changes += 1
        self._free.append(row)
        columns = self.columns
        if len(columns) == 1:  # a teardown's pop: on the per-packet path
            value, columns[0][row] = columns[0][row], None
            return value
        value = tuple([column[row] for column in columns])
        for column in columns:
            column[row] = None
        return value

    def merge(self, key, value) -> None:
        """Write an imported row value under ``key``, field by field as
        each field's kind says."""
        values = (value,) if len(self.columns) == 1 else value
        row = self.index.get(key)
        if row is None:
            self.insert(key, values)
            return
        self.changes += 1
        for column, adds, field_value in zip(self.columns, self._adds, values):
            column[row] = column[row] + field_value if adds else field_value

    def gather(self) -> Tuple[list, ...]:
        """Every column copied, one copy each: what :func:`row_value`
        reads a row of as it stood now."""
        return tuple(column.copy() for column in self.columns)

    def clear(self) -> None:
        self.changes += 1
        self.index.clear()
        for column in self.columns:
            column.clear()
        self._free.clear()


def row_value(columns: Tuple[list, ...], row: int):
    """One row of ``columns`` as :class:`FlowRows` reads it."""
    if len(columns) == 1:
        return columns[0][row]
    return tuple([column[row] for column in columns])


class NetworkFunction:
    """Abstract NF: subclass and implement :meth:`process`."""

    #: Contract flag for the batch lane's bulk flow admission
    #: (``repro.core.batchlane``).  ``True`` declares that this NF's
    #: first-packet behaviour — the operations it charges and the actions
    #: it records — depends only on the packet's *shape* (headers present,
    #: payload bytes), never on flow identity or prior state, and that its
    #: only per-flow side effect on such packets is the aggregate counting
    #: :meth:`admit_flows` reproduces.  Stateful NFs (NAT port allocation,
    #: ACLs keyed on the five-tuple, connection trackers) must leave it
    #: ``False``; the lane then sets up every flow through the ordinary
    #: per-packet path.
    setup_flow_oblivious = False

    #: The per-flow fields this NF keeps, declared once; the NF's
    #: ``flow_rows`` holds them and the migration hooks below move them.
    #: An NF that declares none keeps its per-flow state its own way.
    flow_fields: Tuple[FlowField, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self.meter: CycleMeter = NULL_METER
        self.packets_processed = 0
        self.flow_rows: Optional[FlowRows] = (
            FlowRows(self.flow_fields) if self.flow_fields else None
        )

    def charge(self, operation: Operation, times: float = 1.0) -> None:
        """Charge primitive work to the currently attached meter."""
        self.meter.charge(operation, times)

    def ingress(self, packet: Packet) -> None:
        """Common per-packet ingress work: every NF parses the packet.

        This repeated parse is exactly the R1 redundancy the paper calls
        out — each NF in the original chain pays it, while the SpeedyBox
        fast path parses once at the classifier.
        """
        self.packets_processed += 1
        self.charge(_PARSE)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        """Process one packet; record behaviour through ``api``.

        Implementations must (1) behave identically whether ``api`` is
        recording or not, and (2) only *record* behaviour via ``api``,
        never change it.
        """
        raise NotImplementedError

    def handle_flow_close(self, packet: Packet) -> None:
        """Hook: called when the classifier sees the flow's FIN/RST."""
        return None

    def admit_flows(self, count: int) -> None:
        """Account ``count`` template-admitted first packets in one call.

        The batch lane's bulk admission installs flows from a captured
        template instead of running the chain per flow; this hook applies
        the aggregate side effects :meth:`process` would have had.  Only
        invoked on NFs whose ``setup_flow_oblivious`` is ``True``; the
        default covers the ingress packet counter.
        """
        self.packets_processed += count

    # -- migration hooks (repro.scale) ---------------------------------------
    #
    # NFs key per-flow state by the five-tuple they observe at their chain
    # position — i.e. after every upstream rewrite.  ``flow_through`` lets
    # the migrator walk a flow down the chain deriving each NF's observed
    # key without re-deriving header-action algebra; the export/import
    # pair moves the state itself; ``peek_flow_state`` reads what export
    # would move, in place, for a checkpoint; ``state_snapshot`` gives the
    # equivalence oracle a comparable read-only view.  For an NF with
    # declared fields each is one row read or copy of ``flow_rows``.

    def flow_through(self, flow: FiveTuple) -> FiveTuple:
        """Read-only: the five-tuple as this NF's rewrites emit it.

        Must not allocate state — a plain lookup of existing mappings.
        Stateless/non-rewriting NFs pass the tuple through unchanged.
        """
        return flow

    def flow_place(self, flow: FiveTuple) -> Optional[FiveTuple]:
        """The key of the row holding ``flow``'s state (``None``: no row).
        An NF that files both directions of a connection under one row
        maps the other direction's key to it."""
        return flow if flow in self.flow_rows.index else None

    def export_flow_state(self, flow: FiveTuple) -> Optional[object]:
        """Detach and return this NF's per-flow state for migration.

        ``flow`` is the five-tuple observed at this NF's position.  Both
        directions of a flow may be exported; an export that finds the
        state already detached returns ``None`` (as do stateless NFs).
        The value is immutable (hashable), and ``import_flow_state``
        never keeps a mutable reference to it: a checkpoint stores the
        very value it hands back to the live NF.
        """
        if self.flow_rows is None:
            return None
        place = self.flow_place(flow)
        return None if place is None else self.drop_row(place)

    def drop_row(self, place: FiveTuple) -> object:
        """Remove the row at ``place`` for an export; returns its value."""
        return self.flow_rows.pop(place)

    def import_flow_state(self, flow: FiveTuple, state: object) -> None:
        """Adopt per-flow state exported by a same-type NF elsewhere."""
        if self.flow_rows is not None:
            self.flow_rows.merge(flow, state)

    def peek_flow_state(self, flow: FiveTuple) -> Tuple[object, Optional[object]]:
        """(Where the state lives, what :meth:`export_flow_state` would
        return), detaching nothing: two keys that resolve to one state name
        one place.  An NF without declared fields exports and imports
        straight back, placed at ``flow``."""
        rows = self.flow_rows
        if rows is None:
            state = self.export_flow_state(flow)
            if state is not None:
                self.import_flow_state(flow, state)
            return flow, state
        place = self.flow_place(flow)
        if place is None:
            return flow, None
        return place, row_value(rows.columns, rows.index[place])

    def state_snapshot(self, flow: FiveTuple) -> Optional[object]:
        """A comparable, side-effect-free view of the flow's state."""
        if self.flow_rows is None:
            return None
        return self.peek_flow_state(flow)[1]

    def reset(self) -> None:
        """Clear all per-flow state (fresh run in benchmarks)."""
        self.packets_processed = 0
        if self.flow_rows is not None:
            self.flow_rows.clear()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
