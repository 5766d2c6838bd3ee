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

from typing import Optional, Tuple

from repro.core.local_mat import InstrumentationAPI
from repro.net.flow import FiveTuple
from repro.net.packet import Packet
from repro.platform.costs import CycleMeter, NULL_METER, Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_PARSE = Operation.PARSE


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

    #: Per-packet state functions this NF contributes (None = varies).
    def __init__(self, name: str):
        self.name = name
        self.meter: CycleMeter = NULL_METER
        self.packets_processed = 0

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
    # equivalence oracle a comparable read-only view.

    def flow_through(self, flow: FiveTuple) -> FiveTuple:
        """Read-only: the five-tuple as this NF's rewrites emit it.

        Must not allocate state — a plain lookup of existing mappings.
        Stateless/non-rewriting NFs pass the tuple through unchanged.
        """
        return flow

    def export_flow_state(self, flow: FiveTuple) -> Optional[object]:
        """Detach and return this NF's per-flow state for migration.

        ``flow`` is the five-tuple observed at this NF's position.  Both
        directions of a flow may be exported; an export that finds the
        state already detached returns ``None`` (as do stateless NFs).
        The value is immutable (hashable), and ``import_flow_state``
        never keeps a mutable reference to it: a checkpoint stores the
        very value it hands back to the live NF.
        """
        return None

    def import_flow_state(self, flow: FiveTuple, state: object) -> None:
        """Adopt per-flow state exported by a same-type NF elsewhere."""
        return None

    def peek_flow_state(self, flow: FiveTuple) -> Tuple[object, Optional[object]]:
        """(Where the state lives, what :meth:`export_flow_state` would
        return), detaching nothing: two keys that resolve to one state name
        one place.  The default exports and imports straight back, placed
        at ``flow``; an NF that can read in place overrides it."""
        state = self.export_flow_state(flow)
        if state is not None:
            self.import_flow_state(flow, state)
        return flow, state

    def state_snapshot(self, flow: FiveTuple) -> Optional[object]:
        """A comparable, side-effect-free view of the flow's state."""
        return None

    def reset(self) -> None:
        """Clear all per-flow state (fresh run in benchmarks)."""
        self.packets_processed = 0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
