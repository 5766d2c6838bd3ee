"""Per-NF Local MATs and the instrumentation API (§IV-B, Fig. 2).

Each NF owns a :class:`LocalMAT`.  While a flow's initial packets traverse
the original chain, the NF calls the :class:`InstrumentationAPI` —
lightweight wrappers over ``localmat_add_HA`` / ``localmat_add_SF`` /
``register_event`` — to record its per-flow behaviour *without changing
the original processing logic*.  A :class:`NullInstrumentationAPI` with
the same surface lets the very same NF code run un-instrumented as the
baseline (original-chain) configuration.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.actions import HeaderAction
from repro.core.event_table import Event, EventTable
from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch
from repro.net.packet import Packet
from repro.platform.costs import CycleMeter, NULL_METER, Operation


class LocalRule:
    """One flow's record in one NF's Local MAT.

    ``header_actions`` keeps recording order (an NF may e.g. decap then
    modify); ``sf_batch`` is the ordered queue of state functions (§IV-B
    "we use a queue data structure to maintain the sequence").
    """

    __slots__ = ("fid", "header_actions", "sf_batch", "event_count", "hits")

    def __init__(self, fid: int, nf_name: str):
        self.fid = fid
        self.header_actions: List[HeaderAction] = []
        self.sf_batch = StateFunctionBatch(nf_name)
        self.event_count = 0
        self.hits = 0

    def __deepcopy__(self, memo) -> "LocalRule":
        # The action *list* is replaced by event updates, so the copy
        # gets its own; the actions in it are immutable and shared.  The
        # batch goes through the memo: the Global MAT schedule usually
        # holds the very same object.
        clone = LocalRule.__new__(LocalRule)
        clone.fid = self.fid
        clone.header_actions = list(self.header_actions)
        clone.sf_batch = copy.deepcopy(self.sf_batch, memo)
        clone.event_count = self.event_count
        clone.hits = self.hits
        return clone

    def __repr__(self) -> str:
        return (
            f"<LocalRule fid={self.fid} ha={len(self.header_actions)} "
            f"sf={len(self.sf_batch)} ev={self.event_count}>"
        )


class LocalMAT:
    """The stateful Match-Action Table instrumented into one NF."""

    def __init__(self, nf_name: str, event_table: Optional[EventTable] = None):
        self.nf_name = nf_name
        self.event_table = event_table
        self._rules: Dict[int, LocalRule] = {}
        self.records_ha = 0
        self.records_sf = 0

    def rule_for(self, fid: int) -> Optional[LocalRule]:
        return self._rules.get(fid)

    def __contains__(self, fid: int) -> bool:
        return fid in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def begin_recording(self, fid: int) -> LocalRule:
        """Start (or restart) recording the flow's rule.

        Every slow-path traversal rebuilds the rule from scratch so that
        handshake packets and post-event re-walks never accumulate
        duplicate actions or stale events.
        """
        if self.event_table is not None:
            self.event_table.clear_nf_flow(fid, self.nf_name)
        rule = LocalRule(fid, self.nf_name)
        self._rules[fid] = rule
        return rule

    def _rule(self, fid: int) -> LocalRule:
        rule = self._rules.get(fid)
        if rule is None:
            rule = LocalRule(fid, self.nf_name)
            self._rules[fid] = rule
        return rule

    def add_header_action(self, fid: int, action: HeaderAction) -> None:
        self._rule(fid).header_actions.append(action)
        self.records_ha += 1

    def add_state_function(self, fid: int, function: StateFunction) -> None:
        self._rule(fid).sf_batch.add(function)
        self.records_sf += 1

    def replace_header_actions(self, fid: int, actions: List[HeaderAction]) -> None:
        """Install a new action list (event updates, §V-C1)."""
        self._rule(fid).header_actions = list(actions)

    def replace_state_functions(self, fid: int, functions: List[StateFunction]) -> None:
        rule = self._rule(fid)
        rule.sf_batch = rule.sf_batch.clone_with(functions)

    def delete_flow(self, fid: int) -> bool:
        """FIN/RST cleanup: drop the rule and free its memory (§VI-B)."""
        return self._rules.pop(fid, None) is not None

    # -- migration support (repro.scale) -------------------------------------

    def import_flow(self, rule: LocalRule) -> None:
        """Adopt a migrated flow's rule (handlers already rebound)."""
        self._rules[rule.fid] = rule

    def flows(self) -> Tuple[int, ...]:
        return tuple(self._rules)

    def __repr__(self) -> str:
        return f"<LocalMAT {self.nf_name}: {len(self._rules)} flows>"


class InstrumentationAPI:
    """The per-NF view of SpeedyBox's APIs (Fig. 2).

    One instance is bound to (NF, its LocalMAT, the shared EventTable).
    Methods use Pythonic names; the exact paper spellings are provided as
    aliases (``localmat_add_HA`` etc.) for one-to-one code reading.
    """

    #: Instrumented NFs check this to skip recording work in baseline runs.
    recording = True

    def __init__(self, local_mat: LocalMAT, event_table: EventTable):
        self.local_mat = local_mat
        self.event_table = event_table
        #: The framework points this at the current packet's meter so the
        #: (small) recording overhead is charged to the right stage.
        self.meter: CycleMeter = NULL_METER

    def nf_extract_fid(self, packet: Packet) -> int:
        """Read the FID the Packet Classifier attached to the packet."""
        fid = packet.metadata.get("fid")
        if fid is None:
            raise KeyError("packet carries no FID metadata; did it bypass the classifier?")
        return fid

    def add_header_action(self, fid: int, action: HeaderAction) -> None:
        """Record a header action for the flow (``localmat_add_HA``)."""
        self.meter.charge(Operation.MAT_RECORD_HA)
        self.local_mat.add_header_action(fid, action)

    def add_state_function(
        self,
        fid: int,
        handler: Callable,
        payload_class: PayloadClass,
        args: Tuple = (),
        name: str = "",
    ) -> None:
        """Record a state-function handler (``localmat_add_SF``)."""
        self.meter.charge(Operation.MAT_RECORD_SF)
        function = StateFunction(
            handler,
            payload_class,
            args=args,
            name=name,
            nf_name=self.local_mat.nf_name,
        )
        self.local_mat.add_state_function(fid, function)

    def register_event(
        self,
        fid: int,
        condition_handler: Callable[..., bool],
        args: Tuple = (),
        update_action: Optional[HeaderAction] = None,
        update_function_handler: Optional[Callable] = None,
        update_state_functions: Optional[List[StateFunction]] = None,
        one_shot: bool = True,
    ) -> Event:
        """Register a runtime event for the flow (``register_event``)."""
        self.meter.charge(Operation.EVENT_REGISTER)
        event = Event(
            fid=fid,
            nf_name=self.local_mat.nf_name,
            condition=condition_handler,
            args=args,
            update_action=update_action,
            update_function=update_function_handler,
            update_state_functions=update_state_functions,
            one_shot=one_shot,
        )
        self.event_table.register(event)
        rule = self.local_mat.rule_for(fid)
        if rule is not None:
            rule.event_count += 1
        return event

    # -- exact paper spellings (Fig. 2) -------------------------------------

    localmat_add_HA = add_header_action
    localmat_add_SF = add_state_function


class NullInstrumentationAPI(InstrumentationAPI):
    """No-op API used when running the original, un-consolidated chain.

    Keeps the NF code identical between baseline and SpeedyBox runs — the
    add-* calls simply record nothing, mirroring an NF compiled without
    the SpeedyBox instrumentation.
    """

    recording = False

    def __init__(self):  # deliberately no backing tables
        self.local_mat = None
        self.event_table = None
        self.meter = NULL_METER

    def nf_extract_fid(self, packet: Packet) -> int:
        return packet.metadata.get("fid", -1)

    def add_header_action(self, fid: int, action: HeaderAction) -> None:
        return None

    def add_state_function(self, fid, handler, payload_class, args=(), name="") -> None:
        return None

    def register_event(
        self,
        fid,
        condition_handler,
        args=(),
        update_action=None,
        update_function_handler=None,
        update_state_functions=None,
        one_shot=True,
    ):
        return None

    localmat_add_HA = add_header_action
    localmat_add_SF = add_state_function
