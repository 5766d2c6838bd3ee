"""The Event Table (§V-C1, Fig. 3).

An *event* is an NF-registered (condition → update) pair attached to a
flow: when the condition over NF internal state becomes true, the flow's
header action and/or state functions must change, and the Global MAT rule
must be re-consolidated.  Events are how SpeedyBox keeps the fast path
correct for stateful NFs whose behaviour mutates mid-flow (Observation 2,
§V-A) — e.g. Maglev rerouting a flow when its backend fails, or a DoS
preventer flipping a flow from MODIFY to DROP when a SYN counter crosses
a threshold.

Conditions are checked (a) before a subsequent packet uses the cached
rule, and (b) immediately after state-function batches run — "as soon as
the associated states have been updated".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.actions import HeaderAction
from repro.core.state_function import StateFunction, plain_args
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY

ConditionHandler = Callable[..., bool]
UpdateFunctionHandler = Callable[..., Optional[HeaderAction]]


class Event:
    """One registered event (the ``register_event`` record of Fig. 2).

    Purity contract: ``condition`` is a *predicate* over NF state — it
    reads, never writes, and returns the same answer however often it is
    asked between two state changes.  Both fast paths rely on it: the
    interpreted one asks twice a packet, and the compiled lane asks
    first (:meth:`EventTable.quiet_active_count`) and leaves a true
    answer for :meth:`EventTable.check_fid` to ask again and act on.
    Everything an event *does* belongs in ``update_function`` /
    ``update_action`` / ``update_state_functions``, which run exactly
    once per firing.

    Like a state function, the event names its handlers
    (``condition_method``, ``update_method`` on the NF ``nf_name``);
    ``condition`` and ``update_function`` hold those methods as resolved
    on one runtime.
    """

    __slots__ = (
        "fid",
        "nf_name",
        "condition",
        "condition_method",
        "args",
        "update_action",
        "update_function",
        "update_method",
        "update_state_functions",
        "one_shot",
        "triggered",
        "trigger_count",
    )

    def __init__(
        self,
        fid: int,
        nf_name: str,
        condition: ConditionHandler,
        args: Tuple = (),
        update_action: Optional[HeaderAction] = None,
        update_function: Optional[UpdateFunctionHandler] = None,
        update_state_functions: Optional[List[StateFunction]] = None,
        one_shot: bool = True,
    ):
        if not callable(condition):
            raise TypeError(f"condition handler must be callable, got {condition!r}")
        if update_action is None and update_function is None and update_state_functions is None:
            raise ValueError("an event needs an update action, update function, or both")
        self.fid = fid
        self.nf_name = nf_name
        self.condition = condition
        self.condition_method = condition.__name__
        self.args = plain_args(args)
        self.update_action = update_action
        self.update_function = update_function
        self.update_method = None if update_function is None else update_function.__name__
        self.update_state_functions = update_state_functions
        self.one_shot = one_shot
        self.triggered = False
        self.trigger_count = 0

    @property
    def active(self) -> bool:
        return not (self.one_shot and self.triggered)

    def check(self) -> bool:
        """Evaluate the condition handler over the recorded arguments."""
        return bool(self.condition(*self.args))

    def fire(self) -> Optional[HeaderAction]:
        """Mark triggered and run the update function.

        Returns the header action the flow should switch to: the explicit
        ``update_action`` if given, else whatever the update function
        returns (may be None if the update only mutates NF state).
        """
        self.triggered = True
        self.trigger_count += 1
        replacement: Optional[HeaderAction] = None
        if self.update_function is not None:
            replacement = self.update_function(*self.args)
        if self.update_action is not None:
            replacement = self.update_action
        return replacement

    def copy(self, copies: Dict[int, object]) -> "Event":
        # Args and the update action are shared, and the handlers left
        # out, like a state function's; the update functions go through
        # ``copies`` because firing puts the very same objects into the
        # NF's rule batch.
        clone = Event.__new__(Event)
        clone.fid = self.fid
        clone.nf_name = self.nf_name
        clone.condition = None
        clone.condition_method = self.condition_method
        clone.args = self.args
        clone.update_action = self.update_action
        clone.update_function = None
        clone.update_method = self.update_method
        functions = self.update_state_functions
        clone.update_state_functions = (
            None if functions is None else [fn.copy(copies) for fn in functions]
        )
        clone.one_shot = self.one_shot
        clone.triggered = self.triggered
        clone.trigger_count = self.trigger_count
        return clone

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "armed"
        return f"<Event fid={self.fid} nf={self.nf_name} ({state})>"


class EventTable:
    """All registered events, indexed by FID."""

    def __init__(self, metrics: MetricsRegistry = NULL_REGISTRY):
        self._by_fid: Dict[int, List[Event]] = {}
        self.total_registered = 0
        self.total_triggered = 0
        self.total_checks = 0
        self._m_registered = metrics.counter(
            "events_registered_total", "events NFs registered for flows"
        )
        self._m_triggered = metrics.counter(
            "events_triggered_total", "event conditions that fired"
        )
        self._m_checks = metrics.counter(
            "event_checks_total", "condition evaluations on the fast path"
        )

    def register(self, event: Event) -> None:
        self._by_fid.setdefault(event.fid, []).append(event)
        self.total_registered += 1
        self._m_registered.inc()

    def events_for(self, fid: int) -> List[Event]:
        return list(self._by_fid.get(fid, ()))

    def active_event_count(self, fid: int) -> int:
        events = self._by_fid.get(fid)
        if not events:
            return 0
        count = 0
        for event in events:
            if event.active:
                count += 1
        return count

    def quiet_active_count(self, fid: int) -> int:
        """``active_event_count`` if every active condition is false, else -1.

        The compiled lane's probe: it evaluates, never fires and counts
        nothing, so a caller that gets ``-1`` can hand the packet to
        :meth:`check_fid` (which evaluates again — conditions are pure,
        see :class:`Event`) and one that gets a count and goes on to
        serve the packet books the evaluations itself (``total_checks``
        and the ``event_checks_total`` counter).
        """
        events = self._by_fid.get(fid)
        if not events:
            return 0
        count = 0
        for event in events:
            # ``event.active`` and ``event.check()``, without their frames:
            # this loop runs twice per packet of every event-bearing flow.
            if not (event.one_shot and event.triggered):
                if event.condition(*event.args):
                    return -1
                count += 1
        return count

    def clear_flow(self, fid: int) -> None:
        """Remove every event of a closed flow (FIN/RST cleanup, §VI-B)."""
        self._by_fid.pop(fid, None)

    def clear_nf_flow(self, fid: int, nf_name: str) -> None:
        """Drop the events one NF registered for one flow (re-recording)."""
        events = self._by_fid.get(fid)
        if not events:
            return
        remaining = [event for event in events if event.nf_name != nf_name]
        if remaining:
            self._by_fid[fid] = remaining
        else:
            del self._by_fid[fid]

    # -- migration support (repro.scale) -------------------------------------

    def import_flow(self, fid: int, events: List[Event]) -> None:
        """Adopt an imported flow's events (handlers already resolved)."""
        if not events:
            return
        self._by_fid.setdefault(fid, []).extend(events)

    def check_fid(self, fid: int) -> List[Tuple[Event, Optional[HeaderAction]]]:
        """Evaluate every active event of ``fid``; fire the matching ones.

        Returns (event, replacement header action) pairs for each event
        that fired, in registration order.  The caller (the framework)
        installs replacements in the owning NF's Local MAT and
        re-consolidates the Global MAT rule.
        """
        fired: List[Tuple[Event, Optional[HeaderAction]]] = []
        for event in self._by_fid.get(fid, ()):
            if not event.active:
                continue
            self.total_checks += 1
            self._m_checks.inc()
            if event.check():
                replacement = event.fire()
                self.total_triggered += 1
                self._m_triggered.inc()
                fired.append((event, replacement))
        return fired

    def __len__(self) -> int:
        return sum(len(events) for events in self._by_fid.values())

    def __repr__(self) -> str:
        return f"<EventTable {len(self)} events, {self.total_triggered} triggered>"
