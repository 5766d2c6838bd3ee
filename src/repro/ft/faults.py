"""Deterministic fault injection: kill a replica at a chosen sim time.

The simulator's clock for control decisions is the global packet index —
every packet offered to the cluster advances it by one, in unloaded and
loaded mode alike.  :class:`FaultInjector` arms one kill on that clock:
when packet ``kill_at`` arrives, the coordinator removes the victim
replica *before* the packet is dispatched, so the kill lands mid-run
with traffic in flight exactly like a crash would.  ``recover_after``
arms the matching recovery ``N`` packets later, bounding how much
traffic buffers against the dead replica before failover; leave it
``None`` to drive :meth:`repro.ft.failover.FaultTolerance.recover`
manually (tests do, to assert on the intermediate buffered state).
"""

from __future__ import annotations

from typing import Optional


class FaultInjector:
    """One scheduled replica kill on the global packet-index clock."""

    def __init__(
        self,
        kill_at: Optional[int] = None,
        recover_after: Optional[int] = None,
    ):
        if kill_at is not None and kill_at < 0:
            raise ValueError(f"kill_at must be >= 0, got {kill_at!r}")
        if recover_after is not None and recover_after < 0:
            raise ValueError(f"recover_after must be >= 0, got {recover_after!r}")
        #: global packet index at which the kill fires (None = never)
        self.kill_at = kill_at
        #: the victim (None = the replica homing the most flows), then the one killed
        self.replica: Optional[int] = None
        #: packets after the kill before recovery fires (None = manual)
        self.recover_after = recover_after
        self.packet_index = 0
        self.killed = False
        self.kill_index: Optional[int] = None
        self.recovered = False

    def tick(self) -> Optional[str]:
        """Advance the packet clock; returns ``"kill"``/``"recover"`` when due.

        The action applies *before* the current packet is dispatched: a
        kill at index K means packet K already finds the replica dead.
        """
        index = self.packet_index
        self.packet_index += 1
        if self.kill_at is not None and not self.killed and index >= self.kill_at:
            self.killed = True
            self.kill_index = index
            return "kill"
        if (
            self.killed
            and not self.recovered
            and self.recover_after is not None
            and self.kill_index is not None
            and index >= self.kill_index + self.recover_after
        ):
            self.recovered = True
            return "recover"
        return None

    def __repr__(self) -> str:
        state = "armed" if not self.killed else ("killed" if not self.recovered else "done")
        return (
            f"<FaultInjector kill_at={self.kill_at} replica={self.replica} "
            f"recover_after={self.recover_after} [{state}] t={self.packet_index}>"
        )
