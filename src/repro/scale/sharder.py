"""RSS-style flow sharding onto chain replicas.

A hardware NIC spreads flows over cores by hashing the five-tuple into a
small *indirection table* of buckets, each bucket naming a queue (here: a
chain replica).  We reproduce that scheme in software because its two
properties are exactly what flow-state migration needs:

- **stability** — a flow's bucket is a pure function of its five-tuple,
  so the same flow always lands on the same replica until the table is
  explicitly repartitioned;
- **minimal remapping** — repartitioning moves whole buckets, and only
  the buckets that *must* move: every replica keeps an equal share
  (``size // N``, the first ``size % N`` replica ids one more), and a
  bucket keeps its owner while that owner is within its share.

Both directions of a connection must reach the same replica (the NAT's
reverse mapping, Snort's flowbits and the monitor counters live there),
so hashing is over :meth:`~repro.net.flow.FiveTuple.canonical`.

Per-flow *pins* override the table during migrations: a migrated flow is
pinned to its new home so it does not snap back when the table changes.
A replica added to a running sharder joins with no buckets: flows reach
it only by pin.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.net.flow import FiveTuple

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def shard_hash(flow: FiveTuple) -> int:
    """Direction-independent 64-bit FNV-1a over the canonical five-tuple.

    Deliberately seeded differently from the classifier's FID hash so
    sharding and FID assignment stay uncorrelated.
    """
    canonical = flow.canonical()
    data = struct.pack(
        "!IIHHB",
        canonical.src_ip,
        canonical.dst_ip,
        canonical.src_port,
        canonical.dst_port,
        canonical.protocol,
    )
    value = _FNV_OFFSET ^ 0x5CA1AB1E
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


class IndirectionTable:
    """bucket → replica, repartitioned with minimal movement."""

    def __init__(self, size: int = 128):
        if size <= 0:
            raise ValueError(f"indirection table size must be positive, got {size!r}")
        self.size = size
        self._buckets: List[Optional[int]] = [None] * size
        self.generation = 0

    def replica_of(self, bucket: int) -> int:
        replica = self._buckets[bucket]
        if replica is None:
            raise RuntimeError("indirection table not yet populated; call rebalance()")
        return replica

    def rebalance(self, replica_ids: Sequence[int]) -> Dict[int, Tuple[Optional[int], int]]:
        """Repartition into equal shares; move as little as possible.

        Every replica's share is ``size // N`` buckets, and the ``size % N``
        lowest replica ids take one more.  Every bucket keeps its current
        replica while that replica stays within its share; orphaned
        buckets (owner removed) and over-share spill move to the replicas
        with remaining deficit, in ascending replica id.  Returns
        ``{bucket: (old, new)}`` for every bucket that changed owner.
        """
        if not replica_ids:
            raise ValueError("rebalance needs at least one replica")
        ordered = sorted(replica_ids)
        share, extra = divmod(self.size, len(ordered))
        quotas = {rid: share + (rank < extra) for rank, rid in enumerate(ordered)}
        kept: Dict[int, int] = {rid: 0 for rid in quotas}
        homeless: List[int] = []
        for bucket, owner in enumerate(self._buckets):
            if owner in quotas and kept[owner] < quotas[owner]:
                kept[owner] += 1
            else:
                homeless.append(bucket)

        deficits = [(rid, quotas[rid] - kept[rid]) for rid in sorted(quotas)]
        moved: Dict[int, Tuple[Optional[int], int]] = {}
        cursor = iter(homeless)
        for rid, deficit in deficits:
            for __ in range(deficit):
                bucket = next(cursor)
                moved[bucket] = (self._buckets[bucket], rid)
                self._buckets[bucket] = rid
        if moved:
            self.generation += 1
        return moved


class FlowSharder:
    """Hash five-tuples onto chain replicas in equal shares, RSS style."""

    def __init__(self, replicas: Union[int, Sequence[int]], buckets: int = 128):
        ids = range(replicas) if isinstance(replicas, int) else replicas
        self._replicas: Set[int] = set(ids)
        if not self._replicas:
            raise ValueError("a sharder needs at least one replica")
        self.table = IndirectionTable(buckets)
        self._pins: Dict[FiveTuple, int] = {}
        self.table.rebalance(list(self._replicas))

    # -- lookup ---------------------------------------------------------------

    @property
    def replica_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._replicas))

    def bucket_of(self, flow: FiveTuple) -> int:
        return shard_hash(flow) % self.table.size

    def replica_for(self, flow: FiveTuple) -> int:
        """The replica this flow (either direction) belongs to right now."""
        pinned = self._pins.get(flow.canonical())
        if pinned is not None:
            return pinned
        return self.table.replica_of(self.bucket_of(flow))

    # -- pins (migration overrides) -------------------------------------------

    def pin(self, flow: FiveTuple, replica_id: int) -> None:
        if replica_id not in self._replicas:
            raise KeyError(f"unknown replica {replica_id!r}")
        self._pins[flow.canonical()] = replica_id

    # -- repartitioning -------------------------------------------------------

    def add_replica(self, replica_id: int) -> None:
        """Register a replica with no buckets: flows reach it only via
        pins until a removal repartitions the table."""
        if replica_id in self._replicas:
            raise ValueError(f"replica {replica_id!r} already present")
        self._replicas.add(replica_id)

    def remove_replica(self, replica_id: int) -> Dict[int, Tuple[Optional[int], int]]:
        """Drop a replica: equal shares over the rest, its pins dropped;
        returns the moved buckets."""
        if replica_id not in self._replicas:
            raise KeyError(f"unknown replica {replica_id!r}")
        if len(self._replicas) == 1:
            raise ValueError("cannot remove the last replica")
        self._replicas.discard(replica_id)
        moved = self.table.rebalance(list(self._replicas))
        for flow, rid in list(self._pins.items()):
            if rid == replica_id:
                del self._pins[flow]
        return moved

    def __repr__(self) -> str:
        return (
            f"<FlowSharder {len(self._replicas)} replicas, "
            f"{self.table.size} buckets, {len(self._pins)} pins>"
        )
