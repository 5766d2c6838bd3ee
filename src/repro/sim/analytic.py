"""Closed-form temporal replay (the fast path of ``Platform.run_load``).

The generator-based DES in :mod:`repro.sim.engine` replays any plan
table and reports every ring event to an observer, but an unobserved run
needs neither: every packet's stage plan is fixed after the functional
pass, every ring has a single producer and a single consumer, and
service times are deterministic.
Under those conditions the departure times obey a Lindley-style
recursion that a plain Python loop evaluates in O(total hops), roughly
an order of magnitude faster than driving the event loop.

For one stage ``s`` with worker-available time ``avail[s]``, ring
dequeue history ``gets[s]`` and ring capacity ``cap``, packet hops are
replayed in source order::

    enq   = ready                      if the ring has a free slot
          = max(ready, gets[s][c-cap]) if the c-th enqueue finds it full
    start = max(avail[s], enq)         # dequeue time at the consumer
    ready = start + service_ns         # departure from the stage

where ``ready`` starts as the packet's offered (arrival) time.  The
producer of the hop (the source or the previous stage) is occupied until
``enq`` — blocking-after-service, exactly like a full ``Put`` on a
bounded :class:`~repro.sim.resources.Store`.

The recursion is only valid when later packets can never influence
earlier ones.  :func:`plans_are_analytic` checks the sufficient
structural condition: every stage is fed by exactly one producer (the
source or one other stage), which makes every ring single-producer /
single-consumer and keeps enqueue order equal to source order.  A
table that fails it falls back to the DES.

Float arithmetic deliberately mirrors the DES event loop operation for
operation (the same additions and the same max-via-comparison), so the
analytic replay is numerically *identical* to the engine, not merely
close — the equivalence suite asserts exact equality.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.vector import np

#: Pseudo stage index for the packet source in the producer-uniqueness map.
_SOURCE = -1

#: packets per chunk of :func:`analytic_replay_vector`: its services,
#: finishes and lagged finishes (256 KiB each) stay in cache
CHUNK = 32768


def plans_are_analytic(table: Sequence[Sequence[Tuple[int, float]]]) -> bool:
    """Can a run over this plan table be replayed with the closed-form
    recursion?

    ``table`` holds the run's distinct plans (each packet names one by
    its plan id), so every plan is walked once however many packets
    share it.  Every plan is a non-empty list of hops, each on a real
    stage.  Requirements, checked in one pass over the hops:

    - no plan visits the same stage twice in a row (a self-edge would
      make the stage its own producer);
    - every stage is entered from exactly one predecessor across *all*
      plans — the single-producer condition that keeps each ring FIFO in
      source order, so no later packet can delay an earlier one.
    """
    producer_of: Dict[int, int] = {}
    for plan in table:
        previous = _SOURCE
        for stage, __ in plan:
            if stage == previous:
                return False
            known = producer_of.get(stage)
            if known is None:
                producer_of[stage] = previous
            elif known != previous:
                return False
            previous = stage
    return True


def plans_are_vector(table: Sequence[Sequence[Tuple[int, float]]]) -> bool:
    """Does this plan table have the shape :func:`analytic_replay_vector`
    evaluates: every plan a single hop with a non-negative service time,
    all on one common stage (the BESS topology; ONVM's no-wave fast path
    compresses to it too)?  An empty table qualifies."""
    stages = set()
    for plan in table:
        if len(plan) != 1:
            return False
        stage, service_ns = plan[0]
        if service_ns < 0:
            return False
        stages.add(stage)
    return len(stages) <= 1


def analytic_replay(
    table: Sequence[Sequence[Tuple[int, float]]],
    plan_ids: Sequence[int],
    gaps: Sequence[float],
    stage_count: int,
    ring_capacity: Optional[int],
) -> Tuple[List[float], List[float]]:
    """Replay a run analytically; returns its timeline.

    Packet ``i`` follows plan ``table[plan_ids[i]]`` after the source
    waits ``gaps[i]``.  The timeline is two lists indexed by packet,
    ``(arrival, finish)``:
    ``arrival[i]`` is packet ``i``'s offered time and ``finish[i]`` its
    departure from the last hop — the shape
    :meth:`Platform._spawn_pipeline` collects from the DES and
    :func:`analytic_replay_vector` returns as arrays, value for value.
    Fast packets overtake slow ones on mixed-path pipelines, so
    ``finish`` need not be sorted; whoever wants finish order sorts.

    Callers must have validated the table with :func:`plans_are_analytic`.
    """
    arrival: List[float] = []
    offered = arrival.append
    finish: List[float] = []
    finished = finish.append
    avail = [0.0] * stage_count
    get_times: List[List[float]] = [[] for __ in range(stage_count)]
    enqueued = [0] * stage_count
    cap = ring_capacity
    source_ready = 0.0

    for plan, gap in zip(map(table.__getitem__, plan_ids), gaps):
        offer = source_ready + gap if gap > 0 else source_ready
        offered(offer)
        ready = offer
        previous = _SOURCE
        for stage, service_ns in plan:
            gets = get_times[stage]
            count = enqueued[stage]
            enqueued[stage] = count + 1
            if cap is not None and count >= cap:
                # Ring full: the put blocks until the (count-cap)-th item
                # is dequeued, which frees the slot at that very instant.
                freed = gets[count - cap]
                enq = freed if freed > ready else ready
            else:
                enq = ready
            if previous < 0:
                source_ready = enq
            else:
                avail[previous] = enq
            stage_avail = avail[stage]
            start = stage_avail if stage_avail > enq else enq
            gets.append(start)
            ready = start + service_ns
            previous = stage
        # The final Put targets the unbounded done store: never blocks.
        avail[previous] = ready
        finished(ready)
    return arrival, finish


def saturated_arrivals(
    table: Sequence[Sequence[Tuple[int, float]]], plan_ids, ring_capacity: Optional[int]
) -> np.ndarray:
    """The arrival column :func:`analytic_replay_vector` does not keep:
    zero while the ring had a free slot, then the finish of the packet
    ``ring_capacity + 2`` places earlier — a running sum of the services,
    which ``np.add.accumulate`` folds in the recursion's own order, so
    every arrival is the scalar loop's to the bit."""
    n = len(plan_ids)
    arrival = np.zeros(n, dtype=np.float64)
    lag = n if ring_capacity is None else min(ring_capacity + 2, n)
    if lag < n:
        service_by_pid = np.array([plan[0][1] for plan in table], dtype=np.float64)
        np.add.accumulate(service_by_pid[np.asarray(plan_ids[: n - lag])], out=arrival[lag:])
    return arrival


def _ring_views(ring, position: int, length: int) -> tuple:
    """The slots of ``length`` consecutive positions from ``position`` in
    a ring indexed by ``position % len(ring)``, as at most two views in
    position order (``length <= len(ring)``)."""
    start = position % len(ring)
    head = ring[start : start + length]
    return head, ring[: length - len(head)]


def analytic_replay_vector(
    table: Sequence[Sequence[Tuple[int, float]]],
    plan_ids,
    ring_capacity: Optional[int],
    stamped: Sequence[int],
):
    """Chunked array evaluation of the saturation recursion.

    Applies to all-zero arrival gaps (saturation) over a plan table
    :func:`plans_are_vector` accepts — every plan a single hop on one
    common stage; callers check both.  Under those conditions the
    scalar recursion collapses.  With every gap zero, the stage is never
    idle, so ``start_i`` is ``finish_{i-1}`` and ``finish`` is a running
    sum of the services.  Packet ``i``'s offered time is the source's
    enqueue instant for packet ``i - 1``, which a full ring holds back
    to the dequeue ``cap`` places earlier — the start of packet
    ``i - 1 - cap``, i.e. the finish of packet ``i - 2 - cap``::

        finish  = cumsum(service)                  # add.accumulate
        arrival = [0]*(cap+2) + finish[:n-cap-2]   # zero while a slot was free
        latency = finish - arrival

    ``np.add.accumulate`` is a sequential left fold over float64, and
    each chunk's fold starts from the ready time the previous chunk left
    (IEEE addition is commutative, so ``service + ready`` is the scalar
    loop's ``ready + service``): every finish is bit-identical to the
    scalar loop's.  The scalar loop's enqueue clamp is a running maximum
    over the lagged finishes; a running sum of non-negative services
    never decreases, so that maximum is the lagged finish itself and
    needs no pass.  Anything outside this shape (heterogeneous gaps,
    multi-hop plans, several target stages) is the scalar recursion's:
    float addition is not associative, so the general case cannot be
    re-bracketed into array passes without breaking exactness.

    The run is evaluated :data:`CHUNK` packets at a time, so the
    services, the finishes and the lagged finishes stay in cache and
    each packet's latency is written once, straight into the run's
    latency column.  The last ``cap + 2`` finishes are carried from
    chunk to chunk in a ring of that many slots, so a ring capacity
    larger than a chunk lags across several chunks just as exactly.

    Returns ``(latencies, makespan_ns, arrival, finish)``: the float64
    ``finish - arrival`` column indexed by packet (finish order too:
    ``finish`` never decreases), the last finish, and each ``stamped``
    packet index's arrival and finish as dicts — the timeline a sampled
    span is stamped with, with no full arrival or finish column kept.
    """
    service_by_pid = np.array([plan[0][1] for plan in table], dtype=np.float64)
    n = len(plan_ids)
    latencies = np.empty(n, dtype=np.float64)
    # Packets from ``lag`` on wait on a lagged finish; with no ring, or
    # one the run never fills, none does and a latency is its finish.
    lag = n if ring_capacity is None else min(ring_capacity + 2, n)
    lagged = lag < n
    # ring[i % lag] holds finish[i - lag] when packet i's chunk comes;
    # zero is the offered time of every packet that found a free slot
    ring = np.zeros(lag if lagged else 0, dtype=np.float64)
    buffer = np.empty(min(n, CHUNK) if lagged else 0, dtype=np.float64)
    wanted = sorted({*stamped, *(index - lag for index in stamped if index >= lag)})
    finishes: Dict[int, float] = {}
    ready = 0.0
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        count = hi - lo
        out = latencies[lo:hi]
        chunk = buffer[:count] if lagged else out  # the chunk's finishes
        # plan ids index the table by construction; "clip" spares the
        # buffered copy the default mode makes of an ``out``
        service_by_pid.take(plan_ids[lo:hi], out=chunk, mode="clip")
        chunk[0] += ready
        np.add.accumulate(chunk, out=chunk)
        ready = float(chunk[-1])
        for index in wanted[bisect_left(wanted, lo) : bisect_left(wanted, hi)]:
            finishes[index] = float(chunk[index - lo])
        if lagged:
            # the chunk's first ``carried`` packets lag behind finishes
            # of earlier chunks, the rest behind its own
            carried = min(count, lag)
            head, tail = _ring_views(ring, lo, carried)
            split = len(head)
            np.subtract(chunk[:split], head, out=out[:split])
            np.subtract(chunk[split:carried], tail, out=out[split:carried])
            np.subtract(chunk[carried:], chunk[: count - carried], out=out[carried:])
            head, tail = _ring_views(ring, hi - carried, carried)
            split = count - carried + len(head)
            head[:] = chunk[count - carried : split]
            tail[:] = chunk[split:]
    arrival = {index: finishes[index - lag] if index >= lag else 0.0 for index in stamped}
    return latencies, ready, arrival, {index: finishes[index] for index in stamped}
