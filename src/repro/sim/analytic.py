"""Closed-form temporal replay (the fast path of ``Platform.run_load``).

The generator-based DES in :mod:`repro.sim.engine` is fully general — it
handles shared core pools, interrupts and observer instrumentation — but
the common benchmark configuration needs none of that: every packet's
stage plan is fixed after the functional pass, every ring has a single
producer and a single consumer, and service times are deterministic.
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
single-consumer and keeps enqueue order equal to source order.  Pure
delay hops (``stage_index=None``), empty plans and anything else the
recursion cannot express fall back to the DES.

Float arithmetic deliberately mirrors the DES event loop operation for
operation (the same additions and the same max-via-comparison), so the
analytic replay is numerically *identical* to the engine, not merely
close — the equivalence suite asserts exact equality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.vector import np

#: Pseudo stage index for the packet source in the producer-uniqueness map.
_SOURCE = -1


def plans_are_analytic(plans: Sequence[Sequence[Tuple[Optional[int], float]]]) -> bool:
    """Can these stage plans be replayed with the closed-form recursion?

    Requirements, checked in one pass over the hops:

    - every plan is non-empty (an empty plan would route the packet
      straight to the sink, a case only the DES models);
    - every hop names a real stage (``None`` marks free-running delay
      hops that spawn detached processes in the DES);
    - no plan visits the same stage twice in a row (a self-edge would
      make the stage its own producer);
    - every stage is entered from exactly one predecessor across *all*
      plans — the single-producer condition that keeps each ring FIFO in
      source order, so no later packet can delay an earlier one.
    """
    producer_of: Dict[int, int] = {}
    seen_plans: set = set()
    for plan in plans:
        # Steady-state plans are shared list objects (one per compiled
        # flow); re-walking an already-validated plan cannot change the
        # producer map, so identical plans are checked once.
        plan_id = id(plan)
        if plan_id in seen_plans:
            continue
        if not plan:
            return False
        seen_plans.add(plan_id)
        previous = _SOURCE
        for stage, __ in plan:
            if stage is None or stage == previous:
                return False
            known = producer_of.get(stage)
            if known is None:
                producer_of[stage] = previous
            elif known != previous:
                return False
            previous = stage
    return True


def analytic_replay(
    plans: Sequence[Sequence[Tuple[int, float]]],
    gaps: Sequence[float],
    stage_count: int,
    ring_capacity: Optional[int],
) -> Tuple[List[float], List[float]]:
    """Replay stage plans analytically; returns the run's timeline.

    The timeline is two lists indexed by packet, ``(arrival, finish)``:
    ``arrival[i]`` is packet ``i``'s offered time and ``finish[i]`` its
    departure from the last hop — the shape
    :meth:`Platform._spawn_pipeline` collects from the DES and
    :func:`analytic_replay_vector` returns as arrays, value for value.
    Fast packets overtake slow ones on mixed-path pipelines, so
    ``finish`` need not be sorted; whoever wants finish order sorts.

    Callers must have validated the plans with :func:`plans_are_analytic`.
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

    for plan, gap in zip(plans, gaps):
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


def analytic_replay_vector(
    table: Sequence[Sequence[Tuple[Optional[int], float]]],
    plan_ids,
    ring_capacity: Optional[int],
):
    """Whole-batch array evaluation of the saturation recursion, or ``None``.

    Applies only to the case the batch lane's hot benchmarks hit:
    all-zero arrival gaps (saturation), and every plan in the
    deduplicated ``table`` a single hop on one common stage (the BESS
    topology; ONVM's no-wave fast path compresses to it too).  Under
    those conditions the scalar recursion collapses — with every gap
    zero, the stage's ready time is non-decreasing, so ``start_i`` always
    resolves to ``ready_{i-1}`` and the whole run is two cumulative
    passes::

        ready = cumsum(service)            # add.accumulate: the same
        start = [0, ready[:-1]]            #   left-fold of float adds
        enq   = [0]*cap + cummax(start[:n-cap])   # ring back-pressure
        arrival[i] = enq[i-1]              # the prior source-ready time

    ``np.add.accumulate`` and ``np.maximum.accumulate`` are sequential
    left folds over float64, so every intermediate is bit-identical to
    the scalar loop's — the equivalence suite asserts exact equality.
    Anything outside this shape (heterogeneous gaps, multi-hop plans,
    several target stages) returns ``None``: float addition is not
    associative, so the general case cannot be re-bracketed into array
    passes without breaking exactness.

    Returns the run's timeline as two float64 columns indexed by
    packet, ``(arrival, finish)`` — what the scalar replay returns as
    lists.  Service times are non-negative, so ``finish`` is
    non-decreasing here: packet order is finish order.
    """
    empty = np.empty(0, dtype=np.float64)
    if not table:
        return empty, empty
    stage: Optional[int] = None
    for plan in table:
        if len(plan) != 1:
            return None
        hop_stage, service_ns = plan[0]
        if hop_stage is None or service_ns < 0:
            return None
        if stage is None:
            stage = hop_stage
        elif hop_stage != stage:
            return None

    service_by_pid = np.array([plan[0][1] for plan in table], dtype=np.float64)
    n = len(plan_ids)
    # Both columns are written in place: the gathered service times
    # become ``ready`` (the finish column), and ``arrival`` is the
    # shifted ``start`` folded by the running maximum.
    finish = np.take(service_by_pid, plan_ids)
    np.add.accumulate(finish, out=finish)
    arrival = np.zeros(n, dtype=np.float64)
    # Ring back-pressure: enqueue c blocks until dequeue c-cap, i.e. on
    # max(start[:c-cap+1]) — a running maximum (comparison-exact) — and
    # packet i's offered time is the source's ready time after packet
    # i-1, which is that packet's enqueue instant: arrival[i] = enq[i-1],
    # zero for every enqueue that found a free slot.
    cap = ring_capacity
    if cap is not None and n > cap + 1:
        blocked = arrival[cap + 1 :]
        blocked[1:] = finish[: n - cap - 2]  # start[1:] is ready[:-1]
        np.maximum.accumulate(blocked, out=blocked)
    return arrival, finish
