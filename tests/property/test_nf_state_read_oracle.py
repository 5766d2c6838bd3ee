"""Property tests: a checkpoint reads NF state in place, as export did.

A checkpoint round reads each NF's per-flow state through
:meth:`~repro.nf.base.NetworkFunction.peek_flow_state`, which leaves the
state where it is, and files a refreshed checkpoint by replacing the
flow's snapshot alone.  The reference here is the reader as it ran
before: every state exported, then each imported straight back
(:func:`reference_read_nf_states`), and every checkpoint filed through
:meth:`~repro.ft.checkpoint.CheckpointManager.store`.  This file checks

1. for MazuNAT, Monitor, IPFilter and Maglev, on every walked direction
   of every flow (outbound, return traffic on the translated tuple, a
   FIN, a failed backend), that the in-place read of one direction
   equals that direction's export → import, that a flow's read equals
   the reference reader's, and that reading leaves every NF's internals
   as they were, down to each dict's order;
2. over a shared-pool cluster run with migration churn, return traffic,
   FIN closes and a kill, that every round's checkpoints pickle as the
   reference's do and the manager's direction index and stateless keys
   equal the reference's after every round;
3. over the same run with NATs that share no pool, where a migrated
   connection lands on a port another connection holds, that filing a
   refresh in place leaves every round as ``store`` does.  (The reader
   is not compared there: the reference's import re-bound such a port's
   reverse mapping to whichever of the two connections it read last,
   which a read in place no longer does.)
4. that the generic row reads of :mod:`repro.nf.base` — one read or copy
   of an NF's declared :class:`~repro.nf.base.FlowRows` — return what
   each NF's hand-written ``peek_flow_state``, ``export_flow_state`` and
   ``state_snapshot`` returned, kept below on the dicts they kept
   (:class:`HandWrittenNAT` and its peers): per NF, per walked direction
   and per flow, with and without a shared port pool.  Two snapshots
   changed shape: the NAT's is its export value now, and Maglev's is the
   backend's name (its health is the backend's, not the flow's).
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

import repro.ft.checkpoint as checkpoint_module
from repro.core.framework import SpeedyBox
from repro.ft import (
    FaultInjector,
    FaultTolerance,
    SharedAggregate,
    SharedPortPool,
    TransactionalStore,
)
from repro.ft.checkpoint import CheckpointManager
from repro.core.actions import Modify
from repro.nf import AclRule, IPFilter, MaglevLoadBalancer, MazuNAT, Monitor
from repro.nf.maglev import Backend
from repro.platform.costs import Operation
from repro.scale import ScaleCluster
from repro.scale.migration import flow_walk
from repro.traffic import FlowSpec, TrafficGenerator
from tests.property.test_flow_record_copy import drop_chain, event_chain, fail_a_backend, nat_chain


def reference_read_nf_states(observed):
    """The export → import reader the in-place read replaced."""
    live_states = [(nf, key, nf.export_flow_state(key)) for nf, key in observed]
    nf_states = []
    for nf, key, state in live_states:
        if state is not None:
            nf.import_flow_state(key, state)
            nf_states.append((nf.name, key, state))
    return nf_states


def internals(nfs, identity: bool = False) -> list:
    """Every NF's per-flow state, in each container's order (with each
    row's place in its columns, when asked)."""
    view = []
    for nf in nfs:
        rows = nf.flow_rows
        if rows is not None:
            view.append([
                (key, row if identity else None, rows[key]) for key, row in rows.index.items()
            ])
        if isinstance(nf, MazuNAT):
            view.append((
                list(nf.reverse.items()),
                list(nf._port_uses.items()),
                list(nf._free_ports),
                nf._next_port,
            ))
    return view


def observed_keys(nfs, flow):
    walk = flow_walk(nfs, flow.canonical())
    return [(nf, key) for keys in walk.values() for nf, key in zip(nfs, keys)]


# -- 1. one runtime, read by both readers -------------------------------------------

CHAINS = {"nat": nat_chain, "drop": drop_chain, "events": event_chain}


@st.composite
def cases(draw):
    """(chain, outbound specs, per flow: return packets, whether a FIN
    closes it, packet index to fail a backend at)."""
    chain = draw(st.sampled_from(sorted(CHAINS)))
    specs, replies, fins = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        specs.append(FlowSpec.tcp(
            f"10.5.{i}.7", "99.3.0.1", 4000 + i, 80,
            packets=draw(st.integers(min_value=1, max_value=6)),
            handshake=draw(st.booleans()),
        ))
        replies.append(draw(st.integers(min_value=0, max_value=3)))
        fins.append(draw(st.booleans()))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    fail_at = draw(st.none() | st.integers(min_value=0, max_value=20))
    return chain, specs, replies, fins, seed, fail_at


def drive(case) -> SpeedyBox:
    """One runtime through the case's traffic: the outbound packets, then
    each flow's replies on its translated return tuple, then its FIN."""
    chain, specs, replies, fins, seed, fail_at = case
    runtime = SpeedyBox(CHAINS[chain]())
    sent = 0

    def send(packets):
        nonlocal sent
        for packet in packets:
            if sent == fail_at:
                fail_a_backend(runtime)
            runtime.process(packet.clone())
            sent += 1

    send(TrafficGenerator(specs, interleave="shuffled", seed=seed).packets())
    for spec, count in zip(specs, replies):
        if count:
            directions = list(flow_walk(list(runtime.nfs), spec.five_tuple))
            send(TrafficGenerator([FlowSpec(directions[-1], packets=count, payload=b"re")]).packets())
    for spec, fin in zip(specs, fins):
        if fin:
            send(TrafficGenerator([FlowSpec(spec.five_tuple, packets=1, fin=True)]).packets()[-1:])
    return runtime


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_an_in_place_read_equals_export_then_import(case):
    ours, single, whole = drive(case), drive(case), drive(case)
    assert internals(ours.nfs) == internals(single.nfs) == internals(whole.nfs)
    before = internals(ours.nfs, identity=True)
    for spec in case[1]:
        flow = spec.five_tuple
        observed = observed_keys(list(ours.nfs), flow)
        for (nf, key), (twin, twin_key) in zip(observed, observed_keys(list(single.nfs), flow)):
            assert key == twin_key
            place, state = nf.peek_flow_state(key)
            exported = twin.export_flow_state(key)
            if exported is not None:
                twin.import_flow_state(key, exported)
            assert state == exported, (nf.name, key)
        assert checkpoint_module._read_nf_states(observed) == reference_read_nf_states(
            observed_keys(list(whole.nfs), flow)
        )
        assert internals(ours.nfs, identity=True) == before


def test_a_nat_mapping_is_read_once_at_the_first_direction_that_resolves_to_it():
    runtime = drive(("nat", [FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=2)],
                     [2], [False], 1, None))
    nat = runtime.nfs[0]
    flow = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80).five_tuple
    directions = list(flow_walk(list(runtime.nfs), flow))
    outbound, inbound = nat.peek_flow_state(directions[0]), nat.peek_flow_state(directions[-1])
    assert outbound == inbound and outbound[1] is not None  # one place, both directions
    states = checkpoint_module._read_nf_states(observed_keys(list(runtime.nfs), flow))
    assert [key for name, key, __ in states if name == "nat"] == [directions[0]]


# -- 2. and 3. a cluster's rounds, filed by both managers ---------------------------

PORTS = (20000, 60000)
REPLICAS = 4


def chain_factory(pooled: bool):
    """Replica chains over one store: NAT ports from a shared pool, or
    (``pooled`` false, as ``repro scale`` builds them) from each NAT's
    own allocator, so a migrated connection can land on a port in use."""
    store = TransactionalStore()
    pool = SharedPortPool(store, port_range=PORTS) if pooled else None
    aggregate = SharedAggregate(store, name="mon_total")

    def chain():
        return [
            MazuNAT("nat", external_ip="203.0.113.80", port_range=PORTS, port_pool=pool),
            Monitor("mon", aggregate=aggregate),
            IPFilter("fw"),
        ]

    return chain


def cluster_run(flows: int, seed: int, pooled: bool) -> list:
    """Every round of a cluster run: its checkpoints pickled,
    the direction index and the stateless keys after it.  Half the flows
    send, some flows migrate, a third of them get replies on their
    translated tuple and the rest of the traffic (FINs included) runs,
    while a replica is killed and recovered."""
    cluster = ScaleCluster(chain_factory(pooled), platform="onvm", replicas=REPLICAS)
    specs = [
        FlowSpec.tcp(f"10.3.0.{i + 1}", f"99.2.0.{i % 7 + 1}", 6000 + i, 80,
                     packets=6, handshake=True, fin=True)
        for i in range(flows)
    ]
    packets = TrafficGenerator(specs, interleave="shuffled", seed=seed).packets()
    half = len(packets) // 2
    ft = FaultTolerance(
        cluster, checkpoint_interval=6,
        injector=FaultInjector(kill_at=half + 10, recover_after=12),
    )
    manager = ft.checkpoints
    rounds = []
    real_round = ft.checkpoint_replica

    def checkpoint_replica(replica_id, cause="manual"):
        captured = real_round(replica_id, cause=cause)
        rounds.append((
            replica_id,
            captured,
            [(key, pickle.dumps(cp)) for key, cp in sorted(manager._snapshots.items())],
            dict(manager._by_direction),
            set(manager._stateless),
        ))
        return captured

    ft.checkpoint_replica = checkpoint_replica
    outputs = [cluster.process(packet.clone()) for packet in packets[:half]]
    cluster.churn_flows(flows // 4, seed=seed)
    replies = []
    for spec in specs[::3]:
        home = cluster.home_of(spec.five_tuple)
        if home in cluster.replicas:
            walk = list(flow_walk(list(cluster.replicas[home].runtime.nfs), spec.five_tuple))
            replies.extend(
                TrafficGenerator([FlowSpec(walk[-1], packets=2, payload=b"re")]).packets()
            )
    outputs += [cluster.process(packet.clone()) for packet in replies]
    outputs += [cluster.process(packet.clone()) for packet in packets[half:]]
    if ft.dead:
        ft.recover_all()
    assert ft.recoveries, "the kill must land"
    outputs += [out for report in ft.recoveries for out in report.outcomes]
    delivered = [
        None if out is None else (out.dropped, out.latency_ns, out.packet.serialize())
        for out in outputs
    ]
    return rounds, delivered


@pytest.mark.parametrize("pooled", [True, False])
@pytest.mark.parametrize("seed", [3, 19])
def test_every_round_files_what_the_reference_round_filed(seed, pooled, monkeypatch):
    ours = cluster_run(24, seed, pooled)
    if pooled:
        monkeypatch.setattr(checkpoint_module, "_read_nf_states", reference_read_nf_states)
    monkeypatch.setattr(CheckpointManager, "_file_refresh", CheckpointManager.store)
    reference = cluster_run(24, seed, pooled)
    ours_rounds, ours_delivered = ours
    reference_rounds, reference_delivered = reference
    assert len(ours_rounds) == len(reference_rounds) > 10
    for index, (mine, theirs) in enumerate(zip(ours_rounds, reference_rounds)):
        assert mine == theirs, f"round {index}"
    assert ours_delivered == reference_delivered


# -- 4. the generic row reads against the hand-written ones ------------------------
#
# Each NF below keeps its per-flow state as it did before its fields were
# declared, in a dict of its own, and moves it with its own hand-written
# hooks; everything else is the NF as it is.


class HandWrittenNAT(MazuNAT):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hand_mappings = {}

    def release_mapping(self, flow):
        mapping = self.hand_mappings.pop(flow, None)
        if mapping is None:
            return False
        ext_ip, ext_port = mapping
        self._unbind((ext_ip, ext_port, flow.protocol))
        if self.port_pool is not None:
            self.port_pool.release(flow)
        else:
            self._free_ports.add(ext_port)
        return True

    def _outbound_action(self, flow):
        mapping = self.hand_mappings.get(flow)
        if mapping is None:
            port = self.port_pool.acquire(flow) if self.port_pool is not None else self.allocate_port()
            mapping = self.hand_mappings[flow] = (self.external_ip, port)
            self._bind((mapping[0], mapping[1], flow.protocol), flow)
        return Modify.set(src_ip=mapping[0], src_port=mapping[1])

    def flow_through(self, flow):
        mapping = self.hand_mappings.get(flow)
        if mapping is not None:
            return flow._replace(src_ip=mapping[0], src_port=mapping[1])
        internal = self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))
        if internal is not None:
            return flow._replace(dst_ip=internal.src_ip, dst_port=internal.src_port)
        return flow

    def _mapping_key(self, flow):
        if flow in self.hand_mappings:
            return flow
        return self.reverse.get((flow.dst_ip, flow.dst_port, flow.protocol))

    def export_flow_state(self, flow):
        internal = self._mapping_key(flow)
        if internal is None:
            return None
        ext_ip, ext_port = self.hand_mappings.pop(internal)
        self._unbind((ext_ip, ext_port, internal.protocol))
        return (internal, ext_ip, ext_port)

    def import_flow_state(self, flow, state):
        internal, ext_ip, ext_port = state
        self.hand_mappings[internal] = (ext_ip, ext_port)
        self._bind((ext_ip, ext_port, internal.protocol), internal)
        self._free_ports.discard(ext_port)

    def peek_flow_state(self, flow):
        internal = self._mapping_key(flow)
        if internal is None:
            return flow, None
        return internal, (internal, *self.hand_mappings[internal])

    def state_snapshot(self, flow):
        internal = self._mapping_key(flow)
        if internal is None:
            return None
        return (internal, self.hand_mappings[internal])


class HandWrittenMonitor(Monitor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hand_counters = {}

    def count_packet(self, packet):
        self.meter.charge(Operation.EXACT_MATCH_LOOKUP)
        self.meter.charge(Operation.COUNTER_UPDATE)
        key = packet.five_tuple()
        counters = self.hand_counters.setdefault(key, [0, 0])
        counters[0] += 1
        size = packet.byte_length()
        counters[1] += size
        if self.aggregate is not None:
            self.aggregate.add((key, counters[0]), packets=1, bytes_=size)

    def export_flow_state(self, flow):
        counters = self.hand_counters.pop(flow, None)
        return None if counters is None else tuple(counters)

    def import_flow_state(self, flow, state):
        counters = self.hand_counters.setdefault(flow, [0, 0])
        counters[0] += state[0]
        counters[1] += state[1]

    def peek_flow_state(self, flow):
        counters = self.hand_counters.get(flow)
        return flow, None if counters is None else tuple(counters)

    def state_snapshot(self, flow):
        return self.peek_flow_state(flow)[1]


class HandWrittenIPFilter(IPFilter):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hand_verdicts = {}

    def lookup_verdict(self, flow):
        verdict = self.hand_verdicts.get(flow)
        if verdict is None:
            verdict, scanned = super().lookup_verdict(flow)
            self.hand_verdicts[flow] = verdict
            return verdict, scanned
        return verdict, 0

    def handle_flow_close(self, packet):
        super().handle_flow_close(packet)
        self.hand_verdicts.pop(packet.five_tuple(), None)

    def export_flow_state(self, flow):
        return self.hand_verdicts.pop(flow, None)

    def import_flow_state(self, flow, state):
        self.hand_verdicts[flow] = state

    def peek_flow_state(self, flow):
        return flow, self.hand_verdicts.get(flow)

    def state_snapshot(self, flow):
        return self.hand_verdicts.get(flow)


class HandWrittenMaglev(MaglevLoadBalancer):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hand_conntrack = {}

    @property
    def conntrack(self):
        return dict(self.hand_conntrack)

    def tracked(self, flow):
        return self.hand_conntrack.get(flow)

    def select_backend(self, flow):
        backend = self.hand_conntrack.get(flow)
        if backend is not None and backend.healthy:
            return backend
        selected = self.table.lookup(flow)
        if backend is not None and not backend.healthy:
            self.reroutes += 1
        self.hand_conntrack[flow] = selected
        return selected

    def backend_failed(self, flow):
        backend = self.hand_conntrack.get(flow)
        return backend is not None and not backend.healthy

    def handle_flow_close(self, packet):
        self.hand_conntrack.pop(packet.five_tuple(), None)

    def export_flow_state(self, flow):
        backend = self.hand_conntrack.pop(flow, None)
        return None if backend is None else backend.name

    def import_flow_state(self, flow, state):
        self.hand_conntrack[flow] = self.backend_by_name(state)

    def peek_flow_state(self, flow):
        backend = self.hand_conntrack.get(flow)
        return flow, None if backend is None else backend.name

    def state_snapshot(self, flow):
        backend = self.hand_conntrack.get(flow)
        return None if backend is None else (backend.name, backend.healthy)


def pair_chains(pooled: bool):
    """The same NAT → Maglev → Monitor → IPFilter chain twice: with
    declared fields, and with the hand-written hooks (NATs on one shared
    port pool each, when ``pooled``)."""
    def chain(nat, maglev, monitor, ipfilter):
        pool = SharedPortPool(TransactionalStore(), port_range=PORTS) if pooled else None
        backends = [Backend.make(f"b{i}", f"192.168.7.{i + 1}", 8080) for i in range(3)]
        return [
            nat("nat", external_ip="203.0.113.80", port_range=PORTS, port_pool=pool),
            maglev("lb", backends=backends, table_size=131),
            monitor("mon"),
            ipfilter("fw", rules=[AclRule.make(dst_ports=(81, 81))]),
        ]

    return (
        lambda: chain(MazuNAT, MaglevLoadBalancer, Monitor, IPFilter),
        lambda: chain(HandWrittenNAT, HandWrittenMaglev, HandWrittenMonitor, HandWrittenIPFilter),
    )


def drive_chain(factory, case) -> SpeedyBox:
    """One runtime over ``factory``'s chain through the case's traffic,
    as :func:`drive` runs it."""
    specs, replies, fins, seed, fail_at = case
    runtime = SpeedyBox(factory())
    sent = 0

    def send(packets):
        nonlocal sent
        for packet in packets:
            if sent == fail_at:
                fail_a_backend(runtime)
            runtime.process(packet.clone())
            sent += 1

    send(TrafficGenerator(specs, interleave="shuffled", seed=seed).packets())
    for spec, count in zip(specs, replies):
        if count:
            directions = list(flow_walk(list(runtime.nfs), spec.five_tuple))
            send(TrafficGenerator([FlowSpec(directions[-1], packets=count, payload=b"re")]).packets())
    for spec, fin in zip(specs, fins):
        if fin:
            send(TrafficGenerator([FlowSpec(spec.five_tuple, packets=1, fin=True)]).packets()[-1:])
    return runtime


@st.composite
def chain_cases(draw):
    """(outbound specs, return packets, FINs, seed, packet index to fail
    a backend at); every other flow is dropped by the firewall."""
    specs, replies, fins = [], [], []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        specs.append(FlowSpec.tcp(
            f"10.5.{i}.7", "99.3.0.1", 4000 + i, 80 + i % 2,
            packets=draw(st.integers(min_value=1, max_value=6)),
            handshake=draw(st.booleans()),
        ))
        replies.append(draw(st.integers(min_value=0, max_value=3)))
        fins.append(draw(st.booleans()))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    fail_at = draw(st.none() | st.integers(min_value=0, max_value=20))
    return specs, replies, fins, seed, fail_at


def snapshot_as_before(nf, hand_written):
    """The hand-written snapshot, as the generic one reads it."""
    if hand_written is None:
        return None
    if isinstance(nf, MazuNAT):
        internal, (ext_ip, ext_port) = hand_written
        return (internal, ext_ip, ext_port)
    if isinstance(nf, MaglevLoadBalancer):
        name, healthy = hand_written
        assert healthy == nf.backend_by_name(name).healthy
        return name
    return hand_written


@pytest.mark.parametrize("pooled", [True, False])
@settings(max_examples=80, deadline=None)
@given(case=chain_cases())
def test_the_generic_row_reads_equal_the_hand_written_ones(pooled, case):
    declared, hand_written = pair_chains(pooled)
    ours, theirs = drive_chain(declared, case), drive_chain(hand_written, case)
    specs = case[0]
    flows = [spec.five_tuple for spec in specs]
    for flow in flows:
        walked = observed_keys(list(ours.nfs), flow)
        assert [key for __, key in walked] == [key for __, key in observed_keys(list(theirs.nfs), flow)]
        for (nf, key), (twin, __) in zip(walked, observed_keys(list(theirs.nfs), flow)):
            assert nf.peek_flow_state(key) == twin.peek_flow_state(key), (nf.name, key)
            assert nf.state_snapshot(key) == snapshot_as_before(nf, twin.state_snapshot(key))
        assert checkpoint_module._read_nf_states(walked) == checkpoint_module._read_nf_states(
            observed_keys(list(theirs.nfs), flow)
        )
    # Export moves the same values out, flow by flow, and an import puts
    # them back where the hand-written import put them.
    for flow in flows:
        walked = observed_keys(list(ours.nfs), flow)
        exported = [(nf, key, nf.export_flow_state(key)) for nf, key in walked]
        theirs_exported = [
            (nf, key, nf.export_flow_state(key)) for nf, key in observed_keys(list(theirs.nfs), flow)
        ]
        assert [state for __, __, state in exported] == [state for __, __, state in theirs_exported]
        for moved in (exported, theirs_exported):
            for nf, key, state in moved:
                if state is not None:
                    nf.import_flow_state(key, state)
        for (nf, key), (twin, __) in zip(walked, observed_keys(list(theirs.nfs), flow)):
            assert nf.peek_flow_state(key) == twin.peek_flow_state(key), (nf.name, key)
