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
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor
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
    """Every NF's per-flow state, in each container's order (with the
    identity of the objects a container holds, when asked)."""
    view = []
    for nf in nfs:
        if isinstance(nf, MazuNAT):
            view.append((
                list(nf.mappings.items()),
                list(nf.reverse.items()),
                list(nf._port_uses.items()),
                list(nf._free_ports),
                nf._next_port,
            ))
        elif isinstance(nf, Monitor):
            view.append([
                (key, id(c) if identity else None, c.packets, c.bytes)
                for key, c in nf.counters.items()
            ])
        elif isinstance(nf, IPFilter):
            view.append(list(nf._verdict_cache.items()))
        elif isinstance(nf, MaglevLoadBalancer):
            view.append([
                (key, backend.name, id(backend) if identity else None)
                for key, backend in nf.conntrack.items()
            ])
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
