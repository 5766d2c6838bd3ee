"""Property tests: a refreshed checkpoint equals a full capture.

:class:`~repro.ft.checkpoint.CheckpointManager` captures a flow in full
once (:func:`~repro.ft.checkpoint.capture_flow`, the oracle) and then,
round after round, *refreshes* its standing snapshot: it checks that the
flow's table rows are still the ones the tables hold and reads only
their counters and the NF states.  Over the chains of
``test_flow_record_copy.py`` — NAT + monitor + firewall, the VPN pair, a
drop rule with ``pre_drop``, the DoS one-shot and Maglev's recurring
event, and Snort — driven through a cluster over many rounds, this file
checks that after every round (table bounds and a failing backend
drawn too)

1. each checkpoint the round stored has the ``record_view``,
   ``alias_signature`` and ``nf_states`` of a fresh ``capture_flow`` at
   that point, and every homed key none of them covers has nothing to
   capture;
2. a rerouted flow, an evicted rule, a FIN, a rule rebuilt without new
   recordings, an event registered outside a recording pass, a
   handshake pass, a flow whose rows were evicted again and a re-opened
   tuple are captured in full (the stored walk and rows are not reused);
3. a checkpoint handed out earlier never changes, and a refreshed one
   pickles as plain data and restores like a full one.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

import repro.ft.checkpoint as checkpoint_module
from repro.core.actions import Forward
from repro.core.event_table import Event
from repro.core.framework import SpeedyBox
from repro.core.state_function import PayloadClass
from repro.ft import FaultTolerance, capture_flow, restore_flow
from repro.nf import IPFilter, MaglevLoadBalancer, Monitor
from repro.nf.base import NetworkFunction
from repro.scale import ScaleCluster, chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator
from tests.property.test_checkpoint_pickle import code_and_nfs, continue_run
from tests.property.test_flow_record_copy import (
    CHAINS,
    alias_signature,
    event_chain,
    fail_a_backend,
    nat_chain,
    record_view,
)


def checkpoint_view(checkpoint):
    """Everything a checkpoint holds, by value."""
    return (
        checkpoint.flow,
        checkpoint.replica_id,
        checkpoint.log_seq,
        checkpoint.chain,
        checkpoint.directions,
        [record_view(record) for record in checkpoint.records],
        [alias_signature(record) for record in checkpoint.records],
        checkpoint.nf_states,
    )


def refreshed(checkpoint, earlier) -> bool:
    """``checkpoint`` was refreshed from ``earlier``'s standing snapshot."""
    return checkpoint._standing is not None and checkpoint._standing is earlier._standing


class Bench:
    """Replica 0 of a cluster under a checkpoint manager; rounds taken
    by hand."""

    def __init__(self, chain_factory, replicas=1, **speedybox_kwargs):
        self.cluster = ScaleCluster(
            chain_factory, replicas=replicas, speedybox_kwargs=speedybox_kwargs
        )
        self.ft = FaultTolerance(self.cluster, checkpoint_interval=10**9)
        self.manager = self.ft.checkpoints
        self.runtime = self.cluster.replicas[0].runtime
        #: the checkpoints the last round stored, refreshed or captured
        self.taken = []
        real_capture = self.manager._capture

        def capture(*args):
            filed = real_capture(*args)
            if filed is not None:
                self.taken.append(checkpoint_module._checkpoint_of(filed))
            return filed

        self.manager._capture = capture
        real_file = self.manager._file_refresh

        def file_refresh(standing):
            # Filed in place, a refresh meets no key a round filed as
            # stateless: each key maps to the flow only through ``store``,
            # which clears it, and a round that files it stateless first
            # drops the flow's snapshot and unmaps its directions.
            manager, keys = self.manager, standing.keys
            if all(manager._by_direction.get(key) == standing.flow for key in keys):
                assert not manager._stateless.intersection(keys), standing.flow
            return real_file(standing)

        self.manager._file_refresh = file_refresh

    def send(self, packets) -> list:
        return [self.cluster.process(packet.clone()) for packet in packets]

    def round(self) -> None:
        self.take_round()
        self.assert_matches_full_capture()

    def take_round(self) -> None:
        self.taken = []
        self.ft.checkpoint_replica(0, cause="manual")

    def stored(self, flow):
        return self.manager.snapshot_for(flow)

    def assert_matches_full_capture(self) -> None:
        """Each checkpoint the round stored equals a fresh capture, and
        each homed key none of them covers has nothing to capture."""
        covered = set()
        for checkpoint in self.taken:
            fresh = capture_flow(
                self.runtime, checkpoint.flow, replica_id=0, log_seq=checkpoint.log_seq
            )
            assert fresh is not None, checkpoint.flow
            assert checkpoint_view(checkpoint) == checkpoint_view(fresh)
            covered.update(direction.canonical() for direction in checkpoint.directions)
        for key in self.cluster.flows_homed_on(0):
            if key not in covered:
                assert capture_flow(self.runtime, key) is None, key


# -- the property ---------------------------------------------------------------


@st.composite
def runs(draw):
    """(chain, table bounds, packets, round interval, packet index to
    fail a backend at)."""
    chain = draw(st.sampled_from(sorted(CHAINS)))
    bounds = draw(st.sampled_from([{}, {"max_flows": 2}, {"max_tracked_flows": 3}]))
    specs = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        spec = FlowSpec.tcp(
            f"10.5.{i}.7",
            "99.3.0.1",
            4000 + i,
            80,
            packets=draw(st.integers(min_value=3, max_value=12)),
            payload=draw(st.sampled_from([b"hello", b"an exploit here", b"NMAP scan"])),
            handshake=draw(st.booleans()),
            fin=draw(st.booleans()),
        )
        specs.append(spec)
        if draw(st.booleans()):  # the peer talks back on the raw reverse tuple
            specs.append(FlowSpec(spec.five_tuple.reversed(), packets=3, payload=b"re"))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    interleave = draw(st.sampled_from(["round_robin", "shuffled"]))
    packets = TrafficGenerator(specs, interleave=interleave, seed=seed).packets()
    interval = draw(st.integers(min_value=1, max_value=6))
    fail_at = draw(st.none() | st.integers(min_value=0, max_value=len(packets) - 1))
    return chain, bounds, packets, interval, fail_at


@settings(max_examples=60, deadline=None)
@given(run=runs())
def test_every_round_equals_a_full_capture(run):
    chain, bounds, packets, interval, fail_at = run
    bench = Bench(CHAINS[chain], **bounds)
    for index, packet in enumerate(packets):
        if index == fail_at:
            fail_a_backend(bench.runtime)
        bench.send([packet])
        if (index + 1) % interval == 0:
            bench.round()
    bench.round()
    bench.round()


def test_an_established_flow_is_refreshed_round_after_round():
    """The cheap path is taken: an unchanged flow's next checkpoints
    share its standing snapshot and materialize only when read."""
    bench = Bench(nat_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=9, handshake=True)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:3])
    bench.round()
    first = bench.stored(spec.five_tuple)
    for step in range(3, 9, 2):
        bench.send(packets[step : step + 2])
        bench.take_round()
        checkpoint = bench.stored(spec.five_tuple)
        assert refreshed(checkpoint, first)
        assert checkpoint._records is None  # nothing read it yet
        bench.assert_matches_full_capture()


# -- what must be captured in full ------------------------------------------------


def test_a_rerouted_flow_is_captured_in_full():
    """A Maglev backend fails between two rounds and the flow's next
    packet reroutes it: the flow's return direction is another tuple
    now, so the stored walk must not be reused."""
    bench = Bench(event_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=4)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    bench.round()
    before = bench.stored(spec.five_tuple)
    fail_a_backend(bench.runtime)
    bench.round()
    assert refreshed(bench.stored(spec.five_tuple), before)  # no packet yet

    bench.send(packets[2:3])
    bench.round()
    after = bench.stored(spec.five_tuple)
    assert not refreshed(after, before)
    assert after.directions != before.directions
    assert after.records[0].global_rule.version == 2


def test_an_evicted_rule_is_captured_in_full():
    """A bounded Global MAT evicts the flow's rule between rounds (and
    the flow's Local MAT rows with it); the flow re-consolidates later."""
    bench = Bench(nat_chain, max_flows=1)
    first = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=6)
    other = FlowSpec.tcp("10.5.1.7", "99.3.0.1", 4001, 80, packets=2)
    packets, intruders = (TrafficGenerator([spec]).packets() for spec in (first, other))
    bench.send(packets[:2])
    bench.round()
    before = bench.stored(first.five_tuple)
    bench.send(intruders[:1])
    assert bench.runtime.global_mat.peek(before.records[0].fid) is None
    bench.round()
    evicted = bench.stored(first.five_tuple)
    assert not refreshed(evicted, before)
    assert evicted.records[0].global_rule is None and not evicted.records[0].local_rules
    bench.send(packets[2:4])
    bench.round()
    assert bench.stored(first.five_tuple).records[0].global_rule is not None


def test_a_flow_without_its_rule_is_captured_in_full():
    """Under a one-rule Global MAT two flows take turns evicting each
    other's rule.  The first flow's backend fails, its next packet runs
    the NFs (no rule) and reroutes, and the second flow's packet evicts
    the rows that pass recorded: the tables show the same rows as at the
    last round, but the flow's return tuple moved."""
    bench = Bench(event_chain, max_flows=1)
    first = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=4)
    other = FlowSpec.tcp("10.5.1.7", "99.3.0.1", 4001, 80, packets=4)
    packets, intruders = (TrafficGenerator([spec]).packets() for spec in (first, other))
    bench.send(packets[:1] + intruders[:1])
    bench.round()
    before = bench.stored(first.five_tuple)
    assert before.records[0].global_rule is None
    fail_a_backend(bench.runtime)
    bench.send(packets[1:2] + intruders[1:2])
    bench.round()
    after = bench.stored(first.five_tuple)
    assert after.records[0].global_rule is None
    assert after.directions != before.directions


def test_a_fin_between_rounds():
    """The FIN tears the flow's rows down: the next round finds only the
    monitor's counters, which stay behind the NAT rewrite."""
    bench = Bench(nat_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=5, fin=True)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:-1])
    bench.round()
    bench.round()
    bench.send(packets[-1:])
    bench.round()
    assert bench.stored(spec.five_tuple) is None
    assert len(bench.manager) == 1
    (checkpoint,) = bench.manager._snapshots.values()
    assert checkpoint.records == []
    assert [name for name, *__ in checkpoint.nf_states] == ["mon"]


class Toggle(NetworkFunction):
    """Forwards, counts, and watches a recurring event whose update only
    changes NF state: firing it rebuilds the flow's rule (version + 1)
    while every Local MAT row stays as it was."""

    def __init__(self, name: str = "tog"):
        super().__init__(name)
        self.armed = {}
        self.seen = {}
        self.flips = 0

    def count(self, packet, key) -> None:
        self.seen[key] = self.seen.get(key, 0) + 1

    def is_armed(self, key) -> bool:
        return self.armed.get(key, False)

    def disarm(self, key) -> None:
        self.armed[key] = False
        self.flips += 1

    def never(self, key) -> bool:
        return False

    def process(self, packet, api) -> None:
        self.ingress(packet)
        key = packet.five_tuple()
        fid = api.nf_extract_fid(packet)
        self.count(packet, key)
        api.add_header_action(fid, Forward())
        api.add_state_function(fid, self.count, PayloadClass.IGNORE, args=(key,), name="count")
        api.register_event(
            fid, self.is_armed, args=(key,), update_function_handler=self.disarm, one_shot=False
        )


def toggle_chain():
    return [Toggle(), Monitor("mon"), IPFilter("fw")]


def test_a_rule_rebuilt_without_new_recordings_is_captured_in_full():
    """An event whose update returns no action fires: the Global MAT
    rebuilds the rule from the very same Local MAT rows, so only the
    rule's version tells the round that the tables changed."""
    bench = Bench(toggle_chain)
    spec = FlowSpec.udp("10.5.0.7", "99.3.0.1", 4000, 53, packets=6)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    before = bench.stored(spec.five_tuple)
    (toggle,) = [nf for nf in bench.runtime.nfs if isinstance(nf, Toggle)]
    toggle.armed[spec.five_tuple] = True
    bench.send(packets[2:3])
    assert toggle.flips == 1
    bench.round()
    after = bench.stored(spec.five_tuple)
    assert not refreshed(after, before)
    assert after.records[0].global_rule.version == 2
    assert after.records[0].local_rules["tog"].header_actions == [Forward()]


def test_an_event_registered_outside_a_recording_pass_is_captured_in_full():
    """The Event Table holds its rows on its own: an event that joins a
    flow without the flow re-recording re-captures it."""
    bench = Bench(toggle_chain)
    spec = FlowSpec.udp("10.5.0.7", "99.3.0.1", 4000, 53, packets=4)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    before = bench.stored(spec.five_tuple)
    fid = before.records[0].fid
    (toggle,) = [nf for nf in bench.runtime.nfs if isinstance(nf, Toggle)]
    bench.runtime.event_table.register(
        Event(fid, "tog", toggle.never, args=(spec.five_tuple,), update_action=Forward())
    )
    bench.round()
    after = bench.stored(spec.five_tuple)
    assert not refreshed(after, before)
    assert len(after.records[0].events) == 2


def test_a_reopened_tuple_is_walked_again():
    """The flow closes, another flow takes its NAT port, and the tuple
    opens again behind a new port: the new connection's walk reaches
    other tuples than the stored one."""
    bench = Bench(nat_chain)
    first = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=4, handshake=True, fin=True)
    thief = FlowSpec.tcp("10.5.1.7", "99.3.0.1", 4001, 80, packets=3, handshake=True)
    again = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=3, handshake=True)
    closing, stealing, reopening = (
        TrafficGenerator([spec]).packets() for spec in (first, thief, again)
    )
    bench.send(closing[:-1])
    bench.round()
    bench.round()
    before = bench.stored(first.five_tuple)
    bench.send(closing[-1:] + stealing + reopening)
    bench.round()
    after = bench.stored(first.five_tuple)
    assert not refreshed(after, before)
    assert after.directions != before.directions
    bench.round()
    assert refreshed(bench.stored(first.five_tuple), after)


def test_a_handshake_pass_is_captured_in_full():
    """A SYN retransmitted after the flow's backend failed takes the
    original path without recording: Maglev re-selects, the tables keep
    every row, and only a full capture walks the new return tuple."""
    bench = Bench(event_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=2, handshake=True)
    syn = TrafficGenerator([spec]).packets()[0]
    bench.send([syn])
    bench.round()
    before = bench.stored(spec.five_tuple)
    assert before.records[0].global_rule is None
    fail_a_backend(bench.runtime)
    bench.send([syn])
    bench.round()
    after = bench.stored(spec.five_tuple)
    assert after.directions != before.directions


def homed_on(bench, replica, first_port, **spec_kwargs):
    """The first TCP flow from ``first_port`` on the sharder homes on
    ``replica``."""
    for port in range(first_port, first_port + 500):
        spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", port, 80, **spec_kwargs)
        if bench.cluster.sharder.replica_for(spec.five_tuple.canonical()) == replica:
            return spec
    raise AssertionError(f"no flow from port {first_port} homes on replica {replica}")


def colliding_nats():
    """Two replicas whose NATs each hand out port 30000 first: ``flow``
    takes it on replica 0 and ``peer`` on replica 1, and ``closing``
    (replica 0, its next port) has every packet but its FIN sent.  Both
    replicas are checkpointed; ``before`` is ``flow``'s refreshed
    checkpoint."""
    bench = Bench(nat_chain, replicas=2)
    flow = homed_on(bench, 0, 4000, packets=3)
    peer = homed_on(bench, 1, 5000, packets=3)
    closing = homed_on(bench, 0, 6000, packets=3, fin=True)
    flow_packets, peer_packets, closing_packets = (
        TrafficGenerator([spec]).packets() for spec in (flow, peer, closing)
    )
    bench.send(flow_packets + peer_packets + closing_packets[:-1])
    bench.round()
    bench.round()
    bench.ft.checkpoint_replica(1)
    before = bench.stored(flow.five_tuple)
    return bench, flow, peer, closing_packets[-1:], before


def assert_walked_again(bench, flow, peer, before) -> None:
    """The round took ``flow``'s checkpoint from a new walk, which
    reaches ``peer``.  (Checked on the checkpoint as the round took it:
    ``peer``'s capture later in the round may index ``flow``'s
    directions to itself.)"""
    (taken,) = [c for c in bench.taken if c.flow == flow.five_tuple.canonical()]
    assert not refreshed(taken, before)
    assert peer.five_tuple in taken.directions


def test_a_migration_in_beside_a_fast_path_fin_is_walked_again():
    """``peer`` migrates onto replica 0 and takes over port 30000's
    reverse mapping, which ``flow``'s return direction reads, while a
    FIN on the fast path tears ``closing`` down: the classifier holds as
    many flows as before and no packet took the original path, but
    ``flow``'s walk reaches ``peer`` now."""
    bench, flow, peer, fin, before = colliding_nats()
    tracked, slow = len(bench.runtime.classifier), bench.runtime.slow_packets
    bench.cluster.migrate_flow(peer.five_tuple, 0)
    bench.send(fin)
    assert (len(bench.runtime.classifier), bench.runtime.slow_packets) == (tracked, slow)
    bench.round()
    assert_walked_again(bench, flow, peer, before)


def test_a_restore_beside_a_fast_path_fin_is_walked_again():
    """As above, with ``peer`` restored onto replica 0 when replica 1
    fails: the round after the recovery walks ``flow`` again."""
    bench, flow, peer, fin, before = colliding_nats()
    tracked, slow = len(bench.runtime.classifier), bench.runtime.slow_packets
    bench.send(fin)
    bench.ft.kill(1)
    bench.taken = []
    assert bench.ft.recover(1).flows_restored == 1
    assert (len(bench.runtime.classifier), bench.runtime.slow_packets) == (tracked, slow)
    bench.assert_matches_full_capture()
    assert_walked_again(bench, flow, peer, before)


# -- handed-out checkpoints -------------------------------------------------------


def test_a_checkpoint_handed_out_earlier_never_changes():
    """One refreshed checkpoint is read at once, another only after more
    traffic and rounds: both show the flow as it was at their round."""
    bench = Bench(event_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=12)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    bench.send(packets[2:4])
    bench.take_round()
    read_now = bench.stored(spec.five_tuple)
    read_now_view = checkpoint_view(read_now)
    bench.send(packets[4:5])
    bench.take_round()
    read_later = bench.stored(spec.five_tuple)
    assert refreshed(read_later, read_now)
    expected = checkpoint_view(
        capture_flow(bench.runtime, spec.five_tuple, replica_id=0, log_seq=read_later.log_seq)
    )

    fail_a_backend(bench.runtime)  # a reroute, then the DoS one-shot fires
    for step in range(5, 12, 3):
        bench.send(packets[step : step + 3])
        bench.round()
    assert bench.stored(spec.five_tuple).records[0].global_rule.version > 1

    assert checkpoint_view(read_now) == read_now_view
    assert read_later._records is None
    assert checkpoint_view(read_later) == expected


def test_a_refreshed_checkpoint_pickles_and_restores_like_a_full_one():
    bench = Bench(nat_chain)
    reference = SpeedyBox(nat_chain())
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=10)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    bench.send(packets[2:4])
    bench.take_round()
    continue_run(reference, packets[:4])
    checkpoint = bench.stored(spec.five_tuple)
    assert checkpoint._counters is not None  # a refresh
    full = capture_flow(bench.runtime, spec.five_tuple, replica_id=0, log_seq=checkpoint.log_seq)

    assert code_and_nfs(checkpoint) == []
    loaded = pickle.loads(pickle.dumps(checkpoint))
    assert checkpoint_view(loaded) == checkpoint_view(full)

    from_refresh, from_full = SpeedyBox(nat_chain()), SpeedyBox(nat_chain())
    restore_flow(loaded, from_refresh)
    restore_flow(full, from_full)
    flow = spec.five_tuple
    assert chain_state_snapshot(from_refresh.nfs, flow) == chain_state_snapshot(
        from_full.nfs, flow
    ) == chain_state_snapshot(reference.nfs, flow)
    expected = continue_run(reference, packets[4:])
    assert continue_run(from_refresh, packets[4:]) == expected
    assert continue_run(from_full, packets[4:]) == expected


# -- one structural change between two rounds ------------------------------------
#
# A round reads the runtime's table generation once and re-checks a flow's
# rows and walk only when it moved.  In each case below the one structural
# change between two rounds is made on the fast path or by another flow:
# the generation must move, the flow it hit is captured in full, and a
# flow it did not hit is still refreshed.


def two_flows(**spec_kwargs) -> list:
    """Two TCP flows' packets, one list each."""
    specs = [FlowSpec.tcp(f"10.5.{i}.7", "99.3.0.1", 4000 + i, 80, **spec_kwargs) for i in range(2)]
    return [TrafficGenerator([spec]).packets() for spec in specs]


def settle(bench, packets, upto) -> list:
    """Send each flow's first ``upto`` packets, take two rounds, and
    return each flow's refreshed checkpoint."""
    bench.send([packet for flow in packets for packet in flow[:upto]])
    bench.round()
    bench.round()
    return [bench.stored(flow[0].five_tuple()) for flow in packets]


def test_a_fast_path_event_is_a_new_generation():
    """A backend fails and the next packet of a flow it served, on the
    fast path, fires Maglev's event, which rebuilds that flow's rule."""
    bench = Bench(event_chain)
    packets = two_flows(packets=6)
    before = settle(bench, packets, 3)
    (lb,) = [nf for nf in bench.runtime.nfs if isinstance(nf, MaglevLoadBalancer)]
    backend = lb.tracked(packets[0][0].five_tuple())
    generation, slow = bench.runtime.generation, bench.runtime.slow_packets
    lb.fail_backend(backend.name)
    bench.send(packets[0][3:4])
    assert bench.runtime.slow_packets == slow
    assert bench.runtime.generation != generation
    bench.round()
    assert not refreshed(bench.stored(packets[0][0].five_tuple()), before[0])
    # the other flow sent nothing (its rule stands, even on the failed backend)
    assert refreshed(bench.stored(packets[1][0].five_tuple()), before[1])


def test_a_fast_path_fin_is_a_new_generation():
    bench = Bench(nat_chain)
    packets = two_flows(packets=5, fin=True)
    closing, spared = settle(bench, packets, 4)
    generation, slow = bench.runtime.generation, bench.runtime.slow_packets
    bench.send(packets[0][-1:])
    assert bench.runtime.slow_packets == slow
    assert bench.runtime.generation != generation
    bench.round()
    # the torn-down flow's counters are captured in full, under its
    # egress tuple (as in test_a_fin_between_rounds)
    assert bench.stored(packets[0][0].five_tuple()) is None
    assert not any(refreshed(checkpoint, closing) for checkpoint in bench.taken)
    assert refreshed(bench.stored(packets[1][0].five_tuple()), spared)


def test_an_admission_that_evicts_another_flow_is_a_new_generation():
    """A third flow's first packet fills a two-rule Global MAT: the least
    recently used flow's rule is evicted."""
    bench = Bench(nat_chain, max_flows=2)
    packets = two_flows(packets=4)
    evicted, spared = settle(bench, packets, 2)
    bench.send(packets[1][2:3])  # the second flow is now the most recent
    bench.round()
    spared = bench.stored(packets[1][0].five_tuple())
    newcomer = TrafficGenerator([FlowSpec.tcp("10.5.9.7", "99.3.0.1", 4009, 80, packets=2)]).packets()
    generation = bench.runtime.generation
    bench.send(newcomer[:1])
    assert bench.runtime.generation != generation
    assert bench.runtime.global_mat.peek(evicted.records[0].fid) is None
    bench.round()
    assert not refreshed(bench.stored(packets[0][0].five_tuple()), evicted)
    assert refreshed(bench.stored(packets[1][0].five_tuple()), spared)


# -- a refreshed checkpoint is built when read --------------------------------------


def test_a_steady_round_builds_no_checkpoint_until_one_is_read(monkeypatch):
    cluster = ScaleCluster(nat_chain, replicas=1)
    ft = FaultTolerance(cluster, checkpoint_interval=10**9)
    reference = SpeedyBox(nat_chain())
    specs = [FlowSpec.tcp(f"10.5.{i}.7", "99.3.0.1", 4000 + i, 80, packets=8) for i in range(8)]
    packets = TrafficGenerator(specs, interleave="round_robin").packets()
    head = packets[: 4 * len(specs)]
    for packet in head:
        cluster.process(packet.clone())
    continue_run(reference, head)
    ft.checkpoint_replica(0)
    ft.checkpoint_replica(0)

    built = []
    real_init = checkpoint_module.FlowCheckpoint.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(checkpoint_module.FlowCheckpoint, "__init__", counted_init)
    assert ft.checkpoint_replica(0) == len(specs)
    assert built == []

    runtime = cluster.replicas[0].runtime
    flow = specs[3].five_tuple
    checkpoint = ft.checkpoints.snapshot_for(flow)
    assert built == [flow.canonical()]
    assert ft.checkpoints.snapshot_for(flow) is checkpoint
    assert checkpoint._records is None
    full = capture_flow(runtime, flow, replica_id=0, log_seq=checkpoint.log_seq)
    assert checkpoint_view(checkpoint) == checkpoint_view(full)

    assert code_and_nfs(checkpoint) == []
    loaded = pickle.loads(pickle.dumps(checkpoint))
    assert checkpoint_view(loaded) == checkpoint_view(full)
    from_refresh, from_full = SpeedyBox(nat_chain()), SpeedyBox(nat_chain())
    restore_flow(loaded, from_refresh)
    restore_flow(full, from_full)
    rest = [packet for packet in packets[4 * len(specs):] if packet.five_tuple() == flow]
    expected = continue_run(reference, rest)
    assert continue_run(from_refresh, rest) == expected
    assert continue_run(from_full, rest) == expected


# -- one case per capture cause -----------------------------------------------------
#
# A round captures a flow when it has no standing snapshot here (its first
# capture, or a restore the round could not adopt), when its rows moved
# under a walk that still stands, when its walk moved, and it finds
# nothing when a FIN left no state.  A restored flow is filed from the
# records it installed.  Whatever the cause, the filed checkpoint is the
# one a fresh capture takes, down to its pickled bytes.


def assert_filed_as_fresh(bench, flow, runtime=None, replica_id=0):
    filed = bench.stored(flow)
    fresh = capture_flow(
        runtime or bench.runtime, flow, replica_id=replica_id, log_seq=filed.log_seq
    )
    assert checkpoint_view(filed) == checkpoint_view(fresh)
    assert pickle.dumps(filed) == pickle.dumps(fresh)


def spy_captures(bench, monkeypatch) -> list:
    """Each capture a round makes: (flow, the walk it was handed or
    ``None``, whether it was handed the NF state places)."""
    calls = []
    real = checkpoint_module.capture_flow

    def capture(runtime, flow, replica_id=0, log_seq=0, walk=None, items=None):
        calls.append((flow.canonical(), walk, items is not None))
        return real(runtime, flow, replica_id, log_seq, walk, items)

    monkeypatch.setattr(checkpoint_module, "capture_flow", capture)
    return calls


def test_a_first_capture_is_filed_as_a_fresh_one(monkeypatch):
    bench = Bench(nat_chain)
    calls = spy_captures(bench, monkeypatch)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=3, handshake=True)
    bench.send(TrafficGenerator([spec]).packets()[:2])
    bench.round()
    assert calls == [(spec.five_tuple.canonical(), None, False)]
    assert_filed_as_fresh(bench, spec.five_tuple)


def test_rows_that_moved_under_a_standing_walk_are_captured_from_it(monkeypatch):
    """A Toggle event rebuilds the forward direction's rule; the walk
    stands, and the capture that follows is handed the re-check's."""
    bench = Bench(toggle_chain)
    spec = FlowSpec.udp("10.5.0.7", "99.3.0.1", 4000, 53, packets=4)
    reply = FlowSpec(spec.five_tuple.reversed(), packets=2, payload=b"re")
    forward, backward = (TrafficGenerator([one]).packets() for one in (spec, reply))
    bench.send(forward[:2] + backward)
    bench.round()
    before = bench.stored(spec.five_tuple)
    (toggle,) = [nf for nf in bench.runtime.nfs if isinstance(nf, Toggle)]
    toggle.armed[spec.five_tuple] = True
    calls = spy_captures(bench, monkeypatch)
    bench.send(forward[2:3])
    bench.round()
    ((flow, walk, __),) = calls
    assert walk == before._standing.walk
    after = bench.stored(spec.five_tuple)
    assert not refreshed(after, before)
    assert after.records[0].global_rule.version == 2
    assert_filed_as_fresh(bench, spec.five_tuple)


def test_a_walk_that_moved_is_captured_from_the_new_walk(monkeypatch):
    bench = Bench(event_chain)
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=4)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:2])
    bench.round()
    before = bench.stored(spec.five_tuple)
    fail_a_backend(bench.runtime)
    calls = spy_captures(bench, monkeypatch)
    bench.send(packets[2:3])
    bench.round()
    ((walk, placed),) = [(walk, placed) for flow, walk, placed in calls if flow == before.flow]
    assert walk is not None and walk != before._standing.walk and not placed
    assert bench.stored(spec.five_tuple).directions != before.directions
    assert_filed_as_fresh(bench, spec.five_tuple)


def test_a_restored_flow_is_filed_from_the_records_it_installed(monkeypatch):
    """The round after a recovery re-checks the adopted flow: no capture
    walks or copies it again, and what it files is a fresh capture's."""
    bench = Bench(nat_chain, replicas=2)
    spec = homed_on(bench, 1, 4000, packets=4)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:3])
    bench.ft.checkpoint_replica(1)
    bench.ft.kill(1)
    calls = spy_captures(bench, monkeypatch)
    assert bench.ft.recover(1).flows_restored == 1
    assert all(flow != spec.five_tuple.canonical() for flow, __, ___ in calls)
    stored = bench.stored(spec.five_tuple)
    assert stored.replica_id == 0 and stored._counters is not None  # a refresh
    assert_filed_as_fresh(bench, spec.five_tuple)


def test_a_fin_that_leaves_no_state_files_nothing(monkeypatch):
    """The firewall forgets a connection's verdict at its FIN, and the
    classifier the connection."""
    bench = Bench(lambda: [IPFilter("fw")])
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=3, fin=True)
    packets = TrafficGenerator([spec]).packets()
    bench.send(packets[:-1])
    bench.round()
    calls = spy_captures(bench, monkeypatch)
    bench.send(packets[-1:])
    bench.round()
    assert [(flow, walk is not None) for flow, walk, __ in calls] == [
        (spec.five_tuple.canonical(), True)
    ]
    assert bench.stored(spec.five_tuple) is None
    assert capture_flow(bench.runtime, spec.five_tuple) is None


#: ``cluster_ft``'s captures and re-checks by cause, at a quarter of its size
PINNED_CAUSES = {"first": 45, "nothing left": 13, "stands": 11, "rows moved": 0, "walk moved": 13}


def test_cluster_ft_pays_only_for_what_changed(monkeypatch):
    """``cluster_ft``'s shape at a quarter of its size: 32 connections
    over four ONVM replicas behind one NAT port pool, one replica killed
    half way and recovered an eighth later, 32-packet rounds.  The
    captures by cause and the rounds that re-read nothing are pinned: a
    change that re-reads standing flows moves them."""
    from repro.ft import FaultInjector
    from tests.integration.test_ft_stateless_keys import chain_factory

    specs = [
        FlowSpec.tcp(f"10.3.0.{index + 1}", f"99.2.0.{index + 1}", 6000 + index, 80,
                     packets=14, handshake=True, fin=True)
        for index in range(32)
    ]
    packets = TrafficGenerator(specs, interleave="round_robin", seed=2019).packets()
    cluster = ScaleCluster(chain_factory(), platform="onvm", replicas=4)
    ft = FaultTolerance(
        cluster, checkpoint_interval=32,
        injector=FaultInjector(kill_at=len(packets) // 2, recover_after=len(packets) // 8),
    )
    causes = dict.fromkeys(("first", "nothing left", "stands", "rows moved", "walk moved"), 0)
    real_capture, real_recheck = checkpoint_module.capture_flow, checkpoint_module._recheck

    def capture(runtime, flow, replica_id=0, log_seq=0, walk=None, items=None):
        found = real_capture(runtime, flow, replica_id, log_seq, walk, items)
        if found is None:
            causes["nothing left"] += 1
        elif walk is None:
            causes["first"] += 1
        return found

    def recheck(standing, runtime, walk_again=True):
        found = real_recheck(standing, runtime, walk_again)
        if found is None:
            causes["stands"] += 1
        else:
            same = list(found[0].items()) == list(standing.walk.items())
            causes["rows moved" if same else "walk moved"] += 1
        return found

    monkeypatch.setattr(checkpoint_module, "capture_flow", capture)
    monkeypatch.setattr(checkpoint_module, "_recheck", recheck)
    cluster.run_load(packets)
    assert ft.recoveries and ft.recoveries[0].flows_restored > 0
    assert causes == PINNED_CAUSES
