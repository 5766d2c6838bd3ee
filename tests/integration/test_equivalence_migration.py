"""§VII-C equivalence across mid-life flow migrations.

The migration variant of the paper's methodology: the same packet stream
through one SpeedyBox runtime and through a sharded cluster that
migrates a flow between replicas mid-life.  The migration must be
invisible — byte-identical outputs, identical drop decisions, identical
NF state and runtime counters, zero packet loss while frozen.
"""

from repro.core import verify_equivalence_migration
from repro.core.classifier import fid_of
from repro.core.framework import SpeedyBox
from repro.core.verification import MigrationVerificationReport
from repro.net.addresses import ip_to_str
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor
from repro.nf.maglev import Backend
from repro.scale import FlowMigrator, chain_state_snapshot
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import FID23_PAIR

EXTERNAL_IP = "203.0.113.9"


def build_chain():
    backends = [Backend.make(f"b{i}", f"192.168.77.{i + 1}", 8080) for i in range(4)]
    return [
        MazuNAT("nat", external_ip=EXTERNAL_IP, port_range=(20000, 60000)),
        MaglevLoadBalancer("lb", backends=backends, table_size=251),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def midlife_trace(flows=10, packets_per_flow=12, seed=7):
    """Interleaved long-lived TCP flows: handshakes, no FINs (the flows
    must still be alive at the migration point)."""
    specs = [
        FlowSpec.tcp(
            f"10.1.{i}.2",
            f"99.0.0.{i + 1}",
            4000 + i,
            80,
            packets=packets_per_flow,
            payload=b"data-%d" % i,
            handshake=True,
        )
        for i in range(flows)
    ]
    return TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()


class TestMigrationEquivalence:
    def test_midlife_migration_is_invisible(self):
        packets = midlife_trace()
        report = verify_equivalence_migration(
            build_chain, packets, migrate_at=len(packets) // 2
        )
        assert isinstance(report, MigrationVerificationReport)
        assert report.equivalent, report.summary()
        # The migration actually moved the flow's state (tables + NF state).
        assert report.migration is not None
        assert report.migration.fids
        assert report.migration.nf_states_moved > 0
        assert report.migration.local_rules_moved > 0
        assert report.migration.global_rules_moved == len(report.migration.fids)
        # Maglev registers a per-flow health event; it must travel too.
        assert report.migration.events_moved >= 1
        assert report.migration.handlers_rebound >= 1

    def test_freeze_window_buffers_without_loss(self):
        packets = midlife_trace()
        migrate_at = len(packets) // 3
        report = verify_equivalence_migration(
            build_chain, packets, migrate_at=migrate_at, freeze_for=25
        )
        assert report.equivalent, report.summary()
        # Several of the frozen flow's packets arrived during the freeze;
        # every one was buffered, replayed and still byte-identical.
        assert report.buffered_packets > 0

    def test_migration_on_both_platform_models(self):
        packets = midlife_trace(flows=6, packets_per_flow=8)
        for platform in ("bess", "onvm"):
            report = verify_equivalence_migration(
                build_chain, packets, migrate_at=len(packets) // 2, platform=platform
            )
            assert report.equivalent, f"[{platform}] {report.summary()}"

    def test_every_flow_migrated_one_at_a_time(self):
        """Migrate a different flow in each run; all must stay equivalent."""
        packets = midlife_trace(flows=5, packets_per_flow=8)
        seen_flows = set()
        for index, packet in enumerate(packets):
            flow = packet.five_tuple()
            if flow in seen_flows or index < 10:
                continue
            seen_flows.add(flow)
            report = verify_equivalence_migration(
                build_chain, packets, migrate_at=index, flow=flow
            )
            assert report.equivalent, f"flow {flow}: {report.summary()}"


class TestBidirectionalMigration:
    """A NAT'd flow's return traffic arrives on the *translated* tuple —
    migration must move that wire direction too, and the cluster must
    keep routing it to the flow's new home."""

    @staticmethod
    def _chain():
        return [
            MazuNAT("nat", external_ip=EXTERNAL_IP, internal_prefix="10.0.0.0/8"),
            Monitor("mon"),
        ]

    def _mixed_stream(self):
        outbound_spec = FlowSpec.tcp(
            "10.0.0.5", "99.0.0.1", 3333, 80, packets=8, payload=b"req"
        )
        outbound = TrafficGenerator([outbound_spec]).packets()
        # Learn the NAT's deterministic external port from a probe run.
        probe = SpeedyBox(self._chain())
        probe_stream = [packet.clone() for packet in outbound]
        for packet in probe_stream:
            probe.process(packet)
        ext_port = probe_stream[0].l4.src_port
        inbound_spec = FlowSpec.tcp(
            "99.0.0.1", EXTERNAL_IP, 80, ext_port, packets=8, payload=b"resp"
        )
        inbound = TrafficGenerator([inbound_spec]).packets()
        # Interleave: 4 requests, then alternate replies and requests.
        mixed = outbound[:4]
        for out_pkt, in_pkt in zip(outbound[4:], inbound):
            mixed.extend([in_pkt, out_pkt])
        mixed.extend(inbound[len(outbound) - 4 :])
        return mixed

    def test_reverse_direction_survives_migration(self):
        packets = self._mixed_stream()
        report = verify_equivalence_migration(
            self._chain, packets, migrate_at=6, freeze_for=4
        )
        assert report.equivalent, report.summary()
        # Both wire directions' FIDs moved in the one migration.
        assert report.migration is not None
        assert len(report.migration.fids) == 2
        # The reference forwards everything — equivalence therefore means
        # the cluster translated replies correctly after the move too.
        reference = SpeedyBox(self._chain())
        for packet in [p.clone() for p in packets]:
            reference.process(packet)
            assert not packet.dropped
            if ip_to_str(packet.ip.dst_ip) != "99.0.0.1":
                assert ip_to_str(packet.ip.dst_ip) == "10.0.0.5"

    def test_translated_replies_are_still_correct_post_migration(self):
        packets = self._mixed_stream()
        report = verify_equivalence_migration(self._chain, packets, migrate_at=5)
        assert report.equivalent, report.summary()


class TestMigrationIntoAnOccupiedFid:
    """The destination already tracks a live flow on the migrant's home
    FID (the UDP pair whose hash is 23): the migrant is placed on the
    next free FID and its record re-keyed, whole."""

    @staticmethod
    def _chain():
        return [Monitor("mon"), IPFilter("fw")]

    @staticmethod
    def _packets(flow, count):
        return TrafficGenerator([FlowSpec(flow, packets=count, payload=b"x" * 14)]).packets()

    def test_the_migrant_is_rekeyed_and_the_resident_untouched(self):
        migrant, resident = FID23_PAIR
        assert fid_of(migrant) == fid_of(resident) == 23
        src, dst = SpeedyBox(self._chain()), SpeedyBox(self._chain())
        for packet in self._packets(migrant, 4):
            src.process(packet)
        for packet in self._packets(resident, 3):
            dst.process(packet)
        resident_rule = dst.global_mat.peek(23)
        resident_state = chain_state_snapshot(dst.nfs, resident)
        migrant_state = chain_state_snapshot(src.nfs, migrant)

        report = FlowMigrator().migrate(src, dst, migrant)

        assert report.fids == (24,)  # the FID the flow owns on dst, not src's 23
        assert (report.local_rules_moved, report.global_rules_moved) == (2, 1)
        assert len(src.classifier) == 0 and not src.global_mat.flows()
        assert dst.classifier.fid_for(resident) == 23
        assert dst.classifier.fid_for(migrant) == 24
        record = dst.peek_flow(24)
        assert record.classifier_entry.five_tuple == migrant
        assert {rule.fid for rule in record.local_rules.values()} == {24}
        assert record.global_rule.fid == 24
        # the resident: same rule object, same hits, same Monitor counters
        assert dst.global_mat.peek(23) is resident_rule and resident_rule.hits == 2
        assert chain_state_snapshot(dst.nfs, resident) == resident_state
        assert chain_state_snapshot(dst.nfs, migrant) == migrant_state
        assert chain_state_snapshot(src.nfs, migrant) == {}
        # and the migrant's next packets ride the moved rule
        reports = [dst.process(packet) for packet in self._packets(migrant, 3)]
        assert all(report.is_fast and report.fid == 24 for report in reports)
        assert dst.slow_packets == 1  # the resident's first packet, nothing since

    def test_the_pair_migrates_invisibly_in_either_order(self):
        specs = [FlowSpec(flow, packets=10, payload=b"pair") for flow in FID23_PAIR]
        specs += [
            FlowSpec.tcp("10.1.0.2", "99.0.0.9", 4000, 80, packets=10, payload=b"tcp", handshake=True)
        ]
        packets = TrafficGenerator(specs, interleave="round_robin").packets()
        # the first of the pair sits at home on the source, the second is
        # displaced there and placed afresh (at home) on the empty target
        for flow in FID23_PAIR:
            report = verify_equivalence_migration(
                self._chain, packets, migrate_at=len(packets) // 2, freeze_for=3, flow=flow
            )
            assert report.equivalent, report.summary()
            assert report.migration.fids == (23,)
            assert report.migration.global_rules_moved == 1
