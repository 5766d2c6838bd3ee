"""Property-based tests on the substrates: sim engine, packets, NAT, FIDs."""

from hypothesis import given, settings, strategies as st

from repro.core.classifier import fid_of
from repro.core.local_mat import NullInstrumentationAPI
from repro.net import FiveTuple, Packet
from repro.net.flow import PROTO_TCP, PROTO_UDP
from repro.nf.mazunat import MazuNAT
from repro.sim import Engine, Get, Put, Store, Timeout
from tests.integration.helpers import checksum_valid


def five_tuples():
    return st.builds(
        FiveTuple,
        src_ip=st.integers(0, 0xFFFFFFFF),
        dst_ip=st.integers(0, 0xFFFFFFFF),
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        protocol=st.sampled_from([PROTO_TCP, PROTO_UDP]),
    )


class TestSimProperties:
    @given(
        delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_clock_monotone(self, delays):
        engine = Engine()
        observed = []

        def proc():
            for delay in delays:
                yield Timeout(delay)
                observed.append(engine.now)

        engine.add_process(proc())
        engine.run()
        assert observed == sorted(observed)
        assert abs(observed[-1] - sum(delays)) < 1e-6

    @given(items=st.lists(st.integers(), min_size=1, max_size=30), capacity=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_store_preserves_fifo_under_any_capacity(self, items, capacity):
        engine = Engine()
        store = Store(engine, capacity=capacity)
        received = []

        def producer():
            for item in items:
                yield Put(store, item)

        def consumer():
            for __ in items:
                value = yield Get(store)
                received.append(value)
                yield Timeout(1.0)

        engine.add_process(producer())
        engine.add_process(consumer())
        engine.run()
        assert received == items
        assert store.high_watermark <= capacity


class TestPacketProperties:
    @given(flow=five_tuples(), payload=st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_serialize_parse_roundtrip(self, flow, payload):
        packet = Packet.from_five_tuple(flow, payload=payload)
        parsed = Packet.parse(packet.serialize())
        assert parsed.five_tuple() == flow
        assert parsed.payload == payload
        assert checksum_valid(parsed.ip)

    @given(flow=five_tuples())
    @settings(max_examples=100, deadline=None)
    def test_fid_stable_and_bounded(self, flow):
        fid = fid_of(flow)
        assert fid == fid_of(flow)
        assert 0 <= fid < (1 << 20)


class TestPcapProperties:
    @given(
        records=st.lists(
            st.tuples(five_tuples(), st.binary(max_size=80), st.floats(0, 1e15, allow_nan=False)),
            max_size=12,
        ),
        nanosecond=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pcap_roundtrip_preserves_wire_bytes(self, records, nanosecond):
        import io

        from repro.net.pcap import write_pcap
        from tests.integration.helpers import read_pcap

        packets = []
        for flow, payload, timestamp in records:
            packet = Packet.from_five_tuple(flow, payload=payload)
            packet.timestamp_ns = timestamp
            packets.append(packet)
        buffer = io.BytesIO()
        write_pcap(buffer, packets, nanosecond=nanosecond)
        buffer.seek(0)
        restored = list(read_pcap(buffer))
        assert len(restored) == len(packets)
        for original, loaded in zip(packets, restored):
            assert loaded.serialize() == original.serialize()
            tick = 1.0 if nanosecond else 1000.0
            assert abs(loaded.timestamp_ns - original.timestamp_ns) <= tick


class TestNatProperties:
    @given(
        flows=st.lists(
            st.tuples(st.integers(1, 250), st.integers(1, 0xFFFF), st.integers(1, 0xFFFF)),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_translation_is_injective_and_invertible(self, flows):
        nat = MazuNAT("nat", external_ip="203.0.113.77", internal_prefix="10.0.0.0/8")
        api = NullInstrumentationAPI()
        seen_external = set()
        for host, sport, dport in flows:
            packet = Packet.from_five_tuple(
                FiveTuple.make(f"10.0.0.{host % 250 + 1}", "99.0.0.1", sport, dport % 65535 + 0)
            )
            original = packet.five_tuple()
            nat.process(packet, api)
            translated = packet.five_tuple()
            key = (translated.src_ip, translated.src_port)
            # Injective: no two internal flows share an external endpoint...
            if original not in nat.mappings:
                continue
            assert key not in seen_external or nat.mappings[original][1:] == key
            seen_external.add(key)
            # ...and the reverse table inverts the mapping.
            assert nat.reverse[(translated.src_ip, translated.src_port, original.protocol)] == original

    @given(count=st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_release_then_reallocate_never_double_books(self, count):
        nat = MazuNAT("nat", port_range=(10000, 10000 + count))
        api = NullInstrumentationAPI()
        flows = []
        for index in range(count):
            packet = Packet.from_five_tuple(FiveTuple.make("10.0.0.1", "99.0.0.1", 100 + index, 80))
            flows.append(packet.five_tuple())
            nat.process(packet, api)
        # Release every other mapping, then allocate fresh flows.
        for flow in flows[::2]:
            nat.release_mapping(flow)
        allocated = set()
        for index in range(len(flows[::2])):
            packet = Packet.from_five_tuple(FiveTuple.make("10.0.0.2", "99.0.0.1", 500 + index, 80))
            nat.process(packet, api)
            port = packet.l4.src_port
            assert port not in allocated
            allocated.add(port)
        live_ports = {port for __, __, port in nat.mappings.values()}
        assert len(live_ports) == len(nat.mappings)
