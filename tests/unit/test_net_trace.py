"""Unit tests for the pcap-lite trace format (repro.net.trace)."""

import io

import pytest

from repro.net import FiveTuple, Packet
from repro.net.trace import (
    TraceFormatError,
    load_trace,
    read_trace,
    write_trace,
)
from repro.traffic import FlowSpec, TrafficGenerator
from tests.integration.helpers import roundtrip_bytes


def sample_packets(n=5):
    spec = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=n, payload=b"trace-data")
    packets = TrafficGenerator([spec]).packets()
    for index, packet in enumerate(packets):
        packet.timestamp_ns = index * 1000.0
    return packets


class TestRoundtrip:
    def test_packets_survive(self):
        packets = sample_packets()
        restored = roundtrip_bytes(packets)
        assert len(restored) == len(packets)
        for original, loaded in zip(packets, restored):
            assert loaded.serialize() == original.serialize()
            assert loaded.five_tuple() == original.five_tuple()

    def test_timestamps_survive(self):
        restored = roundtrip_bytes(sample_packets())
        assert [p.timestamp_ns for p in restored] == [0.0, 1000.0, 2000.0, 3000.0, 4000.0]

    def test_empty_trace(self):
        assert roundtrip_bytes([]) == []

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "capture.sbtr"
        packets = sample_packets(3)
        count = write_trace(path, packets)
        assert count == 3
        restored = load_trace(path)
        assert len(restored) == 3
        assert restored[0].payload == b"trace-data"

    def test_streaming_read_is_lazy(self):
        buffer = io.BytesIO()
        write_trace(buffer, sample_packets(4))
        buffer.seek(0)
        iterator = read_trace(buffer)
        first = next(iterator)
        assert first.timestamp_ns == 0.0


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            load_trace(io.BytesIO(b"XXXX\x00\x01\x00\x00"))

    def test_bad_version(self):
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(io.BytesIO(b"SBTR\x00\x63\x00\x00"))

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(io.BytesIO(b"SB"))

    def test_truncated_record(self):
        buffer = io.BytesIO()
        write_trace(buffer, sample_packets(1))
        data = buffer.getvalue()
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(io.BytesIO(data[:-4]))

    def test_replay_through_chain_matches_live(self):
        """Captured traffic replays with identical chain behaviour."""
        from repro.core.framework import SpeedyBox
        from repro.nf import Monitor

        packets = sample_packets(6)
        restored = roundtrip_bytes(packets)

        live = SpeedyBox([Monitor("m")])
        replay = SpeedyBox([Monitor("m")])
        for packet in packets:
            live.process(packet)
        for packet in restored:
            replay.process(packet)
        assert live.nfs[0].counters == replay.nfs[0].counters
        assert live.fast_packets == replay.fast_packets
