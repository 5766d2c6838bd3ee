"""Unit tests for libpcap export/import (repro.net.pcap)."""

import io
import struct

import pytest

from repro.net import FiveTuple, Packet
from repro.net.pcap import (
    MAGIC_NS,
    MAGIC_US,
    write_pcap,
)
from tests.integration.helpers import PcapFormatError, read_pcap, roundtrip_bytes


def sample_packets(n=4):
    packets = []
    for index in range(n):
        packet = Packet.from_five_tuple(
            FiveTuple.make("10.0.0.1", "10.0.0.2", 1000 + index, 80),
            payload=bytes([index]) * 10,
        )
        packet.timestamp_ns = 1_500_000_000_000_000_000.0 + index * 1_000.0
        packets.append(packet)
    return packets


def load_pcap(source):
    return list(read_pcap(source))


def roundtrip(packets, nanosecond=True):
    buffer = io.BytesIO()
    write_pcap(buffer, packets, nanosecond=nanosecond)
    buffer.seek(0)
    return load_pcap(buffer)


class TestRoundtrip:
    def test_packets_survive(self):
        packets = sample_packets()
        restored = roundtrip(packets)
        assert len(restored) == len(packets)
        for original, loaded in zip(packets, restored):
            assert loaded.serialize() == original.serialize()

    def test_nanosecond_timestamps_exact(self):
        packets = sample_packets()
        restored = roundtrip(packets, nanosecond=True)
        for original, loaded in zip(packets, restored):
            assert loaded.timestamp_ns == original.timestamp_ns

    def test_microsecond_flavour_quantises(self):
        packets = sample_packets()
        packets[0].timestamp_ns += 123.0  # sub-microsecond detail
        restored = roundtrip(packets, nanosecond=False)
        assert restored[0].timestamp_ns % 1000.0 == 0.0

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "chain.pcap"
        count = write_pcap(path, sample_packets(3))
        assert count == 3
        assert len(load_pcap(path)) == 3

    def test_empty_capture(self):
        assert roundtrip([]) == []


class TestHeaderValidation:
    def test_magic_constants(self):
        buffer = io.BytesIO()
        write_pcap(buffer, [], nanosecond=True)
        assert struct.unpack("<I", buffer.getvalue()[:4])[0] == MAGIC_NS
        buffer = io.BytesIO()
        write_pcap(buffer, [], nanosecond=False)
        assert struct.unpack("<I", buffer.getvalue()[:4])[0] == MAGIC_US

    def test_big_endian_file_readable(self):
        # Hand-build a big-endian microsecond capture with one packet.
        packet = sample_packets(1)[0]
        wire = packet.serialize()
        buffer = io.BytesIO()
        buffer.write(struct.pack(">IHHiIII", MAGIC_US, 2, 4, 0, 0, 0xFFFF, 1))
        buffer.write(struct.pack(">IIII", 1, 500, len(wire), len(wire)))
        buffer.write(wire)
        buffer.seek(0)
        restored = load_pcap(buffer)
        assert restored[0].timestamp_ns == 1_000_000_000.0 + 500 * 1000.0

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapFormatError, match="magic"):
            load_pcap(io.BytesIO(b"\x00" * 24))

    def test_non_ethernet_linktype_rejected(self):
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_US, 2, 4, 0, 0, 0xFFFF, 101))
        buffer.seek(0)
        with pytest.raises(PcapFormatError, match="linktype"):
            load_pcap(buffer)

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        write_pcap(buffer, sample_packets(1))
        data = buffer.getvalue()[:-5]
        with pytest.raises(PcapFormatError, match="truncated"):
            load_pcap(io.BytesIO(data))

    def test_snaplen_truncation_rejected(self):
        packet = sample_packets(1)[0]
        wire = packet.serialize()
        buffer = io.BytesIO()
        buffer.write(struct.pack("<IHHiIII", MAGIC_US, 2, 4, 0, 0, 0xFFFF, 1))
        buffer.write(struct.pack("<IIII", 0, 0, len(wire) - 4, len(wire)))
        buffer.write(wire[:-4])
        buffer.seek(0)
        with pytest.raises(PcapFormatError, match="snap-length"):
            load_pcap(buffer)


class TestInterop:
    def test_sbtr_to_pcap_conversion(self):
        """The two capture formats agree on content."""
        packets = sample_packets()
        via_sbtr = roundtrip_bytes(packets)
        via_pcap = roundtrip(packets)
        for a, b in zip(via_sbtr, via_pcap):
            assert a.serialize() == b.serialize()
