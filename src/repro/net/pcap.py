"""Classic libpcap export.

Our packets serialise to real wire bytes, so they can be written as a
standard ``.pcap`` file (magic 0xa1b2c3d4 for microsecond ticks,
0xa1b23c4d for nanosecond ones; LINKTYPE_ETHERNET) and opened in
Wireshark/tcpdump — handy for eyeballing what a chain actually emitted
and for interoperating with external tooling.

For the library's own capture/replay round trips prefer
:mod:`repro.net.trace` (it keeps float-ns timestamps exactly); pcap
timestamps are quantised to the format's tick.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Union

from repro.net.packet import Packet

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("IHHiIII")
_RECORD_HEADER = struct.Struct("IIII")


def write_pcap(
    target: Union[str, Path, BinaryIO],
    packets: Iterable[Packet],
    nanosecond: bool = True,
) -> int:
    """Write packets to a classic pcap file; returns the record count."""
    own = isinstance(target, (str, Path))
    stream: BinaryIO = open(target, "wb") if own else target  # type: ignore[assignment]
    magic = MAGIC_NS if nanosecond else MAGIC_US
    tick = 1.0 if nanosecond else 1000.0  # ns per sub-second unit
    try:
        stream.write(
            _GLOBAL_HEADER.pack(magic, 2, 4, 0, 0, 0xFFFF, LINKTYPE_ETHERNET)
        )
        count = 0
        for packet in packets:
            wire = packet.serialize()
            total_ns = int(packet.timestamp_ns)
            seconds, remainder_ns = divmod(total_ns, 1_000_000_000)
            subsec = int(remainder_ns / tick)
            stream.write(_RECORD_HEADER.pack(seconds, subsec, len(wire), len(wire)))
            stream.write(wire)
            count += 1
        return count
    finally:
        if own:
            stream.close()
