"""A minimal binary packet-trace format ("pcap-lite").

Records packets with nanosecond timestamps so workloads can be captured
once and replayed byte-exactly — the role the anonymised datacenter
capture plays in the paper's Fig. 9 experiment.  The format is
deliberately simple and self-describing:

    file   := magic(4) version(u16) flags(u16) record*
    record := timestamp_ns(f64) length(u32) wire_bytes

All integers big-endian.  Reading validates magic, version and record
framing; a truncated final record raises :class:`TraceFormatError`.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.net.packet import Packet

MAGIC = b"SBTR"
VERSION = 1

_HEADER = struct.Struct("!4sHH")
_RECORD = struct.Struct("!dI")


class TraceFormatError(ValueError):
    """The byte stream is not a valid trace file."""


def write_trace(target: Union[str, Path, BinaryIO], packets: Iterable[Packet]) -> int:
    """Serialise ``packets`` (with timestamps) to ``target``.

    Returns the number of records written.  ``target`` may be a path or a
    writable binary stream.
    """
    own = isinstance(target, (str, Path))
    stream: BinaryIO = open(target, "wb") if own else target  # type: ignore[assignment]
    try:
        stream.write(_HEADER.pack(MAGIC, VERSION, 0))
        count = 0
        for packet in packets:
            wire = packet.serialize()
            stream.write(_RECORD.pack(packet.timestamp_ns, len(wire)))
            stream.write(wire)
            count += 1
        return count
    finally:
        if own:
            stream.close()


def read_trace(source: Union[str, Path, BinaryIO]) -> Iterator[Packet]:
    """Yield packets from a trace file, restoring timestamps."""
    own = isinstance(source, (str, Path))
    stream: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        header = stream.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError("truncated trace header")
        magic, version, __ = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError(f"bad magic {magic!r}; not a SpeedyBox trace")
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        while True:
            record_header = stream.read(_RECORD.size)
            if not record_header:
                return
            if len(record_header) < _RECORD.size:
                raise TraceFormatError("truncated record header")
            timestamp_ns, length = _RECORD.unpack(record_header)
            wire = stream.read(length)
            if len(wire) < length:
                raise TraceFormatError("truncated record body")
            packet = Packet.parse(wire)
            packet.timestamp_ns = timestamp_ns
            yield packet
    finally:
        if own:
            stream.close()


def load_trace(source: Union[str, Path, BinaryIO]) -> List[Packet]:
    """Eagerly read a whole trace into memory."""
    return list(read_trace(source))
