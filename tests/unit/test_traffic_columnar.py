"""Columnar traffic (repro.traffic.columnar) vs the per-packet generator.

The batch lane's correctness story starts here: a PacketBatch must
materialize to exactly the packet stream TrafficGenerator would emit for
the same flow specs, in every interleave mode, or every downstream
equivalence claim is meaningless.  The suite also pins the vectorized
FID column against the scalar hash and the fixed column dtypes.
"""

import numpy as np
import pytest

from repro.core.classifier import fid_column, fid_of
from repro.traffic.columnar import (
    PacketBatch,
    uniform_batch,
)
from repro.traffic.generator import FlowSpec, TrafficGenerator
from tests.integration.helpers import batch_from_specs


def mixed_specs():
    return [
        FlowSpec.udp("10.0.0.1", "20.0.0.1", 1111, 80, packets=3, payload=b"aa"),
        FlowSpec.tcp(
            "10.0.0.2", "20.0.0.1", 2222, 443, packets=2, handshake=True, fin=True
        ),
        FlowSpec.udp("10.0.0.3", "20.0.0.2", 3333, 53, packets=1),
        FlowSpec.tcp(
            "10.0.0.4",
            "20.0.0.1",
            4444,
            8080,
            packets=4,
            payload=lambda i: bytes([i]) * (i + 1),
            handshake=True,
        ),
    ]


def wire(packets):
    return [p.serialize() for p in packets]


FLOW_COLUMNS = {
    "flow_src_ip": np.int64,
    "flow_dst_ip": np.int64,
    "flow_src_port": np.int64,
    "flow_dst_port": np.int64,
    "flow_proto": np.uint8,
    "flow_handshake": np.uint8,
}
PACKET_COLUMNS = {
    "flow_index": np.int64,
    "kind": np.uint8,
    "ordinal": np.int64,
    "seq": np.int64,
    "size": np.int64,
}


def assert_column_dtypes(batch):
    for name, dtype in {**FLOW_COLUMNS, **PACKET_COLUMNS}.items():
        column = getattr(batch, name)
        assert isinstance(column, np.ndarray), name
        assert column.dtype == dtype, (name, column.dtype)


@pytest.mark.parametrize("interleave", ["sequential", "round_robin", "shuffled"])
def test_batch_from_specs_matches_generator(interleave):
    specs = mixed_specs()
    batch = batch_from_specs(specs, interleave=interleave, seed=7)
    expected = TrafficGenerator(specs, interleave=interleave, seed=7).packets()
    assert len(batch) == len(expected)
    assert wire(list(batch.packet_view())) == wire(expected)
    assert_column_dtypes(batch)


def test_packet_view_is_lazy_and_identical():
    specs = mixed_specs()
    batch = batch_from_specs(specs, interleave="round_robin")
    view = batch.packet_view()
    assert len(view) == len(batch)
    assert wire(list(view)) == wire([batch.materialize(i) for i in range(len(batch))])
    # Indexed access materializes the same packet as iteration.
    assert view[3].serialize() == batch.materialize(3).serialize()


def test_uniform_batch_matches_equivalent_specs():
    batch = uniform_batch(
        6, 3, payload=b"xy", interleave="round_robin", block=3, dst_port=81
    )
    specs = [
        FlowSpec.udp(
            f"10.0.0.{f + 1}", "20.0.0.1", 1024 + f, 81, packets=3, payload=b"xy"
        )
        for f in range(6)
    ]
    # block=3: flows [0,1,2] round-robin to completion, then [3,4,5].
    first = TrafficGenerator(specs[:3], interleave="round_robin").packets()
    second = TrafficGenerator(specs[3:], interleave="round_robin").packets()
    assert wire(list(batch.packet_view())) == wire(first + second)
    assert_column_dtypes(batch)


def test_uniform_batch_zero_flows_is_empty():
    empty = batch_from_specs([])
    for batch in (uniform_batch(0, 5), uniform_batch(0, 5, block=3)):
        assert len(batch) == len(empty) == 0
        assert batch.flow_count == empty.flow_count == 0
        assert list(batch.packet_view()) == []
        assert_column_dtypes(batch)
    assert_column_dtypes(empty)


def test_uniform_batch_tcp_lifecycle():
    batch = uniform_batch(
        2, 2, protocol="tcp", handshake=True, fin=True, interleave="sequential"
    )
    packets = list(batch.packet_view())
    specs = [
        FlowSpec.tcp(
            f"10.0.0.{f + 1}", "20.0.0.1", 1024 + f, 80,
            packets=2, handshake=True, fin=True,
        )
        for f in range(2)
    ]
    expected = TrafficGenerator(specs, interleave="sequential").packets()
    assert wire(packets) == wire(expected)
    assert_column_dtypes(batch)


def test_fid_column_matches_scalar_fid():
    batch = uniform_batch(257, 1, interleave="sequential")
    column = fid_column(
        batch.flow_src_ip,
        batch.flow_dst_ip,
        batch.flow_src_port,
        batch.flow_dst_port,
        batch.flow_proto,
    )
    for flow in range(batch.flow_count):
        assert int(column[flow]) == fid_of(batch.five_tuple_of(flow))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        uniform_batch(2, 1, handshake=True)  # handshake requires TCP
    with pytest.raises(ValueError):
        uniform_batch(2, 1, interleave="zigzag")
    with pytest.raises(ValueError):
        batch_from_specs(mixed_specs(), interleave="zigzag")
    with pytest.raises(ValueError, match="flows"):
        uniform_batch(-1, 1)
    with pytest.raises(ValueError, match="packets_per_flow"):
        uniform_batch(2, -1)
    for interleave in ("round_robin", "sequential"):
        with pytest.raises(ValueError, match="block"):
            uniform_batch(2, 1, interleave=interleave, block=0)
        with pytest.raises(ValueError, match="block"):
            uniform_batch(0, 1, interleave=interleave, block=0)


def test_batch_is_packetbatch_instance():
    assert isinstance(uniform_batch(1, 1), PacketBatch)
