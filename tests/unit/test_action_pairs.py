"""Systematic pairwise consolidation: every ordered pair of header-action
kinds must consolidate equivalently to sequential application."""

import itertools

import pytest

from repro.core.actions import Decap, Drop, Encap, Forward, Modify
from repro.core.consolidation import ConsolidationError, consolidate_header_actions
from repro.net import AuthenticationHeader, FiveTuple, Packet, VxlanHeader
from repro.net.addresses import ip_to_int
from tests.integration.helpers import apply_sequentially

ACTION_FACTORIES = {
    "forward": lambda: Forward(),
    "drop": lambda: Drop(),
    "modify_ip": lambda: Modify.set(dst_ip=ip_to_int("9.9.9.9")),
    "modify_port": lambda: Modify.set(dst_port=4242),
    "modify_same_field": lambda: Modify.set(dst_ip=ip_to_int("8.8.8.8")),
    "ttl_dec": lambda: Modify.ttl_dec(),
    "encap_ah": lambda: Encap(AuthenticationHeader(spi=5)),
    "encap_vxlan": lambda: Encap(VxlanHeader(vni=7)),
    "decap": lambda: Decap(),
}

PAIRS = list(itertools.product(sorted(ACTION_FACTORIES), repeat=2))


def make_packet(with_encap=False):
    packet = Packet.from_five_tuple(
        FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80), payload=b"pair"
    )
    if with_encap:
        packet.push_encap(AuthenticationHeader(spi=99))
    return packet


def legal(actions, initial_depth):
    depth = initial_depth
    filtered = []
    for action in actions:
        if isinstance(action, Decap):
            if depth == 0:
                continue
            depth -= 1
        elif isinstance(action, Encap):
            depth += 1
        filtered.append(action)
    return filtered


@pytest.mark.parametrize("first,second", PAIRS, ids=[f"{a}->{b}" for a, b in PAIRS])
@pytest.mark.parametrize("initial_encap", [False, True], ids=["bare", "pre-encapped"])
def test_pair_consolidates_equivalently(first, second, initial_encap):
    actions = legal(
        [ACTION_FACTORIES[first](), ACTION_FACTORIES[second]()],
        1 if initial_encap else 0,
    )

    sequential = make_packet(initial_encap)
    apply_sequentially(sequential, actions)

    consolidated_packet = make_packet(initial_encap)
    try:
        consolidated = consolidate_header_actions(actions)
    except ConsolidationError:
        # Only typed-decap mismatches may raise; the generic Decap here
        # never should.
        pytest.fail(f"unexpected ConsolidationError for {first} -> {second}")
    consolidated.compiled()(consolidated_packet)

    assert consolidated_packet.dropped == sequential.dropped
    if not sequential.dropped:
        sequential.finalize()
        assert consolidated_packet.serialize() == sequential.serialize()
