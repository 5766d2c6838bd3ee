"""Property-based tests: consolidation correctness (repro.core.consolidation).

The central invariant of §V-B: for ANY list of header actions, applying
the consolidated action to a packet produces exactly the same packet (or
the same drop decision) as applying the actions sequentially.
"""

from hypothesis import given, settings, strategies as st

from repro.core.actions import Decap, Drop, Encap, FieldOp, Forward, Modify
from repro.core.consolidation import consolidate_header_actions
from repro.net import AuthenticationHeader, FiveTuple, Packet, PacketField, VxlanHeader
from tests.integration.helpers import apply_consolidated, apply_sequentially, xor_merge_bytes

# -- strategies ---------------------------------------------------------------

_SETTABLE_FIELDS = {
    PacketField.SRC_IP: st.integers(0, 0xFFFFFFFF),
    PacketField.DST_IP: st.integers(0, 0xFFFFFFFF),
    PacketField.SRC_PORT: st.integers(0, 0xFFFF),
    PacketField.DST_PORT: st.integers(0, 0xFFFF),
    PacketField.DSCP: st.integers(0, 63),
    PacketField.SRC_MAC: st.integers(0, 0xFFFFFFFFFFFF),
    PacketField.DST_MAC: st.integers(0, 0xFFFFFFFFFFFF),
}


def modify_strategy():
    def build(entries):
        return Modify({field: FieldOp.set(value) for field, value in entries.items()})

    return st.dictionaries(
        st.sampled_from(sorted(_SETTABLE_FIELDS, key=lambda f: f.value)),
        st.integers(0, 0xFFFF),
        min_size=1,
        max_size=3,
    ).map(
        lambda d: Modify(
            {field: FieldOp.set(value if field is not PacketField.DSCP else value % 64) for field, value in d.items()}
        )
    )


def ttl_dec_strategy():
    return st.integers(1, 3).map(lambda hops: Modify.adjust(ttl=-hops))


def encap_strategy():
    return st.one_of(
        st.integers(0, 0xFFFF).map(lambda spi: Encap(AuthenticationHeader(spi=spi))),
        st.integers(0, 0xFFFFFF).map(lambda vni: Encap(VxlanHeader(vni=vni))),
    )


def action_lists(allow_drop=True):
    base = [
        st.just(Forward()),
        modify_strategy(),
        ttl_dec_strategy(),
        encap_strategy(),
        st.just(Decap()),
    ]
    if allow_drop:
        base.append(st.just(Drop()))
    return st.lists(st.one_of(*base), min_size=0, max_size=8)


def make_packet(initial_encaps=0):
    packet = Packet.from_five_tuple(
        FiveTuple.make("10.0.0.1", "10.0.0.2", 1234, 80), payload=b"prop"
    )
    packet.ip.ttl = 64
    for index in range(initial_encaps):
        packet.push_encap(AuthenticationHeader(spi=1000 + index))
    return packet


def sanitize(actions, initial_encaps):
    """Keep only action prefixes that never decap below the arrival depth
    plus pushed headers — mirrors what a real chain could legally do."""
    depth = initial_encaps
    legal = []
    for action in actions:
        if isinstance(action, Decap):
            if depth == 0:
                continue  # an NF cannot decap a header that is not there
            depth -= 1
        elif isinstance(action, Encap):
            depth += 1
        legal.append(action)
    return legal


# -- properties ----------------------------------------------------------------


class TestConsolidationEquivalence:
    @given(actions=action_lists(), initial_encaps=st.integers(0, 2))
    @settings(max_examples=300, deadline=None)
    def test_consolidated_equals_sequential(self, actions, initial_encaps):
        actions = sanitize(actions, initial_encaps)

        sequential = make_packet(initial_encaps)
        apply_sequentially(sequential, actions)

        consolidated_packet = make_packet(initial_encaps)
        consolidated = consolidate_header_actions(actions)
        consolidated.compiled()(consolidated_packet)

        assert consolidated_packet.dropped == sequential.dropped
        if not sequential.dropped:
            sequential.finalize()
            assert consolidated_packet.serialize() == sequential.serialize()

    @given(actions=action_lists(), initial_encaps=st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_compiled_equals_the_step_by_step_walk(self, actions, initial_encaps):
        """The pre-bound applier production runs writes the same fields in
        the same order as the action's stated walk, field for field."""
        consolidated = consolidate_header_actions(sanitize(actions, initial_encaps))
        walked = make_packet(initial_encaps)
        apply_consolidated(consolidated, walked)
        compiled = make_packet(initial_encaps)
        consolidated.compiled()(compiled)
        assert compiled.dropped == walked.dropped
        assert compiled.encaps == walked.encaps
        assert compiled.serialize() == walked.serialize()

    @given(actions=action_lists(allow_drop=False))
    @settings(max_examples=200, deadline=None)
    def test_consolidation_is_idempotent_summary(self, actions):
        actions = sanitize(actions, 0)
        first = consolidate_header_actions(actions)
        # Re-consolidating the consolidation's own pieces changes nothing.
        again = consolidate_header_actions(actions)
        assert first.drop == again.drop
        assert first.field_ops == again.field_ops
        assert len(first.net_encaps) == len(again.net_encaps)
        assert len(first.leading_decaps) == len(again.leading_decaps)

    @given(actions=action_lists())
    @settings(max_examples=200, deadline=None)
    def test_drop_dominance(self, actions):
        consolidated = consolidate_header_actions(actions)
        has_drop = any(isinstance(a, Drop) for a in actions)
        if consolidated.drop:
            assert has_drop
        # A drop anywhere always wins: sequential semantics stop there.
        if has_drop:
            packet = make_packet(2)
            legal = sanitize(actions, 2)
            apply_sequentially(packet, legal)
            consolidated_legal = consolidate_header_actions(legal)
            assert consolidated_legal.drop == packet.dropped

    @given(
        hops=st.lists(st.integers(1, 3), min_size=0, max_size=5),
        start_ttl=st.integers(16, 255),
    )
    @settings(max_examples=100, deadline=None)
    def test_ttl_adjustments_sum(self, hops, start_ttl):
        actions = [Modify.adjust(ttl=-hop) for hop in hops]
        packet = make_packet()
        packet.ip.ttl = start_ttl
        total = sum(hops)
        if total > start_ttl:
            return  # would underflow the field; not a legal chain
        consolidate_header_actions(actions).compiled()(packet)
        assert packet.ip.ttl == start_ttl - total


class TestFieldOpAlgebra:
    op_strategy = st.one_of(
        st.integers(0, 1000).map(FieldOp.set),
        st.integers(-50, 50).map(FieldOp.adjust),
    )

    @given(ops=st.lists(op_strategy, min_size=1, max_size=6), start=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_composition_associates_with_application(self, ops, start):
        composed = ops[0]
        for op in ops[1:]:
            composed = composed.then(op)
        sequential = start
        for op in ops:
            sequential = op.apply(sequential)
        assert composed.apply(start) == sequential

    @given(a=op_strategy, b=op_strategy, c=op_strategy, start=st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_then_is_associative(self, a, b, c, start):
        left = a.then(b).then(c)
        right = a.then(b.then(c))
        assert left.apply(start) == right.apply(start)


class TestXorMergeProperties:
    @given(
        original=st.binary(min_size=8, max_size=8),
        values=st.lists(st.binary(min_size=2, max_size=2), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_merge_on_disjoint_ranges_equals_patchwork(self, original, values):
        # Each output rewrites a distinct 2-byte window of the original.
        outputs = []
        expected = bytearray(original)
        for index, value in enumerate(values[:3]):
            out = bytearray(original)
            out[index * 2 : index * 2 + 2] = value
            outputs.append(bytes(out))
            expected[index * 2 : index * 2 + 2] = value
        merged = xor_merge_bytes(original, outputs)
        assert merged == bytes(expected)
