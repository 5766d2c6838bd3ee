"""Property tests for the RSS-style flow sharder.

The sharder's contract is what makes migration tractable: mappings are
deterministic, direction-independent, near-uniform, and repartitioning
moves the minimum number of buckets.  Hypothesis hunts the corners.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.flow import FiveTuple
from repro.scale import FlowSharder, IndirectionTable, shard_hash

five_tuples = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 2**32 - 1),
    dst_ip=st.integers(0, 2**32 - 1),
    src_port=st.integers(0, 65535),
    dst_port=st.integers(0, 65535),
    protocol=st.sampled_from([6, 17]),
)


def random_flows(count, seed=11):
    rng = random.Random(seed)
    return [
        FiveTuple(
            rng.randrange(2**32),
            rng.randrange(2**32),
            rng.randrange(65536),
            rng.randrange(65536),
            6,
        )
        for __ in range(count)
    ]


class TestShardHashProperties:
    @given(five_tuples)
    def test_deterministic(self, flow):
        assert shard_hash(flow) == shard_hash(flow)

    @given(five_tuples)
    def test_direction_independent(self, flow):
        assert shard_hash(flow) == shard_hash(flow.reversed())

    @given(five_tuples, st.integers(1, 8))
    def test_same_replica_both_directions(self, flow, replicas):
        sharder = FlowSharder(replicas)
        assert sharder.replica_for(flow) == sharder.replica_for(flow.reversed())

    @given(five_tuples, st.integers(1, 8), st.integers(16, 256))
    def test_mapping_reproducible_across_instances(self, flow, replicas, buckets):
        a = FlowSharder(replicas, buckets=buckets)
        b = FlowSharder(replicas, buckets=buckets)
        assert a.replica_for(flow) == b.replica_for(flow)

    @given(st.integers(2, 8))
    @settings(max_examples=20)
    def test_near_uniform_balance(self, replicas):
        sharder = FlowSharder(replicas, buckets=256)
        counts = {rid: 0 for rid in sharder.replica_ids}
        flows = random_flows(4000, seed=replicas)
        for flow in flows:
            counts[sharder.replica_for(flow)] += 1
        fair = len(flows) / replicas
        for rid, count in counts.items():
            assert 0.5 * fair <= count <= 1.5 * fair, (rid, counts)

    @given(st.integers(2, 8), st.integers(32, 256), st.data())
    @settings(max_examples=40)
    def test_minimal_remap_on_shrink(self, replicas, buckets, data):
        """Removing a replica moves its buckets and at most one more per
        survivor (the shares are rounded) — every bucket of a survivor
        within its new share stays put."""
        sharder = FlowSharder(replicas, buckets=buckets)
        before = sharder.table.buckets_snapshot()
        victim = data.draw(st.sampled_from(sharder.replica_ids))
        moved = sharder.remove_replica(victim)
        assert all(new != victim for __, new in moved.values())
        assert before.count(victim) <= len(moved) <= before.count(victim) + replicas - 1
        after = sharder.table.buckets_snapshot()
        for bucket, owner in enumerate(before):
            if bucket not in moved:
                assert after[bucket] == owner


#: Bucket -> replica maps the weighted sharder produced before equal
#: shares replaced it, for 1-8 replicas over 64 and 128 buckets: at
#: construction, after an empty replica joins, and after each id leaves
#: (with six pinned flows, one digit per bucket, pins as "flow>replica").
RECORDED_MAPS = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures" / "sharder_maps.json").read_text()
)


def bucket_map(sharder):
    return "".join(str(rid) for rid in sharder.table.buckets_snapshot())


@pytest.mark.parametrize(
    "case", RECORDED_MAPS, ids=lambda case: f"{case['replicas']}x{case['buckets']}"
)
def test_equal_shares_keep_the_recorded_bucket_maps(case):
    replicas = case["replicas"]

    def grown():
        sharder = FlowSharder(replicas, buckets=case["buckets"])
        sharder.add_replica(replicas)
        for index, flow in enumerate(random_flows(6, seed=replicas)):
            sharder.pin(flow, index % (replicas + 1))
        return sharder

    assert bucket_map(FlowSharder(replicas, buckets=case["buckets"])) == case["initial"]
    assert bucket_map(grown()) == case["with_empty"]
    for rid, expected in case["removed"].items():
        sharder = grown()
        sharder.remove_replica(int(rid))
        assert bucket_map(sharder) == expected["map"], rid
        pins = sorted(
            f"{','.join(map(str, flow))}>{home}" for flow, home in sharder.pinned_flows().items()
        )
        assert pins == expected["pins"], rid


class TestIndirectionTable:
    def test_rebalance_reports_every_move(self):
        table = IndirectionTable(size=64)
        moved = table.rebalance([0])
        assert len(moved) == 64
        assert all(old is None and new == 0 for old, new in moved.values())
        moved = table.rebalance([0, 1])
        assert len(moved) == 32
        assert all(old == 0 and new == 1 for old, new in moved.values())

    def test_generation_bumps_only_on_change(self):
        table = IndirectionTable(size=16)
        table.rebalance([0])
        generation = table.generation
        assert table.rebalance([0]) == {}
        assert table.generation == generation

    def test_unpopulated_lookup_raises(self):
        with pytest.raises(RuntimeError):
            IndirectionTable(size=4).replica_of(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            IndirectionTable(size=0)
        with pytest.raises(ValueError):
            IndirectionTable(size=8).rebalance([])


class TestPins:
    def test_pin_overrides_table_and_unpin_restores(self):
        sharder = FlowSharder(4, buckets=64)
        flow = random_flows(1)[0]
        natural = sharder.replica_for(flow)
        target = (natural + 1) % 4
        sharder.pin(flow, target)
        assert sharder.replica_for(flow) == target
        assert sharder.replica_for(flow.reversed()) == target
        assert sharder.unpin(flow)
        assert sharder.replica_for(flow) == natural
        assert not sharder.unpin(flow)

    def test_pins_to_removed_replicas_are_dropped(self):
        sharder = FlowSharder(3, buckets=64)
        flow = random_flows(1)[0]
        sharder.pin(flow, 2)
        sharder.remove_replica(2)
        assert flow.canonical() not in sharder.pinned_flows()
        assert sharder.replica_for(flow) in (0, 1)

    def test_pin_to_unknown_replica_raises(self):
        sharder = FlowSharder(2)
        with pytest.raises(KeyError):
            sharder.pin(random_flows(1)[0], 9)


class TestSharderLifecycle:
    def test_add_without_rebalance_gets_no_buckets(self):
        sharder = FlowSharder(2, buckets=64)
        before = sharder.table.buckets_snapshot()
        sharder.add_replica(2)
        assert sharder.table.buckets_snapshot() == before
        assert 2 in sharder.replica_ids

    def test_cannot_remove_last_replica(self):
        sharder = FlowSharder(1)
        with pytest.raises(ValueError):
            sharder.remove_replica(0)

    def test_duplicate_add_rejected(self):
        sharder = FlowSharder(2)
        with pytest.raises(ValueError):
            sharder.add_replica(1)
