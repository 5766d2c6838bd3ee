"""Crafted FID collisions: k flows on one home FID cost probe charges and nothing else.

``tests/fixtures/fid_collisions.json`` holds five-tuples that
``fid_column`` folds onto one FID; the first *k* are a *k*-collision
cell (k - 1 displaced flows, the i-th probing i steps) and
``friendly_twins`` gives the same shape on k distinct FIDs.  The cells
are judged by counts and by oracles, never by a stopwatch:

- the collision cell reports its twin's ``slow_packets``,
  ``fast_path_rate`` and lane ``span_packets``;
- packet for packet it charges what the twin charges plus ``FID_HASH``
  once per probe step of the packet's flow — on the compiled lane and on
  the interpreted path alike;
- the compiling and the interpreted runtime agree in lockstep, and both
  agree with the original chain (``verify_equivalence``), on the paper's
  Chain 1 and on the header-rewrite chain;
- the FID assignment, ``stats()`` and the ``LoadResult`` digest do not
  depend on ``PYTHONHASHSEED``: probe order is arrival order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench.checks import sim_digest
from repro.core import verify_equivalence
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SyntheticNF
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.platform.costs import Operation
from repro.traffic import FlowSpec, TrafficGenerator
from repro.traffic.datacenter import DatacenterTraceConfig, DatacenterTraceGenerator
from tests.integration.helpers import (
    InterpretedSpeedyBox,
    assert_classifier_invariants,
    batch_over,
    colliding_flows,
    friendly_twins,
    lockstep,
)

ROOT = Path(__file__).resolve().parents[2]
KS = (2, 16, 256)
PACKETS_PER_FLOW = 6


def header_chain():
    """``benchmarks/test_wallclock.py::build_batch_chain``: rewrites, no state."""
    return [
        SyntheticNF("fw", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("nat", action=Modify.set(dst_port=8080), sf_payload_class=None),
        SyntheticNF("mon", sf_payload_class=None),
    ]


def chain1():
    """The paper's Chain 1; Maglev keeps one event armed on every flow."""
    return [
        MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
        MaglevLoadBalancer("maglev", table_size=131),
        Monitor("monitor"),
        IPFilter("ipfilter"),
    ]


CHAINS = {"header": header_chain, "chain1": chain1}


def packets_of(flows):
    specs = [FlowSpec(flow, packets=PACKETS_PER_FLOW, payload=b"c" * 11) for flow in flows]
    return TrafficGenerator(specs, interleave="round_robin").packets()


def counts(meter) -> dict:
    return dict(meter.counts)


@pytest.mark.parametrize("k", KS)
def test_lane_counts_match_the_friendly_twin(k):
    cells = {}
    for name, flows in (("one-fid", colliding_flows(k)), ("twin", friendly_twins(colliding_flows(k)))):
        runtime = SpeedyBox(header_chain())
        platform = BessPlatform(runtime)
        result = platform.run_load(batch_over(flows, PACKETS_PER_FLOW, interleave="round_robin"))
        assert_classifier_invariants(runtime)
        stats = runtime.stats()
        cells[name] = {
            "offered": result.offered,
            "delivered": result.delivered,
            "slow_packets": stats["slow_packets"],
            "fast_path_rate": stats["fast_path_rate"],
            "span_packets": platform.last_lane_stats["span_packets"],
            "probe_steps": stats["fid_collisions"],
        }
    assert cells["one-fid"].pop("probe_steps") == k * (k - 1) // 2
    assert cells["twin"].pop("probe_steps") == 0
    assert cells["one-fid"] == cells["twin"]
    assert cells["twin"]["slow_packets"] == k  # one first packet per flow
    assert cells["twin"]["span_packets"] == k * (PACKETS_PER_FLOW - 1)


@pytest.mark.parametrize("runtime_cls", [SpeedyBox, InterpretedSpeedyBox])
@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("k", KS)
def test_cycles_differ_by_exactly_the_probe_charges(k, chain, runtime_cls):
    """Flow i of the cell (arrival order) sits i FIDs past its home, so
    each of its packets pays ``FID_HASH`` i more times than the twin's
    and every other charge, NF meters included, is the twin's."""
    collided, twin = runtime_cls(CHAINS[chain]()), runtime_cls(CHAINS[chain]())
    flows = colliding_flows(k)
    streams = zip(packets_of(flows), packets_of(friendly_twins(flows)))
    for index, (collided_pkt, twin_pkt) in enumerate(streams):
        probes = index % k  # round robin: packet index -> flow slot -> probe steps
        ours, theirs = collided.process(collided_pkt), twin.process(twin_pkt)
        assert (ours.path, ours.dropped) == (theirs.path, theirs.dropped)
        expected = counts(theirs.fixed_meter)
        expected[Operation.FID_HASH] += probes
        assert counts(ours.fixed_meter) == expected, index
        assert [(name, counts(meter)) for name, meter in ours.nf_meters] == [
            (name, counts(meter)) for name, meter in theirs.nf_meters
        ]
        assert [[(n, counts(m)) for n, m in wave] for wave in ours.sf_waves] == [
            [(n, counts(m)) for n, m in wave] for wave in theirs.sf_waves
        ]
    ours, theirs = collided.stats(), twin.stats()
    assert ours.pop("fid_collisions") == k * (k - 1) // 2 and theirs.pop("fid_collisions") == 0
    assert ours == theirs


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("k", KS)
def test_lockstep_and_the_original_chain_agree(k, chain):
    packets = packets_of(colliding_flows(k))
    served = lockstep(CHAINS[chain], packets)
    # everything after a flow's first packet is fast, and on the compiled lane
    assert sum(report.is_fast for report, __ in served) == k * (PACKETS_PER_FLOW - 1)
    assert sum(on_lane for __, on_lane in served) == k * (PACKETS_PER_FLOW - 1)
    report = verify_equivalence(CHAINS[chain], packets)
    assert report.equivalent, report.summary()
    assert report.slow_packets == k


# -- determinism across hash seeds -----------------------------------------------


def seed_cells() -> dict:
    """What one interpreter computes: the ``dc_chain``-shaped cell (Chain 1
    on ONVM over 40 flows of ``bench/workloads.py``'s trace) and the
    k = 16 one-FID cell down the lane, its classifier bounded to 12
    flows so displaced flows and their homes' owners evict each other."""
    config = DatacenterTraceConfig(
        flows=40,
        seed=2019,
        lognormal_mu=2.3,
        lognormal_sigma=0.8,
        large_packet_fraction=0.25,
        max_packets_per_flow=120,
    )
    loads = {
        "dc_chain": (
            OpenNetVMPlatform,
            SpeedyBox(chain1()),
            DatacenterTraceGenerator(config).timestamped_packets(),
        ),
        "one_fid_16": (
            BessPlatform,
            SpeedyBox(header_chain(), max_tracked_flows=12),
            batch_over(colliding_flows(16), PACKETS_PER_FLOW, interleave="round_robin"),
        ),
    }
    cells = {}
    for name, (platform_cls, runtime, load) in loads.items():
        result = platform_cls(runtime).run_load(load)
        cells[name] = {
            "digest": sim_digest(result),
            "stats": runtime.stats(),
            "fids": [
                [fid, list(entry.five_tuple), entry.probes]
                for fid, entry in runtime.classifier._flows.items()
            ],
        }
    return cells


def test_results_and_fid_assignment_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
        code = (
            "import json; from tests.integration.test_fid_collisions import seed_cells; "
            "print(json.dumps(seed_cells(), sort_keys=True))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    one_fid = outputs[0]["one_fid_16"]
    assert one_fid["stats"]["fid_collisions"] > 0 and one_fid["stats"]["classifier_evictions"] > 0
    assert any(probes for __, __, probes in one_fid["fids"])
    assert outputs[0]["dc_chain"]["stats"]["fast_path_rate"] > 0.5
