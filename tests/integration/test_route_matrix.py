"""The route matrix: what is offered and what is attached pick the route.

A loaded run has two functional routes (the whole-batch lane, the
per-packet pass) and three replays (vector, closed form, DES), and no
switch selects among them: docs/performance.md's decision table derives
the route from the input type, the attached observers and the plans'
shape.  Every cell of

    input     {packet list, ``batch.packet_view()``, ``PacketBatch``}
  x attached  {nothing, spans 1-in-2, timeseries + forensics, registry,
               tracer, all of them}
  x platform  {BESS, ONVM}
  x arrivals  {saturation, ``inter_arrival_ns`` > 0, ``use_timestamps``}
  x chain     {header-only, NAT + Monitor + IPFilter over bounded tables}
  x flows     {on ten FIDs, all ten on one FID (nine displaced)}

must (a) give the ``LoadResult`` of the references — the interpreted
fast path replayed by the DES — float for float, (b) leave the runtime
with the references' ``stats()`` and audit journal, and (c) take the
route the table states.  Routes are counted by wrapping the module
attributes ``bench/workloads.py::instrument`` patches, so a renamed
callable or a flipped route fails here and not in the benchmark.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro.core.batchlane as batchlane
import repro.platform.base as platform_base
import repro.sim.analytic as sim_analytic
import repro.sim.engine as sim_engine
from repro.core.actions import Modify
from repro.core.framework import SpeedyBox
from repro.ft import FaultInjector, FaultTolerance, SharedPortPool, TransactionalStore
from repro.net.headers import TCP_FIN, TCP_RST
from repro.nf import IPFilter, MaglevLoadBalancer, MazuNAT, Monitor, SyntheticNF
from repro.obs import (
    AuditLog,
    FlowSpanRecorder,
    ForensicsEngine,
    MetricsRegistry,
    PacketTracer,
    TimeSeries,
)
from repro.platform import BessPlatform, OpenNetVMPlatform
from repro.scale import ScaleCluster
from repro.traffic.columnar import uniform_batch
from repro.traffic.datacenter import DatacenterTraceConfig, DatacenterTraceGenerator
from tests.integration.helpers import (
    InterpretedSpeedyBox,
    batch_over,
    colliding_flows,
    count_interpreted,
    des_run_load,
)

PLATFORMS = {"bess": BessPlatform, "onvm": OpenNetVMPlatform}
INPUTS = ("packets", "packet_view", "batch")
ATTACHED = ("nothing", "spans", "timeseries+forensics", "registry", "tracer", "all")
ARRIVALS = {
    "saturation": {},
    "gapped": {"inter_arrival_ns": 180.5},
    "timestamps": {"use_timestamps": True},
}


def header_chain():
    return [
        SyntheticNF("ttl", action=Modify.ttl_dec(), sf_payload_class=None),
        SyntheticNF("mark", action=Modify.set(dst_port=8080), sf_payload_class=None),
    ]


def stateful_chain():
    return [MazuNAT("nat"), Monitor("mon"), IPFilter("fw")]


#: chain -> (NF factory, SpeedyBox keyword arguments, uniform_batch keyword arguments)
CHAINS = {
    "header": (header_chain, {}, {}),
    "stateful": (
        stateful_chain,
        {"max_tracked_flows": 4, "max_flows": 4},
        {"protocol": "tcp", "handshake": True, "fin": True},
    ),
}
# ... and each again with all ten flows hashing to one FID, so nine of them
# are displaced: the routes and the references' agreement must not notice.
CHAINS.update({f"{name}-one-fid": cell for name, cell in list(CHAINS.items())})


def make_batch(chain: str, arrival: str):
    batch_kwargs = dict(interleave="round_robin", block=5, **CHAINS[chain][2])
    if chain.endswith("-one-fid"):
        flows = colliding_flows(10, batch_kwargs.get("protocol", "udp"))
        batch = batch_over(flows, 5, **batch_kwargs)
    else:
        batch = uniform_batch(10, 5, **batch_kwargs)
    if arrival == "timestamps":
        batch.timestamp_ns = np.arange(len(batch)) * 91.25
    return batch


def journal(audit: AuditLog, lanes: bool = True) -> list:
    """The audit events without their sequence numbers; ``lanes=False``
    also drops what only a compiling runtime can say."""
    return [
        {key: value for key, value in event.items() if key != "seq"}
        for event in audit.events()
        if lanes or not event["kind"].startswith("fastpath_")
    ]


@functools.lru_cache(maxsize=None)
def references(chain: str, platform_name: str, arrival: str):
    """(LoadResult, stats, journal without lane events) of the
    interpreted runtime under the DES, and the full journal of the
    compiled runtime on a plain packet list with nothing attached."""
    build, sbox_kwargs, __ = CHAINS[chain]
    packets = list(make_batch(chain, arrival).packet_view())
    audit = AuditLog()
    runtime = InterpretedSpeedyBox(build(), audit=audit, **sbox_kwargs)
    result = des_run_load(PLATFORMS[platform_name](runtime), packets, **ARRIVALS[arrival])
    compiled_audit = AuditLog()
    PLATFORMS[platform_name](SpeedyBox(build(), audit=compiled_audit, **sbox_kwargs)).run_load(
        list(make_batch(chain, arrival).packet_view()), **ARRIVALS[arrival]
    )
    return result, runtime.stats(), journal(audit, lanes=False), journal(compiled_audit)


@functools.lru_cache(maxsize=None)
def forensic_rows(chain: str, platform_name: str, arrival: str, attached: str) -> list:
    """What the attached forensics engine reports about the run when it
    is offered as a plain packet list."""
    build, sbox_kwargs, __ = CHAINS[chain]
    runtime_kwargs, platform_kwargs = attach(attached)
    platform = PLATFORMS[platform_name](
        SpeedyBox(build(), **sbox_kwargs, **runtime_kwargs), **platform_kwargs
    )
    platform.run_load(list(make_batch(chain, arrival).packet_view()), **ARRIVALS[arrival])
    return unlabelled_rows(platform.forensics)


def unlabelled_rows(engine: ForensicsEngine) -> list:
    """The engine's rows without the label that names the replay."""
    return [{key: value for key, value in row.items() if key != "lane"} for row in engine.rows()]


def attach(what: str) -> tuple:
    """(SpeedyBox kwargs, platform kwargs) for one ``ATTACHED`` entry."""
    runtime_kwargs, platform_kwargs = {}, {}
    everything = what == "all"
    if everything or what == "spans":
        platform_kwargs["spans"] = FlowSpanRecorder(every=2)
    if everything or what == "timeseries+forensics":
        platform_kwargs["timeseries"] = TimeSeries(window_packets=16)
        platform_kwargs["forensics"] = ForensicsEngine(window_packets=16, sample_every=4)
    if everything or what == "registry":
        runtime_kwargs["metrics"] = platform_kwargs["metrics"] = MetricsRegistry()
    if everything or what == "tracer":
        platform_kwargs["tracer"] = PacketTracer()
    return runtime_kwargs, platform_kwargs


def expected_route(offered: str, attached: str, platform_name: str, arrival: str) -> tuple:
    """docs/performance.md's decision table: (functional route, replay)."""
    watched = attached in ("registry", "tracer", "all")
    lane = offered == "batch" and arrival != "timestamps" and not watched
    if watched:
        replay = "des"
    elif lane and arrival == "saturation" and platform_name == "bess":
        # BESS plans are one hop on one stage whatever the chain; ONVM's
        # slow path walks the NF stages, so the vector replay declines.
        replay = "vector"
    else:
        replay = "analytic"
    return ("lane" if lane else "per-packet"), replay


@pytest.fixture
def routes(monkeypatch):
    """Names of the route callables a run goes through, in call order
    (``vector`` only when the vector replay accepted the run)."""
    taken = []

    def counted(owner, attribute, name, accepted=lambda returned: True):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            returned = original(*args, **kwargs)
            if accepted(returned):
                taken.append(name)
            return returned

        monkeypatch.setattr(owner, attribute, wrapper)

    counted(platform_base, "analytic_replay", "analytic")
    counted(sim_analytic, "analytic_replay_vector", "vector", lambda got: got is not None)
    counted(sim_engine.Engine, "run", "des")
    counted(batchlane.BatchLane, "run", "lane")
    return taken


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize("attached", ATTACHED)
@pytest.mark.parametrize("offered", INPUTS)
def test_route_matrix(routes, offered, attached, platform_name, arrival, chain):
    reference, stats, interpreted_journal, compiled_journal = references(
        chain, platform_name, arrival
    )
    runtime_kwargs, platform_kwargs = attach(attached)
    if "forensics" in platform_kwargs:
        forensic_reference = forensic_rows(chain, platform_name, arrival, attached)
    del routes[:]  # the references' own replays

    build, sbox_kwargs, __ = CHAINS[chain]
    audit = AuditLog()
    runtime = SpeedyBox(build(), audit=audit, **sbox_kwargs, **runtime_kwargs)
    platform = PLATFORMS[platform_name](runtime, **platform_kwargs)
    batch = make_batch(chain, arrival)
    load = {
        "packets": lambda: list(batch.packet_view()),
        "packet_view": batch.packet_view,
        "batch": lambda: batch,
    }[offered]()
    result = platform.run_load(load, **ARRIVALS[arrival])

    assert result == reference
    assert runtime.stats() == stats
    assert journal(audit, lanes=False) == interpreted_journal
    assert journal(audit) == compiled_journal
    if platform.forensics is not None:
        # fid, fast flag and the service / transfer split of every row
        # come from the report that made the plan, whoever ran it
        assert unlabelled_rows(platform.forensics) == forensic_reference

    functional, replay = expected_route(offered, attached, platform_name, arrival)
    assert routes.count("lane") == (1 if functional == "lane" else 0)
    assert (platform.last_lane_stats is not None) == (functional == "lane")
    if functional == "lane" and chain.startswith("header"):
        # not a lane in name only: the array path served packets
        assert platform.last_lane_stats["span_packets"] > 0
    assert [name for name in routes if name != "lane"] == [replay]


# -- the paper's Chain 1: events do not pick the route ---------------------------


def test_chain1_events_stay_on_the_compiled_lane(routes):
    """MazuNAT + Maglev + Monitor + IPFilter on ONVM over the datacenter
    trace: Maglev keeps one recurring event active on every flow, and the
    compiled lane checks it itself.  ``_run_fast`` is left with exactly
    the teardown packets, and the result is the references' float for
    float."""

    def chain1():
        return [
            MazuNAT("mazunat", external_ip="203.0.113.50", internal_prefix="10.0.0.0/8"),
            MaglevLoadBalancer("maglev", table_size=131),
            Monitor("monitor"),
            IPFilter("ipfilter"),
        ]

    def trace():
        # bench/workloads.py's dc_chain trace, 40 flows of its 600
        config = DatacenterTraceConfig(
            flows=40,
            seed=2019,
            lognormal_mu=2.3,
            lognormal_sigma=0.8,
            large_packet_fraction=0.25,
            max_packets_per_flow=120,
        )
        return DatacenterTraceGenerator(config).timestamped_packets()

    reference = des_run_load(OpenNetVMPlatform(InterpretedSpeedyBox(chain1())), trace())
    del routes[:]

    runtime = SpeedyBox(chain1())
    interpreted = count_interpreted(runtime)
    platform = OpenNetVMPlatform(runtime)
    result = platform.run_load(trace())

    assert result == reference
    assert routes == ["analytic"]
    assert runtime.event_table.total_registered == 40  # one per flow, never fired
    assert runtime.event_table.total_triggered == 0
    closing = sum(1 for packet in trace() if packet.l4.flags & (TCP_FIN | TCP_RST))
    assert len(interpreted) == closing == 40
    assert all(report.closing for report in interpreted)
    assert runtime.fast_packets > 5 * closing  # the rest rode the lane


# -- the cluster joins the matrix ------------------------------------------------
#
# ``ScaleCluster.run_load`` is a dispatcher in front of the same tail: with
# no core pool every replica finishes through its own platform's ``_replay``
# (the route it would take alone, its own engine if that route is the DES);
# only ``physical_cores`` couples the replicas on one shared engine.


def offered_gap(arrival: str) -> float:
    return ARRIVALS[arrival].get("inter_arrival_ns", 0.0)


def sim_stamps(recorder: FlowSpanRecorder) -> dict:
    """(fid, k) -> the simulated times stamped on flow ``fid``'s k-th
    recorded packet; every recorded root must carry all three."""
    stamps, seen = {}, {}
    for root in recorder.roots():
        args = root["args"]
        k = seen[args["fid"]] = seen.get(args["fid"], -1) + 1
        stamps[args["fid"], k] = (
            args["sim_arrival_ns"], args["sim_finish_ns"], args["sim_latency_ns"]
        )
    return stamps


@pytest.mark.parametrize("cores", [None, 2])
@pytest.mark.parametrize("arrival", ["saturation", "gapped"])
@pytest.mark.parametrize("platform_name", sorted(PLATFORMS))
@pytest.mark.parametrize(
    "attached", ["nothing", "spans", "timeseries+forensics", "registry", "tracer"]
)
@pytest.mark.parametrize("replicas", [1, 3])
def test_cluster_route_matrix(routes, replicas, attached, platform_name, arrival, cores):
    chain = "stateful"
    reference = references(chain, platform_name, arrival)[0]
    del routes[:]

    build, sbox_kwargs, __ = CHAINS[chain]
    observers = attach(attached)[1]
    cluster = ScaleCluster(
        build,
        platform=platform_name,
        replicas=replicas,
        speedybox_kwargs=sbox_kwargs,
        physical_cores=cores,
        **observers,
    )
    packets = list(make_batch(chain, arrival).packet_view())
    shares = {rid: [] for rid in cluster.replicas}
    for index, packet in enumerate(packets):
        shares[cluster.home_of(packet.five_tuple())].append(index)
    result = cluster.run_load(packets, **ARRIVALS[arrival])

    total = result.total
    assert (total.offered, total.delivered, total.dropped) == (
        reference.offered, reference.delivered, reference.dropped
    )
    assert {rid: part.offered for rid, part in result.per_replica.items()} == {
        rid: len(share) for rid, share in shares.items()
    }
    # one recorder shared by the replicas: every root a run records is
    # stamped by the tail of the replica that recorded it
    stamped = sim_stamps(observers["spans"]) if attached == "spans" else {}
    assert bool(stamped) == (attached == "spans")
    if cores is not None:
        assert routes == ["des"]  # one shared engine, whatever is attached
        return
    # each replica's own route: as many engines as replicas that took the DES
    assert routes == ["des" if attached in ("registry", "tracer") else "analytic"] * replicas

    fresh = list(make_batch(chain, arrival).packet_view())
    again = list(make_batch(chain, arrival).packet_view())
    solo_stamped = {}
    for rid, share in shares.items():
        arrivals = [index * offered_gap(arrival) for index in share]
        gaps = [now - before for before, now in zip([0.0] + arrivals, arrivals)]
        solo = des_run_load(
            PLATFORMS[platform_name](InterpretedSpeedyBox(build(), **sbox_kwargs)),
            [fresh[index] for index in share],
            gaps=gaps,
        )
        assert result.per_replica[rid] == solo
        if attached != "spans":
            continue
        # ... and a platform alone, offered this replica's share at the
        # same times, stamps every packet of a sampled flow the same
        alone = PLATFORMS[platform_name](
            SpeedyBox(build(), **sbox_kwargs), spans=FlowSpanRecorder(every=1)
        )
        alone._replay(
            alone._functional_pass([again[index] for index in share]), gaps, offered_gap(arrival)
        )
        solo_stamped.update(sim_stamps(alone.spans))
    assert stamped.items() <= solo_stamped.items()
    if replicas == 1:
        assert total == reference


def test_cluster_kill_and_recover_window(routes):
    """A replica killed mid-window leaves ``cluster.replicas`` but stays a
    participant: its pre-kill packets replay with everyone else's, the
    packets buffered against it are recovery's, and nothing is lost."""
    pool = SharedPortPool(TransactionalStore(), port_range=(20000, 60000))

    def build():
        return [MazuNAT("nat", port_range=(20000, 60000), port_pool=pool), Monitor("mon"), IPFilter("fw")]

    packets = list(
        uniform_batch(12, 8, interleave="round_robin", block=8, **CHAINS["stateful"][2]).packet_view()
    )
    cluster = ScaleCluster(build, platform="onvm", replicas=3)
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=8,
        injector=FaultInjector(kill_at=40, recover_after=12),
        charge_recovery=False,
    )
    del routes[:]
    result = cluster.run_load(packets, inter_arrival_ns=180.5)

    (recovery,) = ft.recoveries
    assert recovery.replica not in cluster.replicas
    assert result.per_replica[recovery.replica].offered > 0
    assert recovery.packets_delivered == ft.packets_buffered > 0
    total = result.total
    assert len(packets) == total.delivered + total.dropped + recovery.packets_delivered
    assert total.offered == sum(part.offered for part in result.per_replica.values())
    assert routes == ["analytic"] * 3


def test_shared_recorder_keeps_an_earlier_runs_stamps():
    """A run's tail stamps the roots that run recorded and no others:
    the tails of a later ``run_load`` (one per replica, same shared
    recorder) must not restamp what ``run_load_batch`` left."""
    recorder = FlowSpanRecorder(every=1)
    cluster = ScaleCluster(header_chain, replicas=2, spans=recorder)
    cluster.run_load_batch(make_batch("header", "saturation"))
    stamps = [dict(root["args"]) for root in recorder.roots()]
    assert stamps and all("sim_finish_ns" in args for args in stamps)
    cluster.run_load(list(make_batch("header", "saturation").packet_view()), inter_arrival_ns=977.0)
    assert [root["args"] for root in recorder.roots()[: len(stamps)]] == stamps
