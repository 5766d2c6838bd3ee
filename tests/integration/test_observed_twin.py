"""An observed cluster run equals its unobserved twin.

Telemetry reads a finished run and nothing else: clusters wired the way
``repro scale --obs-out DIR --slo SPEC`` wires them — one time series,
health model, SLO engine and forensics engine shared by the sweep's
rows — must route, checkpoint, fail over and time every packet exactly
as the same clusters with nothing attached.  Each twin's coordinator
keeps a journal of its own, so the two runs' checkpoint rounds can be
compared; it is the only observer a twin has.

A row's verdicts depend on that row alone: the health model scores each
row's replicas from scratch and the regime-shift detector judges each
row's windows against that row's baseline, so the rows a sweep runs
first do not change the health, SLO and regime-shift journal entries of
the rows after them.
"""

import pytest

from repro.cli import (
    build_cluster,
    main,
    make_observability,
    make_parser,
    make_trace_packets,
    pooled_chain_factory,
)
from repro.obs.record import load_record
from repro.ft import FaultInjector, FaultTolerance
from repro.obs import AuditLog
from repro.scale import ScaleCluster
from repro.traffic.generator import clone_packets

CHAIN = "nat,monitor,firewall"
KILL_AT, RECOVER_AFTER = 300, 20
#: the sweep's rows, as ``repro scale --replicas 3`` runs them
ROWS = (1, 2, 3)


def scale_args(tmp_path):
    return make_parser().parse_args([
        "scale", "--chain", CHAIN, "--obs-out", str(tmp_path / "record"),
        "--slo", "p99<250us", "--slo", "loss<0.1%",
        "--kill-at", str(KILL_AT), "--recover-after", str(RECOVER_AFTER),
    ])


def injector(replicas: int) -> FaultInjector:
    # as ``repro scale``: a one-replica row has nothing to fail over onto
    return FaultInjector(kill_at=KILL_AT if replicas > 1 else None, recover_after=RECOVER_AFTER)


def unobserved(platform: str, replicas: int):
    """The cluster ``build_cluster`` builds (NATs on one port pool), with
    nothing attached."""
    cluster = ScaleCluster(pooled_chain_factory(CHAIN), platform=platform, replicas=replicas)
    ft = FaultTolerance(
        cluster,
        checkpoint_interval=32,
        injector=injector(replicas),
        audit=AuditLog(),
    )
    return cluster, ft


def checkpoint_journal(audit: AuditLog) -> list:
    return [
        {key: value for key, value in event.items() if key != "seq"}
        for event in audit.events("ft_checkpoint")
    ]


def recovery_view(ft: FaultTolerance) -> list:
    return [
        (r.replica, r.flows_restored, r.flows_rebuilt, r.packets_replayed,
         r.packets_delivered, r.packets_charged, r.stall_charged_ns, len(r.outcomes))
        for r in ft.recoveries
    ]


@pytest.mark.parametrize("platform", ["bess", "onvm"])
def test_observed_cluster_run_equals_its_unobserved_twin(platform, tmp_path):
    packets = make_trace_packets(40, 1)
    args = scale_args(tmp_path)
    obs = make_observability(args)
    for replicas in ROWS:
        watched, watched_ft = build_cluster(args, obs, platform, replicas, injector(replicas))
        plain, plain_ft = unobserved(platform, replicas)
        assert watched.timeseries is obs.timeseries and plain.timeseries is None
        before = len(obs.audit.events("ft_checkpoint"))

        result = watched.run_load(clone_packets(packets))
        twin = plain.run_load(clone_packets(packets))

        assert result == twin
        journal = checkpoint_journal(watched_ft.audit)[before:]
        assert journal == checkpoint_journal(plain_ft.audit)
        assert not any(event["cause"].startswith("health") for event in journal)
        assert recovery_view(watched_ft) == recovery_view(plain_ft)
        assert len(watched_ft.recoveries) == (replicas > 1)
    # ... and the telemetry did see the outages it left alone
    assert obs.timeseries.total_buffered > 0
    assert obs.audit.events("health_critical")


def row_verdicts(tmp_path, platforms: str):
    """``repro scale``'s health and SLO journal entries over ``platforms``
    (without their sequence numbers), and how many windows the sweep cut."""
    out = tmp_path / platforms.replace(",", "_")
    argv = ["scale", "--chain", CHAIN, "--replicas", "3", "--platforms", platforms,
            "--flows", "40", "--seed", "1", "--obs-out", str(out),
            "--slo", "p99<60us", "--slo", "loss<0.1%",
            "--kill-at", str(KILL_AT), "--recover-after", str(RECOVER_AFTER)]
    assert main(argv) == 0
    record = load_record(out)
    verdicts = [
        {key: value for key, value in event.items() if key != "seq"}
        for event in record.audit
        if event["kind"].startswith("health_") or event["kind"] == "slo_burn_alert"
    ]
    return verdicts, max(window["index"] for window in record.timeseries) + 1


def test_a_rows_verdicts_do_not_depend_on_the_rows_before_it(tmp_path, capsys):
    alone, alone_windows = row_verdicts(tmp_path, "onvm")
    after, after_windows = row_verdicts(tmp_path, "bess,onvm")
    capsys.readouterr()
    first = after_windows - alone_windows  # the onvm rows' first window
    onvm_rows = [
        {**event, "window": event["window"] - first}
        for event in after
        if event["window"] >= first
    ]
    kinds = {event["kind"] for event in alone}
    assert {"health_critical", "slo_burn_alert"} <= kinds
    assert onvm_rows == alone


def scale_record(tmp_path, platforms: str):
    """The record of ``repro scale`` over ``platforms``, charging recovery."""
    out = tmp_path / f"shifts_{platforms.replace(',', '_')}"
    assert main(["scale", "--replicas", "3", "--platforms", platforms, "--flows", "40",
                 "--seed", "1", "--kill-at", str(KILL_AT), "--obs-out", str(out)]) == 0
    return load_record(out)


def regime_shifts(record, first: int) -> list:
    """The record's ``latency_regime_shift`` events from the first event
    of window ``first`` on, without their sequence numbers and window
    indices."""
    begin = min(event["seq"] for event in record.audit
                if event.get("window") is not None and event["window"] >= first)
    return [
        {key: value for key, value in event.items() if key not in ("seq", "window")}
        for event in record.audit
        if event["kind"] == "latency_regime_shift" and event["seq"] >= begin
    ]


def test_a_rows_regime_shifts_do_not_depend_on_the_rows_before_it(tmp_path, capsys):
    """The detector's trailing p50/p99 baseline and its surge latch start
    afresh with each row: a bess-taught baseline used to make the first
    onvm row fire a queue shift (p50 199 915 ns against 97 635 ns) that
    the onvm rows alone do not."""
    alone = scale_record(tmp_path, "onvm")
    after = scale_record(tmp_path, "bess,onvm")
    capsys.readouterr()
    first = len(after.timeseries) - len(alone.timeseries)  # the onvm rows' first window
    shifts = regime_shifts(alone, 0)
    assert {event["metric"] for event in shifts} >= {"buffered_fraction", "stall_charge"}
    assert regime_shifts(after, first) == shifts
