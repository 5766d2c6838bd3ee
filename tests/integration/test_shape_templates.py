"""Telemetry templates keyed by report shape, against per-report builds.

A tracer keeps one unloaded timeline per (platform, report shape) and a
span recorder one flow-span template per (cost model, shape), so a
packet whose shape another flow produced builds nothing.  Two oracles
hold that to what a template built from the packet's own report shows:

* every packet of the export oracle's four captures and of a
  ``dc_obs``-shaped run (paper Chain 2, every surface on) gets, as
  events, exactly what a fresh build from its report gives;
* reports that differ in one part of the shape — an op count, the charge
  order, a meter's direct cycles, the drop flag, the events fired — never
  share a template.  Hand-made keys that each leave one part out must
  fail that second oracle.
"""

from __future__ import annotations

import pytest

import repro.obs.span as span_module
import repro.obs.timeline as timeline_module
import tests.integration.test_trace_export_oracle as captures
from repro.core.framework import PathTaken, ProcessReport, SpeedyBox
from repro.nf import IPFilter, Monitor, SnortIDS
from repro.obs import FlowSpanRecorder, PacketTracer
from repro.obs.span import _FlowTemplate
from repro.obs.timeline import _timeline, trace_unloaded
from repro.obs.trace import EventTemplate, Span
from repro.platform import BessPlatform
from repro.platform.base import Platform
from repro.platform.costs import CycleMeter


def events(template, row) -> list:
    """``row``'s events under ``template``, as comparable tuples."""
    out: tuple = ([], [], [])
    template.materialize(row, out)
    return [[(event.name, event.track, event.start_ns, event.dur_ns, event.depth, event.args)
             if isinstance(event, Span) else tuple(event) for event in kind] for kind in out]


@pytest.fixture
def watched(monkeypatch):
    """Check every observed packet's templates against fresh builds;
    yields the tally of packets checked per surface."""
    tally = {"timeline": 0, "spans": 0}
    observe = Platform._observe

    def checking(platform, report):
        tracer = platform.tracer
        before = len(tracer._rows)
        root = observe(platform, report)
        if root is not None:
            fresh = _FlowTemplate(report, platform.costs)
            assert root[2] == report.fid
            assert root[0].records(root) == fresh.records([fresh, *root[1:]])
            tally["spans"] += 1
        if tracer.enabled:
            (row,) = tracer._rows[before:]
            fresh = EventTemplate(_timeline(platform, report))
            assert row[3] == report.fid
            assert events(row[0], row) == events(fresh, (fresh, *row[1:]))
            tally["timeline"] += 1
        return root

    monkeypatch.setattr(Platform, "_observe", checking)
    yield tally


def test_the_bess_capture(watched, tmp_path):
    captures.test_bess_chain_2_with_every_surface_on(tmp_path)
    assert watched["timeline"] > 0 and watched["spans"] > 0


def test_the_onvm_unloaded_capture(watched, tmp_path):
    captures.test_onvm_chain_1_unloaded(tmp_path)
    assert watched["timeline"] > 0


def test_the_failover_capture(watched, tmp_path, monkeypatch):
    captures.test_a_failover_run(tmp_path, monkeypatch)
    assert watched["spans"] > 0


def test_the_late_spans_capture(watched, tmp_path):
    captures.test_spans_recorded_after_the_recorders(tmp_path)
    assert watched["timeline"] > 0 and watched["spans"] > 0


def test_a_dc_obs_shaped_run(watched):
    from bench.workloads import DcObs

    workload = DcObs(2019, scale=0.1)
    system = workload.build()
    workload.offer(system, workload.synthesize())
    recorder = system.obs.spans
    # every packet sampled, and (the tracer on) its timeline laid out too
    assert watched["spans"] == watched["timeline"] == recorder.packets_sampled > 100
    # shapes are few: far fewer templates than reports
    assert len({id(row[0]) for row in recorder._rows}) < 40


# -- reports one part of the shape apart ---------------------------------------------


def copy_meter(meter: CycleMeter) -> CycleMeter:
    copy = CycleMeter(dict(meter.counts))
    copy.direct_cycles = meter.direct_cycles
    return copy


def copy_report(report: ProcessReport) -> ProcessReport:
    return ProcessReport(
        path=report.path, fid=report.fid, dropped=report.dropped,
        events_fired=report.events_fired, fixed_meter=copy_meter(report.fixed_meter),
        nf_meters=[(name, copy_meter(meter)) for name, meter in report.nf_meters],
        sf_waves=[[(name, copy_meter(meter)) for name, meter in wave]
                  for wave in report.sf_waves],
    )


def recount(meter: CycleMeter) -> None:
    operation = next(iter(meter.counts))
    meter.counts[operation] += 1


def reorder(meter: CycleMeter) -> None:
    meter.counts = dict(reversed(list(meter.counts.items())))


def redirect(meter: CycleMeter) -> None:
    meter.direct_cycles += 1.0


def rename(report: ProcessReport) -> None:
    """The last NF (or SF batch) named after another NF."""
    meters = report.sf_waves[0] if report.sf_waves else report.nf_meters
    meters[-1] = ("other", meters[-1][1])


def variants(report: ProcessReport) -> dict:
    """Copies of ``report`` one part of its shape apart, by name."""
    meters = {"fixed": lambda copy: copy.fixed_meter}
    if report.nf_meters:
        meters["nf"] = lambda copy: copy.nf_meters[-1][1]
    if report.sf_waves:
        meters["sf"] = lambda copy: copy.sf_waves[0][-1][1]
    made = {}
    for where, meter_of in meters.items():
        for change in (recount, reorder, redirect):
            copy = copy_report(report)
            change(meter_of(copy))
            made[f"{where} {change.__name__}"] = copy
    other_path = (PathTaken.ORIGINAL if report.path is PathTaken.ORIGINAL_HANDSHAKE
                  else PathTaken.ORIGINAL_HANDSHAKE)
    for name, change in (("dropped", lambda copy: setattr(copy, "dropped", not copy.dropped)),
                         ("events", lambda copy: setattr(copy, "events_fired",
                                                         copy.events_fired + 1)),
                         ("path", lambda copy: setattr(copy, "path", other_path)),
                         ("renamed", rename)):
        copy = copy_report(report)
        change(copy)
        made[name] = copy
    return made


def chain_2_reports():
    """A slow-path first packet and a fast-path packet with an SF wave."""
    runtime = SpeedyBox([IPFilter("ipfilter"), SnortIDS("snort", captures.RULES),
                         Monitor("monitor")])
    reports = [runtime.process(packet) for packet in captures.mixed_traffic(flows=1)]
    slow = next(report for report in reports if report.nf_meters)
    fast = next(report for report in reports
                if report.path is PathTaken.FAST and report.sf_waves)
    assert all(len(meter.counts) > 1 for __, meter in (("", slow.fixed_meter), *slow.nf_meters))
    return slow, fast


def shared_with(base: ProcessReport, others: dict) -> list:
    """The names of ``others`` filed under a template ``base`` has, on
    one tracer and one span recorder."""
    platform = BessPlatform(SpeedyBox([IPFilter("ipfilter")]))
    tracer = PacketTracer()
    recorder = FlowSpanRecorder(every=1, max_spans_per_flow=None)

    def filed(report):
        trace_unloaded(tracer, platform, report, 0.0, 0)
        return {tracer._rows[-1][0], recorder.record(report, platform.costs)[0]}

    mine = filed(base)
    return [name for name, report in others.items() if filed(report) & mine]


def test_reports_one_part_apart_never_share_a_template():
    for base in chain_2_reports():
        made = variants(base)
        assert len(made) >= 10
        assert shared_with(base, made) == []
        # ... while a report of the same shape, another flow's, does
        twin = copy_report(base)
        twin.fid = base.fid + 1
        assert shared_with(base, {"twin": twin}) == ["twin"]


def reference_key(report, counts=True, order=True, direct=True, dropped=True, events=True,
                  path=True, names=True):
    """The shape key, with parts left out on request."""
    def meter_key(name, meter):
        items = list(meter.counts.items())
        if not order:
            items.sort(key=lambda item: item[0].value)
        return (name if names else None, tuple(items) if counts else tuple(op for op, __ in items),
                meter.direct_cycles if direct else None)

    return (report.path if path else None, report.dropped if dropped else None,
            report.events_fired if events else None, meter_key("", report.fixed_meter),
            tuple(meter_key(name, meter) for name, meter in report.nf_meters),
            tuple(tuple(meter_key(name, meter) for name, meter in wave)
                  for wave in report.sf_waves))


#: each mutant leaves one part out of the key
MUTANTS = {
    "no op counts": {"counts": False},
    "no charge order": {"order": False},
    "no direct cycles": {"direct": False},
    "no drop flag": {"dropped": False},
    "no events fired": {"events": False},
    "no path": {"path": False},
    "no meter names": {"names": False},
}


def keyed_by(monkeypatch, **parts) -> None:
    """Make every template cache key on ``reference_key(**parts)``."""
    shapes: dict = {}

    def shape_of(report):
        return shapes.setdefault(reference_key(report, **parts), object())

    monkeypatch.setattr(span_module, "shape_of", shape_of)
    monkeypatch.setattr(timeline_module, "shape_of", shape_of)


def test_the_reference_key_separates_every_variant(monkeypatch):
    keyed_by(monkeypatch)
    for base in chain_2_reports():
        assert shared_with(base, variants(base)) == []


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_a_key_missing_a_part_is_killed(mutant, monkeypatch):
    keyed_by(monkeypatch, **MUTANTS[mutant])
    assert any(shared_with(base, variants(base)) for base in chain_2_reports())
