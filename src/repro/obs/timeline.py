"""Unloaded-mode packet timelines: ProcessReport → tracer spans.

:func:`trace_unloaded` lays one packet's journey out on tracer tracks
using the platform's own cost model for durations — NIC RX, the
classifier + MAT fixed work, then either the slow path (per-hop
transport + NF service, chain order) or the fast path (dispatch, the
consolidated header action, and the state-function schedule with
parallel waves fanned out onto per-worker-core tracks exactly as the
platform's list scheduler would place them), and finally NIC TX.
Tracks are ``<platform>:<variant>:main`` and ``...:worker<i>``, one
swimlane per core; every span carries its raw cycle count in ``args``.

All but a timeline's start, packet number and FID follows from the
platform and the report, so a packet adds one row of an
:class:`~repro.obs.trace.EventTemplate` shared by every packet of that
shape, whatever its flow.  Loaded-mode (``run_load``) tracing lives in
the platform, where the discrete-event engine supplies the timestamps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.obs.trace import PACKET, VALUE, PacketTracer

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.framework import ProcessReport
    from repro.platform.base import Platform


def _variant(platform: "Platform") -> str:
    return "speedybox" if platform.with_speedybox else "original"


def trace_unloaded(
    tracer: PacketTracer,
    platform: "Platform",
    report: "ProcessReport",
    start_ns: float,
    packet_index: int,
) -> float:
    """Record one packet's spans starting at ``start_ns``; returns end time."""
    if report.steady:
        key = (platform, id(report))
        # the entry holds its report: a recycled id() cannot match it
        entry = tracer.templates.get(key)
        if entry is None or entry[0] is not report:
            entry = tracer.templates[key] = (report, _timeline(tracer, platform, report))
        template = entry[1]
    else:
        template = _timeline(tracer, platform, report)
    tracer.add(template, start_ns, packet_index, report.fid)
    t = start_ns
    for entry in template.entries:
        t += entry[4]
    return t


def _timeline(tracer: PacketTracer, platform: "Platform", report: "ProcessReport"):
    """The template of a packet's events on ``platform``."""
    model = platform.costs
    base = f"{platform.name}:{_variant(platform)}"
    main = f"{base}:main"
    common = {"packet": PACKET, "fid": VALUE, "path": report.path.value}
    entries: List[tuple] = []

    def span(name, cycles, track=main, off=0.0, advance=True, wall=None, **args) -> None:
        """A span of ``cycles`` (``wall`` long, when given) at ``t + off``."""
        dur = model.cycles_to_ns(cycles if wall is None else wall)
        args = {"cycles": cycles, **args, **common}
        entries.append((0, name, track, off, dur if advance else 0.0, dur, args))

    span("nic_rx", model.nic_rx / platform.config.batch_size)
    span("classify+mat", report.fixed_meter.cycles(model))
    if report.is_fast:
        extra = platform._fast_path_extra_cycles()
        if extra:
            span("fast_path_tx_ring", extra)
        for wave_index, wave in enumerate(report.sf_waves):
            if len(wave) == 1:
                nf_name, meter = wave[0]
                span(f"sf:{nf_name}", meter.cycles(model), wave=wave_index)
                continue
            overhead = model.worker_fork + model.worker_join + platform._parallel_sync_cycles()
            # Greedy LPT placement, mirroring makespan_with_workers: longest
            # batch first onto the earliest-finishing worker core.
            durations: List[Tuple[float, str]] = sorted(
                ((meter.cycles(model), nf_name) for nf_name, meter in wave), reverse=True
            )
            workers = max(1, min(platform.config.worker_cores, len(durations)))
            finish = [0.0] * workers
            for cycles, nf_name in durations:
                slot = finish.index(min(finish))
                span(f"sf:{nf_name}", cycles, f"{base}:worker{slot}",
                     model.cycles_to_ns(finish[slot]), False, wave=wave_index)
                finish[slot] += cycles
            span("fork+join", overhead, wall=max(finish) + overhead, wave=wave_index,
                 batches=len(wave))
    else:
        hop_cycles = platform._transport_cycles_per_hop()
        for nf_name, meter in report.nf_meters:
            span("transport", hop_cycles)
            span(f"nf:{nf_name}", meter.cycles(model))

    if report.events_fired:
        entries.append((1, "events_fired", main, 0.0, 0.0, 0.0,
                        {"count": report.events_fired, **common}))
    if report.dropped:
        entries.append((1, "dropped", main, 0.0, 0.0, 0.0, dict(common)))
    else:
        span("nic_tx", model.nic_tx / platform.config.batch_size)
    return tracer.shared(tuple((*entry[:6], *entry[6].items()) for entry in entries),
                         tuple(entries))
