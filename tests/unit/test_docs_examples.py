"""The code blocks in the documentation must keep working.

Extracts fenced python blocks from README.md and docs/writing_nfs.md and
executes the ones that define the documented usage patterns — the docs
are part of the public API surface.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: Path):
    return _FENCE_RE.findall(path.read_text())


class TestReadmeExample:
    def test_quick_tour_runs(self, capsys):
        blocks = python_blocks(REPO / "README.md")
        assert blocks, "README lost its quick-tour code block"
        namespace: dict = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)  # noqa: S102
        out = capsys.readouterr().out
        assert "original" in out
        assert "fast" in out


class TestWritingNfsGuide:
    def test_port_counter_example_is_a_working_nf(self):
        blocks = python_blocks(REPO / "docs" / "writing_nfs.md")
        assert blocks, "writing_nfs.md lost its example"
        namespace: dict = {}
        exec(compile(blocks[0], "writing_nfs.md", "exec"), namespace)  # noqa: S102
        PortCounter = namespace["PortCounter"]

        from repro.core.framework import ServiceChain, SpeedyBox
        from repro.traffic import FlowSpec, TrafficGenerator
        from repro.traffic.generator import clone_packets

        packets = TrafficGenerator(
            [FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=5, payload=b"x")]
        ).packets()

        baseline = ServiceChain([PortCounter()])
        speedybox = SpeedyBox([PortCounter()])
        for packet in clone_packets(packets):
            baseline.process(packet)
        for packet in clone_packets(packets):
            speedybox.process(packet)

        # The documented pattern yields an equivalence-safe NF.
        assert baseline.nfs[0].per_port == speedybox.nfs[0].per_port == {80: 5}
        assert speedybox.fast_packets == 4

    def test_docs_reference_real_symbols(self):
        text = (REPO / "docs" / "writing_nfs.md").read_text()
        import repro.core.actions
        import repro.nf.base
        from repro.core.local_mat import InstrumentationAPI

        for symbol in ("add_header_action", "add_state_function", "register_event",
                       "nf_extract_fid"):
            assert symbol in text
            assert hasattr(InstrumentationAPI, symbol)


class TestCostModelDocAccuracy:
    def test_documented_constants_exist(self):
        from repro.platform.costs import CostModel

        text = (REPO / "docs" / "cost_model.md").read_text()
        names = re.findall(r"`(\w+)`", text)
        known = set(CostModel.operation_names()) | {
            "repro", "PlatformConfig", "CostModel", "PacketOutcome",
            "batch_size", "cost_model", "worker_cores", "clock_ghz",
            "makespan", "with_overrides", "name", "value",
        }
        cost_like = [n for n in names if n in CostModel.operation_names()]
        # The doc names a healthy sample of real constants, none stale.
        assert len(set(cost_like)) >= 15
        for name in names:
            if "_" in name and not name.startswith("repro"):
                assert name in known, f"docs mention unknown constant {name!r}"

    def test_documented_anchor_arithmetic(self):
        from repro.platform.costs import CostModel

        model = CostModel()
        assert model.nf_dispatch + model.parse + model.exact_match_lookup == 530
        assert model.ring_enqueue + model.ring_dequeue + model.cross_core_sync == 440


class TestObservabilityDocAccuracy:
    def test_documented_symbols_exist(self):
        import repro.obs as obs

        text = (REPO / "docs" / "observability.md").read_text()
        for symbol in ("MetricsRegistry", "PacketTracer", "CountingObserver",
                       "TracingObserver", "FanoutObserver", "NULL_REGISTRY",
                       "NULL_TRACER", "trace_unloaded"):
            assert symbol in text
            assert hasattr(obs, symbol)

    def test_documented_metric_families_are_real(self):
        """Every family named in the doc's tables shows up in an actual run."""
        from repro.core.framework import SpeedyBox
        from repro.nf import IPFilter
        from repro.obs import MetricsRegistry
        from repro.platform import BessPlatform
        from repro.traffic import FlowSpec, TrafficGenerator

        metrics = MetricsRegistry()
        platform = BessPlatform(
            SpeedyBox([IPFilter("fw")], metrics=metrics), metrics=metrics
        )
        packets = TrafficGenerator(
            [FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80, packets=6)]
        ).packets()
        platform.run_load(packets)

        text = (REPO / "docs" / "observability.md").read_text()
        documented = set(re.findall(r"`([a-z_]+_total|[a-z_]+_watermark|"
                                    r"[a-z_]*occupancy|[a-z_]*tracked_flows)", text))
        live = {key.split("{")[0] for key in metrics.snapshot()}
        # Families the minimal run can't exercise (ONVM, events, drops...).
        optional = {
            "classifier_fid_collisions_total", "global_mat_reconsolidations_total",
            "global_mat_evictions_total", "events_registered_total",
            "events_triggered_total", "event_checks_total", "slow_path_packets_total",
            "fast_path_events_fired_total", "packets_dropped_total",
            "flow_deletes_total", "chain_packets_total", "sim_store_blocked_total",
        }
        missing = documented - live - optional
        assert not missing, f"doc names families no run produces: {sorted(missing)}"

    def test_cli_flags_match_doc(self):
        from repro.cli import make_parser

        parser = make_parser()
        help_text = parser.format_help()
        text = (REPO / "docs" / "observability.md").read_text()
        assert "demo" in help_text and "sweep" in help_text
        # the run record's two flags, as the doc spells them, are demo's
        demo_help = parser._subparsers._group_actions[0].choices["demo"].format_help()
        for flag in ("--obs-out DIR", "--obs {run,full}"):
            assert flag in text and flag in demo_help
        for flag in ("--span-every", "--window-ns", "--window-packets", "--worst-k", "--slo"):
            assert flag in text and flag in demo_help
