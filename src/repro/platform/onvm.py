"""The OpenNetVM platform model (§VI-A).

"OpenNetVM runs each NF on one dedicated core, and interconnects NFs
leveraging RX/TX queues that deliver shared memory packet descriptors."
Consequences modelled here:

- every NF hop costs a ring enqueue + dequeue plus a cross-core cache
  transfer, so per-hop transport is pricier than BESS's in-process
  dispatch (this is why header-action consolidation contributes
  relatively less of the win on ONVM than state-function parallelism —
  Fig. 7's 58.9% vs 50.6% split);
- the chain is *pipelined*: each NF core works on a different packet, so
  the original chain's throughput stays roughly flat as the chain grows
  (Fig. 5a, Fig. 8) even though latency keeps climbing;
- the SpeedyBox prototype puts the Global MAT at the NF Manager and the
  packet classifier at the Manager's RX thread; fast-path packets are
  served entirely by the Manager core and bypass the NF cores.

Stage topology for loaded runs: stage 0 is the Manager (classifier +
Global MAT + NIC), stages 1..k the NF cores.  Slow-path packets visit
0 → 1 → ... → k; fast-path packets are served at stage 0 alone — they
can overtake slow packets, as in the real system.

Core budget: the paper's testbed has 14 physical cores, which caps ONVM
chains at 5 NFs (manager + NFs + housekeeping); :attr:`MAX_CHAIN_LENGTH`
enforces the same limit so Fig. 8 reproduces the constraint.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.framework import ProcessReport, ServiceChain, SpeedyBox
from repro.platform.base import Platform, PlatformConfig, StagePlan


class OpenNetVMPlatform(Platform):
    """Pipelined, core-per-NF chain execution."""

    name = "onvm"

    #: Fig. 8: "we can only support a maximum chain length of 5, limited
    #: by the number of cores on our testbed".
    MAX_CHAIN_LENGTH = 5

    def __init__(
        self,
        runtime: Union[ServiceChain, SpeedyBox],
        config: Optional[PlatformConfig] = None,
        **kwargs,
    ):
        super().__init__(runtime, config, **kwargs)
        if len(runtime.nfs) > self.MAX_CHAIN_LENGTH:
            raise ValueError(
                f"OpenNetVM on the paper's 14-core testbed supports at most "
                f"{self.MAX_CHAIN_LENGTH} NFs per chain, got {len(runtime.nfs)}"
            )
        #: NF name -> its core's stage (1..k; see ``_stage_count``)
        self._stage_of = {nf.name: index + 1 for index, nf in enumerate(runtime.nfs)}

    def _transport_cycles_per_hop(self) -> float:
        model = self.costs
        return model.ring_enqueue + model.ring_dequeue + model.cross_core_sync

    def _parallel_sync_cycles(self) -> float:
        # Workers are separate cores: each parallel wave pays extra
        # signalling on top of fork/join — a cache-line flag flip, about
        # half a full descriptor transfer.
        return self.costs.cross_core_sync / 2.0

    def _fast_path_extra_cycles(self) -> float:
        # The Manager hands fast-path packets to the TX thread over a
        # shared-memory ring — inter-core overhead the fast path cannot
        # consolidate away (this is why header-action consolidation
        # contributes relatively less on ONVM, §VII-B1 / Fig. 7).
        return self.costs.ring_enqueue + self.costs.ring_dequeue

    # -- loaded mode: manager + one stage per NF + the SF worker stage --------

    def _stage_count(self) -> int:
        # Stage 0: Manager.  Stages 1..k: NF cores.  Stage k+1: the
        # worker pool running offloaded fast-path SF waves — serial,
        # because state functions of the same flow must not race (and
        # the saturation benchmarks drive a single flow).
        return 2 + len(self.runtime.nfs)

    def _stage_label(self, stage_index: int) -> str:
        # Stage 0 is the Manager core, 1..k the per-NF cores, k+1 the
        # SF worker pool — one trace track / ring label per core.
        if stage_index == 0:
            return "manager"
        if stage_index == 1 + len(self.runtime.nfs):
            return "sf-workers"
        return f"nf:{self.runtime.nfs[stage_index - 1].name}"

    def _stage_plan(self, report: ProcessReport) -> StagePlan:
        model = self.costs
        # ``model.cycles_to_ns`` is ``cycles * model.ns_per_cycle()``
        ns_per_cycle = model.ns_per_cycle()
        manager_cycles = report.fixed_meter.cycles(model) + model.nic_rx

        if report.is_fast:
            # The Manager executes the fixed fast path plus the inline
            # (single-batch) waves and the fork/join of parallel waves;
            # parallel batches run on worker cores while the Manager
            # pipelines on to the next packet, so they are a hop on the
            # worker stage, not Manager occupancy.
            __, sf_latency, sf_main = self._time_sf_waves(report)
            manager_total = (
                manager_cycles + sf_main + self._fast_path_extra_cycles() + model.nic_tx
            )
            offloaded = sf_latency - sf_main
            plan: StagePlan = [(0, manager_total * ns_per_cycle)]
            if offloaded > 0:
                worker_stage = 1 + len(self.runtime.nfs)
                plan.append((worker_stage, offloaded * ns_per_cycle))
            return plan

        hop = self._transport_cycles_per_hop()
        stage_of = self._stage_of
        plan = [(0, manager_cycles * ns_per_cycle)]
        last = len(report.nf_meters) - 1
        for position, (nf_name, meter) in enumerate(report.nf_meters):
            stage_cycles = meter.cycles(model) + hop
            if position == last:
                stage_cycles += model.nic_tx
            plan.append((stage_of[nf_name], stage_cycles * ns_per_cycle))
        return plan
