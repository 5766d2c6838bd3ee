"""Synthetic NFs for the microbenchmarks (§VII-A).

The paper's state-function parallelism benchmark (Fig. 5) uses "a chain
of 1-3 identical synthetic NFs ... no header action, and one state
function that is equivalent to the Snort packet inspection (does not
modify payload)".  :class:`SyntheticNF` realises that and generalises it:
a configurable header action plus a configurable state function with a
chosen payload class and work amount, so benchmarks can compose arbitrary
cost/dependency structures.
"""

from __future__ import annotations

from typing import Optional

from repro.core.actions import Forward, HeaderAction
from repro.core.local_mat import InstrumentationAPI
from repro.core.state_function import PayloadClass
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.platform.costs import Operation

# Enum members hoisted off the per-packet path (a class read runs Enum's hook)
_PAYLOAD_BYTE_SCAN, _PAYLOAD_BYTE_WRITE = Operation.PAYLOAD_BYTE_SCAN, Operation.PAYLOAD_BYTE_WRITE
_FIELD_WRITE, _CHECKSUM_UPDATE = Operation.FIELD_WRITE, Operation.CHECKSUM_UPDATE
_DROP_FREE, _WRITE = Operation.DROP_FREE, PayloadClass.WRITE


class SyntheticNF(NetworkFunction):
    """A configurable NF for microbenchmarks.

    Parameters
    ----------
    action:
        Header action recorded (and applied) per flow; ``None`` = FORWARD.
    sf_payload_class:
        Payload class of the synthetic state function; ``None`` disables
        the state function entirely.
    sf_work_cycles:
        Fixed cycle cost charged per state-function invocation (models the
        Snort-equivalent inspection workload).
    sf_scans_payload:
        When True, additionally charges per-byte payload scan cost —
        latency then depends on packet size like a real DPI pass.
    """

    # First-packet behaviour is a pure function of packet shape: the
    # recorded action is a constructor argument, the state function (when
    # enabled) makes the recording dynamic and the batch lane's template
    # guards exclude it anyway, and the only per-flow side effect is the
    # ingress counter that admit_flows() replays.
    setup_flow_oblivious = True

    def __init__(
        self,
        name: str,
        action: Optional[HeaderAction] = None,
        sf_payload_class: Optional[PayloadClass] = PayloadClass.READ,
        sf_work_cycles: float = 1600.0,
        sf_scans_payload: bool = False,
    ):
        super().__init__(name)
        self.action = action
        self.sf_payload_class = sf_payload_class
        self.sf_work_cycles = sf_work_cycles
        self.sf_scans_payload = sf_scans_payload
        self.sf_invocations = 0
        self.payload_writes = 0

    def work(self, packet: Packet) -> None:
        """The synthetic state function."""
        self.sf_invocations += 1
        self.meter.charge_cycles(self.sf_work_cycles)
        if self.sf_scans_payload:
            self.charge(_PAYLOAD_BYTE_SCAN, len(packet.payload))
        if self.sf_payload_class is _WRITE and packet.payload:
            # A deterministic, idempotence-free transform so equivalence
            # tests can detect ordering violations: rotate-add each byte.
            self.payload_writes += 1
            self.charge(_PAYLOAD_BYTE_WRITE, len(packet.payload))
            packet.payload = bytes((b + 1) & 0xFF for b in packet.payload)

    def process(self, packet: Packet, api: InstrumentationAPI) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)

        if self.action is not None:
            from repro.core.actions import Drop, Modify

            if isinstance(self.action, Modify):
                self.charge(_FIELD_WRITE, len(self.action.ops))
                self.charge(_CHECKSUM_UPDATE)
            elif isinstance(self.action, Drop):
                self.charge(_DROP_FREE)
            self.action.apply(packet)
            api.add_header_action(fid, self.action)
            if packet.dropped:
                return
        else:
            api.add_header_action(fid, Forward())

        if self.sf_payload_class is not None:
            self.work(packet)
            api.add_state_function(
                fid,
                self.work,
                self.sf_payload_class,
                name="work",
            )

    def reset(self) -> None:
        super().reset()
        self.sf_invocations = 0
        self.payload_writes = 0
