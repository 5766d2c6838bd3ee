"""The paper's primary contribution: cross-NF runtime consolidation.

Components (mapping to the paper's sections):

- :mod:`repro.core.actions` — the five standardised header actions (§IV-A1).
- :mod:`repro.core.state_function` — state functions and batches (§IV-A2).
- :mod:`repro.core.local_mat` — per-NF Local MAT + instrumentation APIs
  (§IV-B, Fig. 2).
- :mod:`repro.core.consolidation` — header-action consolidation (§V-B).
- :mod:`repro.core.parallel` — state-function batch parallelism (§V-C2,
  Table I).
- :mod:`repro.core.event_table` — the Event Table (§V-C1, Fig. 3).
- :mod:`repro.core.global_mat` — the Global MAT (§V).
- :mod:`repro.core.classifier` — the Packet Classifier and FID scheme
  (§III, §VI-B).
- :mod:`repro.core.framework` — the SpeedyBox runtime (§III, Fig. 1).
"""

from repro.core.actions import (
    Decap,
    Drop,
    Encap,
    FieldOp,
    Forward,
    HeaderAction,
    HeaderActionKind,
    Modify,
)
from repro.core.classifier import FID_BITS, PacketClassifier, fid_of
from repro.core.consolidation import ConsolidatedAction, consolidate_header_actions
from repro.core.event_table import Event, EventTable
from repro.core.director import DirectedReport, ServiceDirector, SteeringRule
from repro.core.framework import FlowRecord, ServiceChain, SpeedyBox
from repro.core.global_mat import GlobalMAT, GlobalRule
from repro.core.inspector import describe_rule, dump_global_mat
from repro.core.verification import VerificationReport, verify_equivalence
from repro.core.local_mat import InstrumentationAPI, LocalMAT, LocalRule
from repro.core.parallel import ParallelSchedule, batches_parallelizable, build_schedule
from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch

__all__ = [
    "ConsolidatedAction",
    "Decap",
    "DirectedReport",
    "Drop",
    "Encap",
    "Event",
    "EventTable",
    "FID_BITS",
    "FieldOp",
    "FlowRecord",
    "Forward",
    "GlobalMAT",
    "GlobalRule",
    "HeaderAction",
    "HeaderActionKind",
    "InstrumentationAPI",
    "LocalMAT",
    "LocalRule",
    "Modify",
    "PacketClassifier",
    "ParallelSchedule",
    "PayloadClass",
    "ServiceChain",
    "ServiceDirector",
    "SpeedyBox",
    "StateFunction",
    "StateFunctionBatch",
    "SteeringRule",
    "VerificationReport",
    "batches_parallelizable",
    "build_schedule",
    "consolidate_header_actions",
    "describe_rule",
    "dump_global_mat",
    "fid_of",
    "verify_equivalence",
]
