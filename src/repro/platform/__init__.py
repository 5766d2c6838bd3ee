"""NFV execution platforms.

Two platform models mirror the paper's prototypes (§VI-A):

- :mod:`repro.platform.bess` — BESS: the whole service chain runs
  run-to-completion as a single process on one dedicated core.
- :mod:`repro.platform.onvm` — OpenNetVM: each NF runs on its own core;
  packet descriptors travel through shared-memory RX/TX rings; the NF
  Manager hosts the Global MAT and the packet classifier.

Both are driven by the same cycle-cost model (:mod:`repro.platform.costs`)
and measured either packet-at-a-time (unloaded latency / CPU cycles) or
under load on the discrete-event engine (throughput, queueing latency).

Note: the platform classes are exposed lazily (PEP 562) because
``repro.core`` depends on :mod:`repro.platform.costs` while
:mod:`repro.platform.base` depends on ``repro.core`` — the cost model is
a leaf, the platforms sit above the core.
"""

from repro.platform.costs import CostModel, CycleMeter, Operation

__all__ = [
    "BessPlatform",
    "CostModel",
    "CycleMeter",
    "LoadResult",
    "OpenNetVMPlatform",
    "Operation",
    "PacketOutcome",
    "Platform",
    "PlatformConfig",
]

_LAZY = {
    "Platform": "repro.platform.base",
    "PlatformConfig": "repro.platform.base",
    "PacketOutcome": "repro.platform.base",
    "LoadResult": "repro.platform.base",
    "BessPlatform": "repro.platform.bess",
    "OpenNetVMPlatform": "repro.platform.onvm",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.platform' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
