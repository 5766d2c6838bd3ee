"""Network functions.

The five NFs the paper implements and evaluates (§VI-C, Table II) plus
the helpers its microbenchmarks use:

- :mod:`repro.nf.snort` — mini-Snort IDS: rule parsing, content and pcre
  payload inspection, per-flow rule-function assignment.
- :mod:`repro.nf.maglev` — Google's Maglev load balancer (consistent
  hashing per §3.4 of the Maglev paper), with backend-failure events.
- :mod:`repro.nf.ipfilter` — Click IPFilter-style firewall (linear ACL).
- :mod:`repro.nf.monitor` — per-flow packet/byte counters.
- :mod:`repro.nf.mazunat` — MazuNAT-style address/port translator.
- :mod:`repro.nf.vpn` — AH encap/decap endpoints (ENCAP/DECAP actions).
- :mod:`repro.nf.dos` — the DoS-prevention NF of Fig. 3 (SYN-count events).
- :mod:`repro.nf.synthetic` — configurable NFs for the microbenchmarks.
"""

from repro.nf.base import NetworkFunction
from repro.nf.dos import DosPrevention
from repro.nf.gateway import VniMap, VxlanGateway, VxlanTerminator
from repro.nf.ipfilter import AclRule, IPFilter
from repro.nf.maglev import Backend, MaglevLoadBalancer, MaglevTable
from repro.nf.mazunat import MazuNAT
from repro.nf.monitor import Monitor
from repro.nf.policer import TokenBucketPolicer
from repro.nf.snort import SnortIDS, SnortRule, parse_rules
from repro.nf.synthetic import SyntheticNF
from repro.nf.vpn import VpnDecap, VpnEncap

__all__ = [
    "AclRule",
    "Backend",
    "DosPrevention",
    "IPFilter",
    "MaglevLoadBalancer",
    "MaglevTable",
    "MazuNAT",
    "Monitor",
    "NetworkFunction",
    "SnortIDS",
    "SnortRule",
    "SyntheticNF",
    "TokenBucketPolicer",
    "VniMap",
    "VpnDecap",
    "VpnEncap",
    "VxlanGateway",
    "VxlanTerminator",
    "parse_rules",
]
