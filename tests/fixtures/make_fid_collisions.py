"""Regenerate ``fid_collisions.json``: five-tuples that share one FID.

Run once, by hand (``PYTHONPATH=src python tests/fixtures/make_fid_collisions.py``,
about a minute); the tests read the committed JSON and re-check
``fid_of`` equality, so a change of hash fails there, loudly, and this
script says how to get a new fixture.

Per protocol, the first five-tuple (``10.0.0.1:1024 -> 20.0.0.1:80``)
fixes the FID and the scan keeps every later ``(src_ip, src_port)`` that
``fid_column`` folds onto it, in scan order, so the first *k* entries are
the *k*-collision cell.
"""

import json
from pathlib import Path

import numpy as np

from repro.core.classifier import fid_column
from repro.net.addresses import ip_to_int
from repro.net.flow import PROTO_TCP, PROTO_UDP

WANTED = {"udp": (PROTO_UDP, 256), "tcp": (PROTO_TCP, 16)}
DST_IP, DST_PORT = ip_to_int("20.0.0.1"), 80
SRC_BASE, FIRST_PORT = ip_to_int("10.0.0.1"), 1024
CHUNK = 1 << 20  # source addresses per fid_column call
HOSTS = (1 << 24) - 2  # stay inside 10.0.0.0/8


def colliding(protocol: int, count: int) -> list:
    def fids(src_ips, port):
        n = len(src_ips)
        return fid_column(
            src_ips, np.full(n, DST_IP), np.full(n, port), np.full(n, DST_PORT), np.full(n, protocol)
        )

    target = int(fids(np.array([SRC_BASE]), FIRST_PORT)[0])
    found = []
    port = FIRST_PORT
    while True:
        for start in range(0, HOSTS, CHUNK):
            src_ips = SRC_BASE + np.arange(start, min(start + CHUNK, HOSTS), dtype=np.int64)
            for hit in np.flatnonzero(fids(src_ips, port) == target).tolist():
                found.append([int(src_ips[hit]), DST_IP, port, DST_PORT, protocol])
                if len(found) == count:
                    return found
        port += 1


if __name__ == "__main__":
    fixture = {name: colliding(*wanted) for name, wanted in WANTED.items()}
    Path(__file__).with_name("fid_collisions.json").write_text(
        json.dumps(fixture, separators=(",", ":")) + "\n"
    )
