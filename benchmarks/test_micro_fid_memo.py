"""Microbenchmark: memoized ``fid_of`` vs the raw FNV-1a hash.

``fid_of`` walks 13 bytes of FNV-1a in pure Python per call; the LRU
memo means a steady-state flow pays that once and its subsequent
packets pay a cache hit.  This measures both sides over a realistic
mixed workload (a few hundred live flows, many packets each) and
records the per-call costs and the resulting speedup in
``BENCH_micro_fid_memo.json``.
"""

from __future__ import annotations

import time

from benchmarks.harness import count, save_result, wall
from repro.core.classifier import fid_of
from repro.net.flow import FiveTuple, PROTO_TCP

FLOWS = 256
LOOKUPS = 200_000


def make_tuples():
    return [
        FiveTuple.make(f"10.{i >> 8}.{i & 0xFF}.1", "20.0.0.1", 4000 + i, 80, PROTO_TCP)
        for i in range(FLOWS)
    ]


def run_micro():
    tuples = make_tuples()
    uncached = fid_of.__wrapped__
    stream = [tuples[i % FLOWS] for i in range(LOOKUPS)]

    started = time.perf_counter()
    for five_tuple in stream:
        uncached(five_tuple)
    raw_s = time.perf_counter() - started

    fid_of.cache_clear()
    started = time.perf_counter()
    for five_tuple in stream:
        fid_of(five_tuple)
    memo_s = time.perf_counter() - started

    # The memo must be transparent: identical FIDs either way.
    assert [fid_of(t) for t in tuples] == [uncached(t) for t in tuples]

    return {
        "lookups": count(float(LOOKUPS)),
        "flows": count(float(FLOWS)),
        "raw_ns_per_call": wall(raw_s / LOOKUPS * 1e9),
        "memo_ns_per_call": wall(memo_s / LOOKUPS * 1e9),
        "speedup": wall(raw_s / memo_s),
        "hits": count(float(fid_of.cache_info().hits), "higher"),
    }


def test_micro_fid_memo(benchmark):
    metrics = benchmark.pedantic(run_micro, rounds=1, iterations=1)
    save_result(
        "micro_fid_memo",
        (
            f"fid_of over {LOOKUPS} lookups across {FLOWS} flows:\n"
            f"raw FNV-1a : {metrics['raw_ns_per_call'].value:.0f} ns/call\n"
            f"memoized   : {metrics['memo_ns_per_call'].value:.0f} ns/call\n"
            f"speedup    : {metrics['speedup'].value:.1f}x"
        ),
        metrics=metrics,
    )
    assert metrics["hits"].value >= LOOKUPS - FLOWS
