"""Property: ring-buffer eviction is forgetful, never lossy-in-place.

Windows are evicted whole — eviction must never change any retained
window's totals, percentiles, or identity, and the run totals must be
independent of the ring capacity.  We check this by replaying one
random dispatch stream into an effectively-unbounded ring and a tiny
ring and comparing the tiny ring's retained suffix window-by-window.
The stream is handed over as one or two finished runs, the way a
platform or a cluster hands its columns over after each run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TimeSeries
from tests.integration.helpers import ingest_rows


records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # arrival gap (ns)
        st.floats(min_value=1.0, max_value=1e6),  # latency
        st.sampled_from(["ok", "drop", "buffer"]),
        st.integers(min_value=0, max_value=3),  # replica
        st.booleans(),  # fast
    ),
    min_size=1,
    max_size=200,
)


def replay(ts, stream, split):
    rows, clock = [], 0.0
    for gap, latency, outcome, replica, fast in stream:
        clock += gap
        rows.append((clock, None if outcome == "buffer" else latency, replica, outcome, fast))
    ingest_rows(ts, rows[:split])
    ingest_rows(ts, rows[split:])


def window_key(window):
    return (
        window.index,
        window.start_ns,
        window.end_ns,
        window.packets,
        window.drops,
        window.buffered,
        tuple(window.latencies),
        tuple(
            (str(rid), rw.packets, rw.drops, rw.buffered, rw.fast_hits, tuple(rw.latencies))
            for rid, rw in sorted(window.replicas.items(), key=lambda kv: str(kv[0]))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(stream=records, capacity=st.integers(min_value=1, max_value=8),
       window=st.sampled_from([("ns", 25.0), ("ns", 100.0), ("pkt", 3), ("pkt", 7)]),
       split=st.integers(min_value=0, max_value=200))
def test_eviction_never_changes_retained_windows(stream, capacity, window, split):
    kind, size = window
    kwargs = {"window_ns": size} if kind == "ns" else {"window_packets": size}
    class Full(TimeSeries):
        CAPACITY = 10_000

    class Ring(TimeSeries):
        CAPACITY = capacity

    full = Full(**kwargs)
    ring = Ring(**kwargs)
    replay(full, stream, split)
    replay(ring, stream, split)

    # Same windows closed, same totals, regardless of ring size.
    assert ring.windows_closed == full.windows_closed
    assert ring.total_packets == full.total_packets == len(stream)
    assert ring.total_drops == full.total_drops
    assert ring.total_buffered == full.total_buffered

    # The ring retains exactly the newest suffix, bit-for-bit.
    assert len(ring.windows) == min(capacity, full.windows_closed)
    assert ring.evicted == full.windows_closed - len(ring.windows)
    suffix = list(full.windows)[-len(ring.windows):]
    assert [window_key(w) for w in ring.windows] == [window_key(w) for w in suffix]
