"""Property: ring-buffer eviction is forgetful, never lossy-in-place.

Windows are evicted whole — eviction must never change any retained
window's totals, percentiles, or identity, and the run totals must be
independent of the ring capacity.  We check this by replaying one
random dispatch stream into an effectively-unbounded ring and a tiny
ring and comparing the tiny ring's retained suffix window-by-window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TimeSeries


records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # arrival gap (ns)
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e6)),  # latency
        st.sampled_from(["ok", "drop", "buffer"]),
        st.integers(min_value=0, max_value=3),  # replica
    ),
    min_size=1,
    max_size=200,
)


def replay(ts, stream):
    clock = 0.0
    for gap, latency, outcome, replica in stream:
        clock += gap
        ts.record(
            clock,
            latency_ns=latency,
            replica=replica,
            dropped=(outcome == "drop"),
            buffered=(outcome == "buffer"),
        )
    ts.finish()


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
            (str(rid), rw.packets, rw.drops, rw.buffered, tuple(rw.latencies))
            for rid, rw in sorted(window.replicas.items(), key=lambda kv: str(kv[0]))
        ),
    )


@settings(max_examples=60, deadline=None)
@given(stream=records, capacity=st.integers(min_value=1, max_value=8),
       window=st.sampled_from([("ns", 25.0), ("ns", 100.0), ("pkt", 3), ("pkt", 7)]))
def test_eviction_never_changes_retained_windows(stream, capacity, window):
    kind, size = window
    kwargs = {"window_ns": size} if kind == "ns" else {"window_packets": size}
    class Full(TimeSeries):
        CAPACITY = 10_000

    class Ring(TimeSeries):
        CAPACITY = capacity

    full = Full(**kwargs)
    ring = Ring(**kwargs)
    replay(full, stream)
    replay(ring, stream)

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
