"""Property tests: how a :class:`~repro.core.framework.FlowRecord` copies.

Checkpoint capture and restore (:mod:`repro.ft.checkpoint`) are one
``copy.deepcopy`` each, and the classes inside a record declare through
``__deepcopy__`` what that costs: recorded actions are atomic values,
mutable shells copy exactly their mutable slots, everything goes through
the caller's memo.  Over Hypothesis-chosen chains that exercise every
slot — NAT + monitor + firewall, a VPN encap/decap pair, a firewall drop
rule with ``pre_drop``, DoS prevention (one-shot event) and Maglev
(recurring event), Snort state functions, and a test-local NF that
records NF-typed ``args`` — this file checks that

1. the copy is structurally equal to the original slot by slot, and to
   the *generic* walk (``copy.deepcopy`` with every hook masked), which
   stays here as the reference;
2. every mutable shell in the copy is a distinct object while every
   declared-atomic value is the very same object;
3. a batch shared between a Local MAT rule and the Global MAT schedule
   is shared in the copy exactly when it is in the original;
4. handlers and NF-typed arguments stay bound to the memo'd NFs;
5. the stored checkpoint is independent: more traffic through the live
   runtime (an event firing and a reconsolidation included) and a
   rebound, imported, *running* restored copy leave it untouched.
"""

from __future__ import annotations

import contextlib
import copy

from hypothesis import given, settings, strategies as st

from repro.core.actions import FieldOp, Forward, HeaderAction
from repro.core.classifier import FlowEntry
from repro.core.consolidation import ConsolidatedAction
from repro.core.framework import FlowRecord, SpeedyBox
from repro.core.global_mat import GlobalRule
from repro.core.local_mat import LocalRule
from repro.core.parallel import ParallelSchedule
from repro.core.state_function import PayloadClass, StateFunction, StateFunctionBatch
from repro.ft import capture_flow, restore_flow
from repro.net.flow import FiveTuple
from repro.nf import (
    DosPrevention,
    IPFilter,
    MaglevLoadBalancer,
    MazuNAT,
    Monitor,
    SnortIDS,
    VpnDecap,
    VpnEncap,
)
from repro.nf.base import NetworkFunction
from repro.nf.ipfilter import AclRule
from repro.nf.maglev import Backend
from repro.traffic import FlowSpec, TrafficGenerator

RULES_TEXT = """
alert tcp any any -> any 80 (msg:"exploit attempt"; content:"exploit"; sid:1001;)
log tcp any any -> any 80 (msg:"scanner ua"; content:"nmap"; nocase; sid:2001;)
"""

DOS_THRESHOLD = 5

#: every class that declares how it copies
HOOKED = (
    FiveTuple,
    FieldOp,
    HeaderAction,
    ConsolidatedAction,
    FlowEntry,
    LocalRule,
    StateFunction,
    StateFunctionBatch,
    ParallelSchedule,
    GlobalRule,
    FlowRecord,
)


class PeerTouch(NetworkFunction):
    """Records a state function and an event whose ``args`` hold an NF."""

    def __init__(self, name: str, peer: NetworkFunction):
        super().__init__(name)
        self.peer = peer
        self.touches = 0

    def touch(self, packet, peer) -> None:
        self.touches += 1

    def never(self, peer) -> bool:
        return False

    def process(self, packet, api) -> None:
        self.ingress(packet)
        fid = api.nf_extract_fid(packet)
        self.touch(packet, self.peer)
        api.add_header_action(fid, Forward())
        api.add_state_function(
            fid, self.touch, PayloadClass.IGNORE, args=(self.peer,), name="touch"
        )
        api.register_event(
            fid, self.never, args=(self.peer,), update_action=Forward(), one_shot=False
        )


def nat_chain():
    return [
        MazuNAT("nat", external_ip="203.0.113.9", port_range=(30000, 60000)),
        Monitor("mon"),
        IPFilter("fw"),
    ]


def vpn_chain():
    # the pair cancels in the consolidated action; raw_actions keep both
    return [VpnEncap("enc"), Monitor("mon"), VpnDecap("dec")]


def vpn_ingress_chain():
    return [VpnEncap("enc"), Monitor("mon")]  # a net encap survives


def drop_chain():
    # The monitor upstream of the dropper keeps counting on the fast
    # path, so the drop rule carries pre_drop (the NAT rewrite) and a
    # non-empty schedule; the monitor after the dropper is cut off.
    return [
        MazuNAT("nat", external_ip="203.0.113.9", port_range=(30000, 60000)),
        Monitor("mon"),
        IPFilter("fw", rules=[AclRule.make(dst_ports=(80, 80))]),
        Monitor("unreached"),
    ]


def event_chain():
    backends = [Backend.make(f"b{i}", f"192.168.7.{i + 1}", 8080) for i in range(3)]
    return [
        DosPrevention("dos", threshold=DOS_THRESHOLD, mode="packets"),
        MaglevLoadBalancer("lb", backends=backends, table_size=131),
        Monitor("mon"),
    ]


def snort_chain():
    return [SnortIDS("snort", RULES_TEXT), Monitor("mon")]


def peer_chain():
    monitor = Monitor("mon")
    return [monitor, PeerTouch("peer", monitor)]


CHAINS = {
    "nat": nat_chain,
    "vpn": vpn_chain,
    "vpn_ingress": vpn_ingress_chain,
    "drop": drop_chain,
    "events": event_chain,
    "snort": snort_chain,
    "peer_args": peer_chain,
}


@st.composite
def cases(draw):
    """(chain name, packets, cut): capture happens after ``cut`` packets."""
    chain = draw(st.sampled_from(sorted(CHAINS)))
    flow_count = draw(st.integers(min_value=1, max_value=3))
    specs = [
        FlowSpec.tcp(
            f"10.5.{i}.7",
            "99.3.0.1",
            4000 + i,
            80,
            packets=draw(st.integers(min_value=3, max_value=10)),
            payload=draw(st.sampled_from([b"hello", b"an exploit here", b"NMAP scan"])),
            handshake=draw(st.booleans()),
        )
        for i in range(flow_count)
    ]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    packets = TrafficGenerator(specs, interleave="round_robin", seed=seed).packets()
    cut = draw(st.integers(min_value=1, max_value=len(packets) - 1))
    return chain, packets, cut


# -- views: a record as plain comparable values ---------------------------------


def handler_view(handler):
    if handler is None:
        return None
    return (id(getattr(handler, "__self__", None)), getattr(handler, "__func__", handler))


def args_view(args):
    return tuple(
        ("nf", id(arg)) if isinstance(arg, NetworkFunction) else arg for arg in args
    )


def function_view(fn):
    return (
        handler_view(fn.handler),
        fn.payload_class,
        args_view(fn.args),
        fn.name,
        fn.nf_name,
        fn.invocations,
    )


def batch_view(batch):
    return (batch.nf_name, [function_view(fn) for fn in batch])


def consolidated_view(action):
    if action is None:
        return None
    return (
        action.drop,
        action.leading_decaps,
        list(action.field_ops.items()),
        action.net_encaps,
        action.source_count,
    )


def record_view(record):
    """Every slot of every object in the record, by value."""
    entry = record.classifier_entry
    rule = record.global_rule
    return {
        "fid": record.fid,
        "entry": None
        if entry is None
        else (entry.fid, entry.five_tuple, entry.established, entry.closed, entry.packets),
        "local": [
            (
                name,
                local.fid,
                list(local.header_actions),
                batch_view(local.sf_batch),
                local.event_count,
                local.hits,
            )
            for name, local in record.local_rules.items()
        ],
        "global": None
        if rule is None
        else (
            rule.fid,
            consolidated_view(rule.consolidated),
            [[batch_view(batch) for batch in wave] for wave in rule.schedule.waves],
            rule.nf_names,
            rule.raw_actions,
            consolidated_view(rule.pre_drop),
            rule.dropper,
            rule.version,
            rule.hits,
        ),
        "events": [
            (
                event.fid,
                event.nf_name,
                handler_view(event.condition),
                args_view(event.args),
                event.update_action,
                handler_view(event.update_function),
                None
                if event.update_state_functions is None
                else [function_view(fn) for fn in event.update_state_functions],
                event.one_shot,
                event.triggered,
                event.trigger_count,
            )
            for event in record.events
        ],
        "nf_state": dict(record.nf_state),
    }


# -- the reference: copy's generic walk -----------------------------------------


@contextlib.contextmanager
def hooks_masked():
    """Temporarily remove every ``__deepcopy__`` hook this PR declares."""
    saved = [(cls, cls.__dict__["__deepcopy__"]) for cls in HOOKED]
    for cls, __ in saved:
        delattr(cls, "__deepcopy__")
    try:
        yield
    finally:
        for cls, hook in saved:
            setattr(cls, "__deepcopy__", hook)


def identity_memo(nfs):
    return {id(nf): nf for nf in nfs}


# -- sharing discipline ---------------------------------------------------------


def schedule_batches(rule):
    return [] if rule is None else rule.schedule.all_batches()


def assert_copy_discipline(original: FlowRecord, clone: FlowRecord, nfs) -> None:
    """Shells distinct, atomics identical, aliasing and binding preserved."""
    nf_ids = {id(nf) for nf in nfs}
    assert clone is not original
    assert clone.local_rules is not original.local_rules
    assert clone.events is not original.events

    if original.classifier_entry is not None:
        assert clone.classifier_entry is not original.classifier_entry
        assert clone.classifier_entry.five_tuple is original.classifier_entry.five_tuple

    def check_function(src: StateFunction, dst: StateFunction) -> None:
        assert dst is not src
        assert getattr(dst.handler, "__self__", None) is getattr(src.handler, "__self__", None)
        for src_arg, dst_arg in zip(src.args, dst.args):
            if isinstance(src_arg, NetworkFunction):
                assert dst_arg is src_arg and id(dst_arg) in nf_ids

    def check_batch(src: StateFunctionBatch, dst: StateFunctionBatch) -> None:
        assert dst is not src
        assert len(dst) == len(src)
        for src_fn, dst_fn in zip(src, dst):
            check_function(src_fn, dst_fn)

    src_batches = schedule_batches(original.global_rule)
    dst_batches = schedule_batches(clone.global_rule)
    for name, src_rule in original.local_rules.items():
        dst_rule = clone.local_rules[name]
        assert dst_rule is not src_rule
        assert dst_rule.header_actions is not src_rule.header_actions
        assert all(
            dst is src for src, dst in zip(src_rule.header_actions, dst_rule.header_actions)
        )
        check_batch(src_rule.sf_batch, dst_rule.sf_batch)
        # the batch sits in the copied schedule exactly where (and only
        # if) the original batch sits in the original schedule
        src_at = [i for i, b in enumerate(src_batches) if b is src_rule.sf_batch]
        dst_at = [i for i, b in enumerate(dst_batches) if b is dst_rule.sf_batch]
        assert src_at == dst_at

    if original.global_rule is not None:
        src_rule, dst_rule = original.global_rule, clone.global_rule
        assert dst_rule is not src_rule
        assert dst_rule.schedule is not src_rule.schedule
        assert dst_rule.consolidated is src_rule.consolidated
        assert dst_rule.pre_drop is src_rule.pre_drop
        assert dst_rule.raw_actions is src_rule.raw_actions
        assert dst_rule.nf_names is src_rule.nf_names
        for src_batch, dst_batch in zip(src_batches, dst_batches):
            check_batch(src_batch, dst_batch)

    for src_event, dst_event in zip(original.events, clone.events):
        assert dst_event is not src_event
        assert dst_event.update_action is src_event.update_action
        assert getattr(dst_event.condition, "__self__", None) is getattr(
            src_event.condition, "__self__", None
        )
        for src_arg, dst_arg in zip(src_event.args, dst_event.args):
            if isinstance(src_arg, NetworkFunction):
                assert dst_arg is src_arg and id(dst_arg) in nf_ids
        if src_event.update_state_functions is not None:
            assert dst_event.update_state_functions is not src_event.update_state_functions
            for src_fn, dst_fn in zip(
                src_event.update_state_functions, dst_event.update_state_functions
            ):
                check_function(src_fn, dst_fn)


def live_records(runtime: SpeedyBox):
    return [runtime.peek_flow(fid) for fid in list(runtime.classifier._flows)]


def drive(runtime: SpeedyBox, packets) -> None:
    for packet in packets:
        runtime.process(packet.clone())


def fail_a_backend(runtime: SpeedyBox) -> None:
    """Trip Maglev's recurring event: fail a backend some flow tracks."""
    for nf in runtime.nfs:
        if isinstance(nf, MaglevLoadBalancer):
            tracked = [backend for backend in nf.conntrack.values() if backend.healthy]
            if tracked and sum(backend.healthy for backend in nf.backends) > 1:
                nf.fail_backend(tracked[0].name)


# -- the properties -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_copy_equals_original_and_generic_walk_and_shares_only_atomics(case):
    chain, packets, cut = case
    runtime = SpeedyBox(CHAINS[chain]())
    drive(runtime, packets[:cut])

    for record in live_records(runtime):
        clone = copy.deepcopy(record, identity_memo(runtime.nfs))
        with hooks_masked():
            reference = copy.deepcopy(record, identity_memo(runtime.nfs))
        assert record_view(clone) == record_view(record)
        assert record_view(clone) == record_view(reference)
        assert_copy_discipline(record, clone, runtime.nfs)
        # the reference really is the generic walk: it copies the values
        # the protocol shares
        if record.global_rule is not None:
            assert reference.global_rule.consolidated is not record.global_rule.consolidated


@settings(max_examples=60, deadline=None)
@given(case=cases())
def test_stored_checkpoint_is_independent_of_source_and_restored_copy(case):
    chain, packets, cut = case
    source = SpeedyBox(CHAINS[chain]())
    drive(source, packets[:cut])
    flows = sorted({packet.five_tuple().canonical() for packet in packets[:cut]})
    checkpoints = [cp for cp in (capture_flow(source, flow) for flow in flows) if cp]
    frozen = [[record_view(record) for record in cp.records] for cp in checkpoints]
    frozen_states = [copy.deepcopy(cp.nf_states) for cp in checkpoints]

    # a restored copy: deep-copied from the checkpoint, rebound to the
    # target's NFs (rebind_record), imported and *running*
    target = SpeedyBox(CHAINS[chain]())
    for checkpoint in checkpoints:
        restore_flow(checkpoint, target, list(source.nfs))
    # the live source keeps going, an event firing in the middle
    fail_a_backend(source)
    fail_a_backend(target)
    drive(source, packets[cut:])
    drive(target, packets[cut:])

    for checkpoint, records, states in zip(checkpoints, frozen, frozen_states):
        assert [record_view(record) for record in checkpoint.records] == records
        assert checkpoint.nf_states == states
        source_ids = {id(nf) for nf in source.nfs}
        for record in checkpoint.records:
            for rule in record.local_rules.values():
                for fn in rule.sf_batch:
                    owner = getattr(fn.handler, "__self__", None)
                    assert owner is None or id(owner) in source_ids


def test_checkpoint_survives_an_event_firing_and_a_reconsolidation():
    """The deterministic core of the independence property: the DoS
    threshold is crossed *after* capture, so the live flow's action list
    is replaced, its rule rebuilt (version 2) and its one-shot spent —
    none of which may show in the stored snapshot."""
    source = SpeedyBox(event_chain())
    spec = FlowSpec.tcp("10.5.0.7", "99.3.0.1", 4000, 80, packets=DOS_THRESHOLD + 6)
    packets = TrafficGenerator([spec], interleave="round_robin", seed=3).packets()
    cut = 3
    drive(source, packets[:cut])
    flow = packets[0].five_tuple().canonical()
    checkpoint = capture_flow(source, flow)
    (record,) = checkpoint.records
    before = record_view(record)
    assert record.global_rule.version == 1
    assert not any(event.triggered for event in record.events)

    reconsolidations = source.stats()["reconsolidations"]
    fail_a_backend(source)  # Maglev's recurring event ...
    drive(source, packets[cut:])  # ... and the DoS one-shot both fire
    assert source.stats()["reconsolidations"] >= reconsolidations + 2
    live = source.peek_flow(record.fid)
    assert live.global_rule.version > 1
    assert live.global_rule.consolidated.drop
    assert any(event.triggered for event in live.events)

    assert record_view(record) == before
    assert record.global_rule.version == 1
    assert not record.global_rule.consolidated.drop
