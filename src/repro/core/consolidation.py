"""Header-action consolidation (§V-B).

Input: the chain-ordered list of header actions recorded by each NF's
Local MAT for one flow.  Output: a :class:`ConsolidatedAction` that has
the same end-to-end effect on a packet as applying the list sequentially.

The algorithm walks the action list once:

- **Drop dominance** — one DROP anywhere makes the consolidated result a
  drop (early packet drop, R2).
- **Encap/Decap stack** — encapsulation is simulated with a stack; an
  adjacent encap+decap pair on the same header class cancels.  A decap
  that underflows the stack (removes a header the packet *arrived* with)
  is recorded as a leading decap of the consolidated action.
- **Modify merge** — per-field composition with last-writer-wins for sets
  and additive composition for adjusts (the FieldOp algebra).  This is
  semantically the paper's bit-level formula; the tests cross-validate it
  against the literal P0 ⊕ [(P0⊕P1)|(P0⊕P2)].
- **Finalisation fields** — checksum/TTL/MAC-style fields are applied at
  the end of the consolidated action so the fast path always emits valid
  packets (the paper's "we modify these fields at the end").

FORWARD is the identity and never stored (§V-B "default action").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
from repro.net.packet import Packet, PacketField


class ConsolidationError(Exception):
    """Raised when an action list cannot be consolidated (invalid input)."""


class ConsolidatedAction:
    """The single fast-path action equivalent to a chain of header actions.

    Application order (mirrors what a packet would net-experience):
    leading decaps → merged routing-field modifies → net encaps →
    finalisation-field modifies (TTL/MAC/DSCP) → checksum refresh.
    """

    __slots__ = ("drop", "leading_decaps", "field_ops", "net_encaps", "source_count")

    def __init__(
        self,
        drop: bool = False,
        leading_decaps: Sequence[Decap] = (),
        field_ops: Optional[Dict[PacketField, FieldOp]] = None,
        net_encaps: Sequence[Encap] = (),
        source_count: int = 0,
    ):
        self.drop = drop
        self.leading_decaps: Tuple[Decap, ...] = tuple(leading_decaps)
        self.field_ops: Dict[PacketField, FieldOp] = dict(field_ops or {})
        self.net_encaps: Tuple[Encap, ...] = tuple(net_encaps)
        self.source_count = source_count

    @property
    def is_noop(self) -> bool:
        """True when the consolidated action is pure FORWARD."""
        return not (self.drop or self.leading_decaps or self.field_ops or self.net_encaps)

    def routing_ops(self) -> Dict[PacketField, FieldOp]:
        return {f: op for f, op in self.field_ops.items() if not f.is_finalisation_field}

    def finalisation_ops(self) -> Dict[PacketField, FieldOp]:
        return {f: op for f, op in self.field_ops.items() if f.is_finalisation_field}

    def compiled(self):
        """The action as one pre-bound callable that mutates a packet in place.

        Drop marks the packet dropped.  Otherwise the walk — leading
        decaps, routing-field modifies, net encaps, finalisation-field
        modifies, the checksum refresh (``finalize``) — is flattened into
        a tuple of bound step functions built once per rule, so a packet
        pays neither a per-call ``routing_ops()``/``finalisation_ops()``
        dict rebuild nor the enum-accessor indirection of
        :meth:`PacketField.read`/``write``.
        """
        if self.drop:
            return Packet.drop
        steps = [decap.apply for decap in self.leading_decaps]
        for field, op in self.routing_ops().items():
            steps.append(_bind_field_step(field, op))
        steps.extend(encap.apply for encap in self.net_encaps)
        for field, op in self.finalisation_ops().items():
            steps.append(_bind_field_step(field, op))
        if not steps:
            return Packet.finalize

        def run(packet, _steps=tuple(steps), _finalize=Packet.finalize):
            for step in _steps:
                step(packet)
            _finalize(packet)

        return run

    def __repr__(self) -> str:
        if self.drop:
            return "<ConsolidatedAction DROP>"
        parts = []
        if self.leading_decaps:
            parts.append(f"decap x{len(self.leading_decaps)}")
        if self.field_ops:
            fields = ",".join(sorted(f.value for f in self.field_ops))
            parts.append(f"modify({fields})")
        if self.net_encaps:
            parts.append(f"encap x{len(self.net_encaps)}")
        return f"<ConsolidatedAction {' '.join(parts) or 'FORWARD'}>"


def _bind_field_step(field: PacketField, op: FieldOp):
    """One pre-bound ``field = op(field)`` packet mutation."""
    from repro.net.packet import _FIELD_READERS, _FIELD_WRITERS

    read = _FIELD_READERS[field]
    write = _FIELD_WRITERS[field]
    apply_op = op.apply

    def step(packet):
        write(packet, apply_op(read(packet)))

    return step


def consolidate_header_actions(actions: Iterable[HeaderAction]) -> ConsolidatedAction:
    """Consolidate ``actions`` (chain order) into one equivalent action.

    Raises :class:`ConsolidationError` on malformed inputs (e.g. a typed
    decap that cannot match the preceding encap).
    """
    field_ops: Dict[PacketField, FieldOp] = {}
    encap_stack: List[Encap] = []
    leading_decaps: List[Decap] = []
    count = 0

    for action in actions:
        count += 1
        if isinstance(action, Drop):
            # Drop dominance: the rest of the chain never sees the packet.
            return ConsolidatedAction(drop=True, source_count=count)
        if isinstance(action, Forward):
            continue
        if isinstance(action, Modify):
            for field, op in action.ops.items():
                existing = field_ops.get(field)
                field_ops[field] = existing.then(op) if existing is not None else op
            continue
        if isinstance(action, Encap):
            encap_stack.append(action)
            continue
        if isinstance(action, Decap):
            if encap_stack:
                pushed = encap_stack[-1]
                if not action.matches(pushed):
                    raise ConsolidationError(
                        f"decap {action!r} cannot remove header pushed by {pushed!r}"
                    )
                encap_stack.pop()  # encap+decap on the same header cancel
            else:
                leading_decaps.append(action)
            continue
        raise ConsolidationError(f"unknown header action: {action!r}")

    # Identity ops (e.g. adjust by 0) are dropped so is_noop is meaningful.
    field_ops = {
        field: op
        for field, op in field_ops.items()
        if not (op.set_value is None and op.delta == 0)
    }
    return ConsolidatedAction(
        leading_decaps=leading_decaps,
        field_ops=field_ops,
        net_encaps=encap_stack,
        source_count=count,
    )
