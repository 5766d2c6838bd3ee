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
  semantically the paper's bit-level formula; :func:`xor_merge_bytes`
  implements the literal P0 ⊕ [(P0⊕P1)|(P0⊕P2)] for validation.
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

    @property
    def merged_modify_count(self) -> int:
        """Number of fields the consolidated modify touches (cost driver)."""
        return len(self.field_ops)

    def routing_ops(self) -> Dict[PacketField, FieldOp]:
        return {f: op for f, op in self.field_ops.items() if not f.is_finalisation_field}

    def finalisation_ops(self) -> Dict[PacketField, FieldOp]:
        return {f: op for f, op in self.field_ops.items() if f.is_finalisation_field}

    def __deepcopy__(self, memo) -> "ConsolidatedAction":
        # Immutable once built: an event-driven rebuild replaces the
        # rule's action, it never edits one (see install_prebuilt, which
        # already shares it across flows by identity).
        return self

    def apply(self, packet: Packet) -> None:
        """Apply the consolidated action to ``packet`` in place."""
        if self.drop:
            packet.drop()
            return
        for decap in self.leading_decaps:
            decap.apply(packet)
        for field, op in self.routing_ops().items():
            field.write(packet, op.apply(field.read(packet)))
        for encap in self.net_encaps:
            encap.apply(packet)
        for field, op in self.finalisation_ops().items():
            field.write(packet, op.apply(field.read(packet)))
        packet.finalize()

    def compiled(self):
        """A pre-bound single callable equivalent to :meth:`apply`.

        Flattens the decap/modify/encap/finalisation walk into a tuple
        of bound step functions built once per rule, so the fast path
        pays neither the per-call ``routing_ops()``/``finalisation_ops()``
        dict rebuilds nor the enum-accessor indirection of
        :meth:`PacketField.read`/``write``.  Field-write order matches
        :meth:`apply` exactly.
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


def explain_consolidation(actions: Sequence[HeaderAction]) -> List[str]:
    """A human-readable, step-by-step trace of the §V-B algorithm.

    Returns one line per input action describing what the consolidator
    did with it, plus a final summary line — the narration the inspector
    and teaching material use.  Raises the same errors as
    :func:`consolidate_header_actions` on malformed input.
    """
    lines: List[str] = []
    field_ops: Dict[PacketField, FieldOp] = {}
    encap_stack: List[Encap] = []
    leading_decaps: List[Decap] = []

    for index, action in enumerate(actions):
        prefix = f"[{index}] {action!r}: "
        if isinstance(action, Drop):
            lines.append(prefix + "DROP dominates — remaining actions unreachable")
            lines.append("result: drop")
            return lines
        if isinstance(action, Forward):
            lines.append(prefix + "identity, elided")
        elif isinstance(action, Modify):
            for field, op in action.ops.items():
                existing = field_ops.get(field)
                if existing is None:
                    field_ops[field] = op
                    lines.append(prefix + f"records {field.value} <- {op!r}")
                else:
                    field_ops[field] = existing.then(op)
                    lines.append(
                        prefix + f"composes onto {field.value}: {existing!r} then {op!r}"
                    )
        elif isinstance(action, Encap):
            encap_stack.append(action)
            lines.append(prefix + f"pushed (stack depth {len(encap_stack)})")
        elif isinstance(action, Decap):
            if encap_stack:
                pushed = encap_stack[-1]
                if not action.matches(pushed):
                    raise ConsolidationError(
                        f"decap {action!r} cannot remove header pushed by {pushed!r}"
                    )
                encap_stack.pop()
                lines.append(prefix + f"cancels {pushed!r} (stack depth {len(encap_stack)})")
            else:
                leading_decaps.append(action)
                lines.append(prefix + "underflows the stack -> leading decap of an arrival header")
        else:
            raise ConsolidationError(f"unknown header action: {action!r}")

    live_fields = sum(
        1 for op in field_ops.values() if not (op.set_value is None and op.delta == 0)
    )
    lines.append(
        "result: "
        f"{len(leading_decaps)} leading decap(s), "
        f"{live_fields} merged field op(s), "
        f"{len(encap_stack)} net encap(s)"
    )
    return lines


def xor_merge_bytes(original: bytes, outputs: Sequence[bytes]) -> bytes:
    """The paper's literal merge formula for modifies on different fields.

    Given the original packet bytes P0 and per-NF outputs P1..Pn (each the
    result of one modify applied to P0, touching disjoint bit ranges),
    computes  P0 ⊕ [(P0⊕P1) | (P0⊕P2) | ...]  — the merged packet.  Used
    by the property tests to cross-validate the FieldOp algebra.
    """
    if any(len(out) != len(original) for out in outputs):
        raise ValueError("all outputs must have the same length as the original")
    merged_diff = bytes(len(original))
    for out in outputs:
        diff = bytes(a ^ b for a, b in zip(original, out))
        merged_diff = bytes(a | b for a, b in zip(merged_diff, diff))
    return bytes(a ^ b for a, b in zip(original, merged_diff))
