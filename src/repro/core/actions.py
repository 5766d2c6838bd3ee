"""The five standardised header actions (§IV-A1).

The paper standardises NF packet-header behaviour into FORWARD, DROP,
MODIFY, ENCAP and DECAP.  MODIFY is expressed as a set of per-field
:class:`FieldOp` operations; each is either an absolute ``set`` or a
relative ``adjust`` (the latter models TTL decrements, which must compose
additively across NFs during consolidation, §V-B "remaining fields").

FieldOps form a tiny composition algebra used by the consolidation engine:

    (f2 ∘ f1) applied to x  ==  f2(f1(x))

    set(v2)    ∘ anything   == set(v2)
    adjust(d2) ∘ set(v1)    == set(v1 + d2)
    adjust(d2) ∘ adjust(d1) == adjust(d1 + d2)

This field-level algebra is the exact semantics of the paper's XOR merge
P0 ⊕ [(P0⊕P1) | (P0⊕P2)] for modifies touching different fields, plus its
"select the value of the latter" rule for the same field; see
``repro.core.consolidation.xor_merge_bytes`` for a byte-level
implementation of the paper's formula used in the property tests.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Mapping, Optional, Tuple, Type, Union

from repro.net.headers import Header
from repro.net.packet import Packet, PacketField


class HeaderActionKind(enum.Enum):
    """The five standardised header-action categories of §IV-A1."""

    FORWARD = "forward"
    DROP = "drop"
    MODIFY = "modify"
    ENCAP = "encap"
    DECAP = "decap"


class FieldOp:
    """A single-field operation: ``set`` to a value or ``adjust`` by a delta."""

    __slots__ = ("set_value", "delta")

    def __init__(self, set_value: Optional[int] = None, delta: int = 0):
        self.set_value = set_value
        self.delta = delta

    @classmethod
    def set(cls, value: int) -> "FieldOp":
        return cls(set_value=value)

    @classmethod
    def adjust(cls, delta: int) -> "FieldOp":
        return cls(delta=delta)

    def apply(self, current: int) -> int:
        if self.set_value is not None:
            return self.set_value + self.delta
        return current + self.delta

    def then(self, later: "FieldOp") -> "FieldOp":
        """Compose: the result behaves as self first, then ``later``."""
        if later.set_value is not None:
            return FieldOp(set_value=later.set_value, delta=later.delta)
        if self.set_value is not None:
            return FieldOp(set_value=self.set_value, delta=self.delta + later.delta)
        return FieldOp(delta=self.delta + later.delta)

    def __deepcopy__(self, memo) -> "FieldOp":
        return self  # never mutated after construction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldOp):
            return NotImplemented
        return (self.set_value, self.delta) == (other.set_value, other.delta)

    def __hash__(self) -> int:
        return hash((self.set_value, self.delta))

    def __repr__(self) -> str:
        if self.set_value is not None and self.delta:
            return f"FieldOp(set={self.set_value}, adjust={self.delta:+d})"
        if self.set_value is not None:
            return f"FieldOp(set={self.set_value})"
        return f"FieldOp(adjust={self.delta:+d})"


class HeaderAction:
    """Base class of the five standardised header actions."""

    kind: HeaderActionKind

    def apply(self, packet: Packet) -> None:
        """Execute this action on ``packet`` in place."""
        raise NotImplementedError

    def __deepcopy__(self, memo) -> "HeaderAction":
        # A recorded action is a value: NFs build it once, the MATs only
        # ever replace it.  Flow snapshots (repro.ft.checkpoint) share it.
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Forward(HeaderAction):
    """Forward the packet unmodified (the default action, §V-B)."""

    kind = HeaderActionKind.FORWARD

    def apply(self, packet: Packet) -> None:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Forward)

    def __hash__(self) -> int:
        return hash(HeaderActionKind.FORWARD)


class Drop(HeaderAction):
    """Drop the packet: mark the descriptor nil and stop processing."""

    kind = HeaderActionKind.DROP

    def apply(self, packet: Packet) -> None:
        packet.drop()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Drop)

    def __hash__(self) -> int:
        return hash(HeaderActionKind.DROP)


class Modify(HeaderAction):
    """Rewrite header fields.

    ``ops`` maps :class:`PacketField` to :class:`FieldOp`.  Convenience
    constructor: ``Modify.set(dst_ip=..., dst_port=...)`` with field names
    matching ``PacketField`` values; TTL decrement: ``Modify.ttl_dec()``.
    """

    kind = HeaderActionKind.MODIFY

    __slots__ = ("ops",)

    def __init__(self, ops: Mapping[PacketField, FieldOp]):
        if not ops:
            raise ValueError("Modify with no field operations; use Forward instead")
        self.ops: Dict[PacketField, FieldOp] = dict(ops)

    @classmethod
    def set(cls, **fields: int) -> "Modify":
        """Modify that sets the named fields, e.g. Modify.set(dst_port=80)."""
        ops = {PacketField(name): FieldOp.set(value) for name, value in fields.items()}
        return cls(ops)

    @classmethod
    def adjust(cls, **fields: int) -> "Modify":
        """Modify that adjusts the named fields by deltas."""
        ops = {PacketField(name): FieldOp.adjust(delta) for name, delta in fields.items()}
        return cls(ops)

    @classmethod
    def ttl_dec(cls, hops: int = 1) -> "Modify":
        """The router-style TTL decrement."""
        return cls({PacketField.TTL: FieldOp.adjust(-hops)})

    def apply(self, packet: Packet) -> None:
        for field, op in self.ops.items():
            field.write(packet, op.apply(field.read(packet)))

    def touched_fields(self) -> Tuple[PacketField, ...]:
        return tuple(self.ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Modify):
            return NotImplemented
        return self.ops == other.ops

    def __hash__(self) -> int:
        return hash(frozenset(self.ops.items()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{field.value}={op!r}" for field, op in sorted(self.ops.items(), key=lambda kv: kv[0].value))
        return f"Modify({parts})"


class Encap(HeaderAction):
    """Push an encapsulation header (template cloned per packet)."""

    kind = HeaderActionKind.ENCAP

    __slots__ = ("template",)

    def __init__(self, template: Header):
        self.template = template

    def apply(self, packet: Packet) -> None:
        packet.push_encap(self.template.clone())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Encap):
            return NotImplemented
        return self.template == other.template

    def __hash__(self) -> int:
        return hash((HeaderActionKind.ENCAP, self.template))

    def __repr__(self) -> str:
        return f"Encap({self.template!r})"


class Decap(HeaderAction):
    """Pop the innermost encapsulation header.

    ``expected_type`` optionally asserts the header class being removed —
    a decap NF knows what it strips (e.g. the VPN endpoint removes an AH).
    """

    kind = HeaderActionKind.DECAP

    __slots__ = ("expected_type",)

    def __init__(self, expected_type: Optional[Type[Header]] = None):
        self.expected_type = expected_type

    def apply(self, packet: Packet) -> None:
        header = packet.pop_encap()
        if self.expected_type is not None and not isinstance(header, self.expected_type):
            raise ValueError(
                f"decap expected {self.expected_type.__name__}, found {type(header).__name__}"
            )

    def matches(self, encap: Encap) -> bool:
        """True if this decap removes exactly what ``encap`` pushed."""
        if self.expected_type is None:
            return True
        return isinstance(encap.template, self.expected_type)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decap):
            return NotImplemented
        return self.expected_type == other.expected_type

    def __hash__(self) -> int:
        return hash((HeaderActionKind.DECAP, self.expected_type))

    def __repr__(self) -> str:
        expected = self.expected_type.__name__ if self.expected_type else "any"
        return f"Decap({expected})"


ActionLike = Union[HeaderAction, Iterable[HeaderAction]]


def apply_sequentially(packet: Packet, actions: Iterable[HeaderAction]) -> None:
    """Reference semantics: apply actions in order, stopping at a drop.

    This is the *original chain* behaviour that consolidation must be
    equivalent to (minus the early-drop optimisation); the property tests
    compare :func:`repro.core.consolidation.consolidate_header_actions`
    against it.
    """
    for action in actions:
        action.apply(packet)
        if packet.dropped:
            return
