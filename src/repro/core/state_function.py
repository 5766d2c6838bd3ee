"""State functions and state-function batches (§IV-A2, §V-C).

A state function is the handler of an NF callback that updates internal
state and/or inspects the payload.  Each function declares how it touches
the payload — WRITE, READ or IGNORE — which drives the parallelism
analysis of Table I.  All state functions an NF records for one flow form
a *batch*; a batch executes strictly in recording order (queue semantics,
§IV-B), and the payload class of the batch is the highest-priority class
among its members (WRITE > READ > IGNORE, §V-C2).
"""

from __future__ import annotations

import copy
import enum
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.net.packet import Packet

StateFunctionHandler = Callable[..., Any]


class PayloadClass(enum.IntEnum):
    """How a state function interacts with the packet payload.

    Ordered by the priority rule of §V-C2: WRITE > READ > IGNORE.
    """

    IGNORE = 0
    READ = 1
    WRITE = 2


class StateFunction:
    """A recorded NF callback: handler + payload class + bound arguments.

    Invocation passes the packet first, then the recorded ``args`` — the
    function-handler convention of Fig. 2's ``localmat_add_SF``.
    """

    __slots__ = ("handler", "payload_class", "args", "name", "nf_name", "invocations")

    def __init__(
        self,
        handler: StateFunctionHandler,
        payload_class: PayloadClass,
        args: Tuple = (),
        name: str = "",
        nf_name: str = "",
    ):
        if not callable(handler):
            raise TypeError(f"state function handler must be callable, got {handler!r}")
        self.handler = handler
        self.payload_class = PayloadClass(payload_class)
        self.args = tuple(args)
        self.name = name or getattr(handler, "__name__", "state_function")
        self.nf_name = nf_name
        self.invocations = 0

    def invoke(self, packet: Packet) -> Any:
        """Execute the recorded handler on ``packet``."""
        self.invocations += 1
        return self.handler(packet, *self.args)

    def __deepcopy__(self, memo) -> "StateFunction":
        # Handler and args may reference NFs, so they take the generic
        # walk through the caller's memo (repro.ft.checkpoint seeds it
        # to keep them bound to the same NF objects); the rest is values.
        clone = StateFunction.__new__(StateFunction)
        clone.handler = copy.deepcopy(self.handler, memo)
        clone.payload_class = self.payload_class
        clone.args = copy.deepcopy(self.args, memo)
        clone.name = self.name
        clone.nf_name = self.nf_name
        clone.invocations = self.invocations
        return clone

    def __repr__(self) -> str:
        owner = f"{self.nf_name}." if self.nf_name else ""
        return f"<StateFunction {owner}{self.name} [{self.payload_class.name}]>"


class StateFunctionBatch:
    """All state functions one NF recorded for one flow, in order.

    The batch is the unit of the parallelism analysis (§V-C2): functions
    *within* a batch always run sequentially; *across* batches, Table I
    decides.
    """

    __slots__ = ("nf_name", "_functions")

    def __init__(self, nf_name: str = "", functions: Optional[Sequence[StateFunction]] = None):
        self.nf_name = nf_name
        self._functions: List[StateFunction] = list(functions or [])

    def add(self, function: StateFunction) -> None:
        self._functions.append(function)

    @property
    def functions(self) -> Tuple[StateFunction, ...]:
        return tuple(self._functions)

    def __len__(self) -> int:
        return len(self._functions)

    def __bool__(self) -> bool:
        return bool(self._functions)

    def __iter__(self):
        return iter(self._functions)

    @property
    def payload_class(self) -> PayloadClass:
        """Highest-priority payload class in the batch (WRITE > READ > IGNORE)."""
        if not self._functions:
            return PayloadClass.IGNORE
        return PayloadClass(max(fn.payload_class for fn in self._functions))

    def execute(self, packet: Packet) -> List[Any]:
        """Run every function in recording order; returns their results."""
        return [function.invoke(packet) for function in self._functions]

    def clone_with(self, functions: Sequence[StateFunction]) -> "StateFunctionBatch":
        return StateFunctionBatch(self.nf_name, functions)

    def __deepcopy__(self, memo) -> "StateFunctionBatch":
        return StateFunctionBatch(
            self.nf_name, [copy.deepcopy(fn, memo) for fn in self._functions]
        )

    def __repr__(self) -> str:
        names = ", ".join(fn.name for fn in self._functions)
        return f"<SFBatch {self.nf_name}: [{names}] {self.payload_class.name}>"
