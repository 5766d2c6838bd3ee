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

import enum
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

StateFunctionHandler = Callable[..., Any]


class PayloadClass(enum.IntEnum):
    """How a state function interacts with the packet payload.

    Ordered by the priority rule of §V-C2: WRITE > READ > IGNORE.

    - ``IGNORE`` may read header fields and the packet's length, never a
      payload byte: Monitor's ``count_packet`` reads ``five_tuple()`` and
      ``byte_length()``, and that is allowed.
    - ``READ`` may also read payload bytes: Snort's ``inspect`` is READ.
    - ``WRITE`` may also change them.
    """

    IGNORE = 0
    READ = 1
    WRITE = 2


def plain_args(args: Tuple) -> Tuple:
    """``args`` as a record keeps them: plain values, never an NF.

    A record names its code (NF name + method name) and holds no NF
    object, so it pickles on its own and installs on any replica.
    """
    args = tuple(args)
    # No NF exists before repro.nf.base is loaded, and reading the class
    # from there keeps this module out of an import cycle (repro.nf
    # imports repro.core).
    nf_base = sys.modules.get("repro.nf.base")
    if nf_base is not None:
        for arg in args:
            if isinstance(arg, nf_base.NetworkFunction):
                raise TypeError(f"recorded args must be plain values, got NF {arg.name!r}")
    return args


class StateFunction:
    """A recorded NF callback: handler + payload class + bound arguments.

    Invocation passes the packet first, then the recorded ``args`` — the
    function-handler convention of Fig. 2's ``localmat_add_SF`` — and
    counts in ``invocations`` (:class:`~repro.core.fastpath.RuleProgram`).  The
    record keeps the handler's ``method`` name beside the owning NF's
    ``nf_name``; ``handler`` is that method resolved on one runtime's NF
    (:meth:`~repro.core.framework.FlowRecord.resolve`).
    """

    __slots__ = ("handler", "method", "payload_class", "args", "name", "nf_name", "invocations")

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
        self.method = getattr(handler, "__name__", "state_function")
        self.payload_class = PayloadClass(payload_class)
        self.args = plain_args(args)
        self.name = name or self.method
        self.nf_name = nf_name
        self.invocations = 0

    def copy(self, copies: Dict[int, object]) -> "StateFunction":
        # One clone per original (``FlowRecord.copy``'s map), so a function
        # a batch and a fired event both hold stays one object.  The clone
        # names its handler and holds none: an import resolves it.
        clone = copies.get(id(self))
        if clone is None:
            clone = copies[id(self)] = StateFunction.__new__(StateFunction)
            clone.handler = None
            clone.method = self.method
            clone.payload_class = self.payload_class
            clone.args = self.args
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
        return max(fn.payload_class for fn in self._functions)

    def clone_with(self, functions: Sequence[StateFunction]) -> "StateFunctionBatch":
        return StateFunctionBatch(self.nf_name, functions)

    def copy(self, copies: Dict[int, object]) -> "StateFunctionBatch":
        # One clone per original: a batch a Local MAT rule shares with the
        # Global MAT schedule stays shared.
        clone = copies.get(id(self))
        if clone is None:
            clone = copies[id(self)] = StateFunctionBatch.__new__(StateFunctionBatch)
            clone.nf_name = self.nf_name
            clone._functions = [fn.copy(copies) for fn in self._functions]
        return clone

    def __repr__(self) -> str:
        names = ", ".join(fn.name for fn in self._functions)
        return f"<SFBatch {self.nf_name}: [{names}] {self.payload_class.name}>"
