"""State-function batch parallelism (§V-C2, Table I).

Whether two batches may run in parallel is decided purely by how they
touch the shared packet payload (header dependencies are already removed
by the Global MAT's header-action consolidation):

- both only READ (or IGNORE): parallelizable;
- a batch that WRITEs conflicts with any other batch that READs or
  WRITEs — it can only run in parallel with IGNORE batches.

(Table I as printed in the paper is read column = batch1 / row = batch2;
the accompanying text — "if batch1 writes the payload, they cannot be
parallelized unless batch2 ignores the payload" — pins the rule above.)

The *schedule* groups the chain-ordered batches into consecutive parallel
waves: a batch joins the current wave iff it is pairwise-parallelizable
with every batch already in the wave, otherwise a new wave starts.  Waves
run sequentially; batches inside a wave run concurrently.  NF order
inside a wave is irrelevant precisely because no payload hazard exists.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.state_function import PayloadClass, StateFunctionBatch


def batches_parallelizable(first: StateFunctionBatch, second: StateFunctionBatch) -> bool:
    """Table I: can ``first`` and ``second`` execute concurrently?"""
    return payload_classes_parallelizable(first.payload_class, second.payload_class)


def payload_classes_parallelizable(first: PayloadClass, second: PayloadClass) -> bool:
    """The payload-hazard rule on raw payload classes."""
    if first == PayloadClass.WRITE:
        return second == PayloadClass.IGNORE
    if second == PayloadClass.WRITE:
        return first == PayloadClass.IGNORE
    return True


class ParallelSchedule:
    """Chain-ordered batches grouped into parallel waves."""

    __slots__ = ("waves",)

    def __init__(self, waves: Sequence[Sequence[StateFunctionBatch]]):
        self.waves: Tuple[Tuple[StateFunctionBatch, ...], ...] = tuple(
            tuple(wave) for wave in waves
        )

    @property
    def batch_count(self) -> int:
        return sum(len(wave) for wave in self.waves)

    @property
    def wave_count(self) -> int:
        return len(self.waves)

    def copy(self, copies: Dict[int, object]) -> "ParallelSchedule":
        # Each batch is normally also some Local MAT rule's ``sf_batch``;
        # ``copies`` keeps that aliasing.
        clone = ParallelSchedule.__new__(ParallelSchedule)
        clone.waves = tuple(tuple(batch.copy(copies) for batch in wave) for wave in self.waves)
        return clone

    def __repr__(self) -> str:
        shape = " | ".join("+".join(b.nf_name or "?" for b in wave) for wave in self.waves)
        return f"<ParallelSchedule [{shape}]>"


def build_schedule(batches: Sequence[StateFunctionBatch]) -> ParallelSchedule:
    """Greedy wave construction over the chain-ordered non-empty batches."""
    waves: List[List[StateFunctionBatch]] = []
    current: List[StateFunctionBatch] = []
    for batch in batches:
        if not batch:
            continue
        if current and not all(batches_parallelizable(batch, member) for member in current):
            waves.append(current)
            current = [batch]
        else:
            current.append(batch)
    if current:
        waves.append(current)
    return ParallelSchedule(waves)
