"""The Global MAT (§V).

For every flow the Global MAT holds one :class:`GlobalRule`: the
consolidated header action plus the parallel schedule of state-function
batches.  Rules are built from the chain-ordered Local MAT records when
the initial packet finishes the original path, and rebuilt whenever the
Event Table fires an update for the flow.

Early drop and state functions: when the consolidated action is DROP
(some NF at position *k* drops the flow), the rule still executes the
state-function batches of NFs at positions ≤ *k* — those NFs observed the
packet on the original path (e.g. a Monitor in front of the dropping
Firewall keeps counting) — and discards the batches of NFs after *k*,
which never saw the packet.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.actions import Drop, HeaderAction
from repro.core.consolidation import ConsolidatedAction, consolidate_header_actions
from repro.core.local_mat import LocalRule
from repro.core.parallel import ParallelSchedule, build_schedule
from repro.core.state_function import StateFunctionBatch
from repro.obs.audit import AuditLog, NULL_AUDIT
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY


class GlobalRule:
    """One flow's consolidated fast-path rule."""

    __slots__ = (
        "fid",
        "consolidated",
        "schedule",
        "nf_names",
        "pre_drop",
        "dropper",
        "version",
        "hits",
        "program",
    )

    def __init__(
        self,
        fid: int,
        consolidated: ConsolidatedAction,
        schedule: ParallelSchedule,
        nf_names: Sequence[str],
        pre_drop: Optional[ConsolidatedAction] = None,
        dropper: Optional[str] = None,
    ):
        self.fid = fid
        self.consolidated = consolidated
        self.schedule = schedule
        self.nf_names: Tuple[str, ...] = tuple(nf_names)
        #: for drop rules: the consolidation of the actions *upstream* of
        #: the drop — applied before state functions run, so they observe
        #: the packet exactly as the original path showed it to their NFs
        self.pre_drop = pre_drop
        #: name of the NF whose DROP ended the chain (drop rules only)
        self.dropper = dropper
        self.version = 1
        self.hits = 0
        #: the rule's :class:`~repro.core.fastpath.RuleProgram` on the
        #: runtime that holds it, built on the rule's first fast-path packet
        self.program = None

    def copy(self, copies: Dict[int, object]) -> "GlobalRule":
        # Only the schedule (its functions count invocations; the copy
        # leaves their handlers out) and the two counters can differ
        # between a rule and its snapshot; the consolidated actions and
        # the tuples are immutable and shared.  The program runs this
        # runtime's NFs, so the copy is left without one, as it is
        # without handlers.
        clone = GlobalRule.__new__(GlobalRule)
        clone.fid = self.fid
        clone.consolidated = self.consolidated
        clone.schedule = self.schedule.copy(copies)
        clone.nf_names = self.nf_names
        clone.pre_drop = self.pre_drop
        clone.dropper = self.dropper
        clone.version = self.version
        clone.hits = self.hits
        clone.program = None
        return clone

    def __repr__(self) -> str:
        return (
            f"<GlobalRule fid={self.fid} v{self.version} {self.consolidated!r} "
            f"waves={self.schedule.wave_count}>"
        )


class GlobalMAT:
    """FID → consolidated rule, plus the consolidation procedure.

    ``capacity`` bounds the rule table (the 20-bit FID space is finite
    and rules pin memory): when full, the least-recently-used rule is
    evicted and ``on_evict(fid)`` — if provided — lets the framework tear
    down the flow's Local MAT records and events.  Evicted flows simply
    fall back to the original path and re-consolidate on their next
    packet, so eviction is always safe.
    """

    def __init__(
        self,
        enable_parallelism: bool = True,
        capacity: Optional[int] = None,
        on_evict: Optional[Callable[[int], None]] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        audit: AuditLog = NULL_AUDIT,
    ):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.enable_parallelism = enable_parallelism
        self.capacity = capacity
        self.on_evict = on_evict
        self.audit = audit
        self._rules: "OrderedDict[int, GlobalRule]" = OrderedDict()
        self.consolidations = 0
        self.reconsolidations = 0
        self.evictions = 0
        lookups = metrics.counter("global_mat_lookups_total", "fast-path rule lookups")
        self._m_hits = lookups.labels(result="hit")
        self._m_misses = lookups.labels(result="miss")
        self._m_consolidations = metrics.counter(
            "global_mat_consolidations_total", "rules built (incl. rebuilds)"
        )
        self._m_reconsolidations = metrics.counter(
            "global_mat_reconsolidations_total", "event-driven rule rebuilds"
        )
        self._m_evictions = metrics.counter(
            "global_mat_evictions_total", "LRU evictions at capacity"
        )
        self._m_occupancy = metrics.gauge(
            "global_mat_occupancy", "rules currently installed"
        )

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, fid: int) -> bool:
        return fid in self._rules

    def lookup(self, fid: int) -> Optional[GlobalRule]:
        rule = self._rules.get(fid)
        if rule is not None:
            rule.hits += 1
            self._rules.move_to_end(fid)  # most recently used
            self._m_hits.inc()
        else:
            self._m_misses.inc()
        return rule

    def peek(self, fid: int) -> Optional[GlobalRule]:
        return self._rules.get(fid)

    def build_rule(self, fid: int, local_rules: Sequence[Tuple[str, LocalRule]]) -> GlobalRule:
        """Consolidate the chain-ordered per-NF records into one rule.

        ``local_rules`` pairs each NF name with its Local MAT record for
        the flow, in chain order; NFs with no record contribute nothing.
        """
        actions: List[HeaderAction] = []
        pre_drop_actions: List[HeaderAction] = []
        drop_position: Optional[int] = None
        dropper: Optional[str] = None
        for position, (name, rule) in enumerate(local_rules):
            if rule is None:
                continue
            actions.extend(rule.header_actions)
            if drop_position is None:
                for action in rule.header_actions:
                    if isinstance(action, Drop):
                        drop_position = position
                        dropper = name
                        break
                    pre_drop_actions.append(action)

        consolidated = consolidate_header_actions(actions)
        pre_drop: Optional[ConsolidatedAction] = None
        if drop_position is not None:
            pre_drop = consolidate_header_actions(pre_drop_actions)

        batches: List[StateFunctionBatch] = []
        for position, (__, rule) in enumerate(local_rules):
            if rule is None or not rule.sf_batch:
                continue
            if drop_position is not None and position > drop_position:
                continue  # NFs after the dropper never saw the packet
            batches.append(rule.sf_batch)

        if self.enable_parallelism:
            schedule = build_schedule(batches)
        else:
            schedule = ParallelSchedule([[batch] for batch in batches])

        nf_names = [name for name, __ in local_rules]
        new_rule = GlobalRule(
            fid,
            consolidated,
            schedule,
            nf_names,
            pre_drop=pre_drop,
            dropper=dropper,
        )
        return self._install(new_rule)

    def install_prebuilt(self, fid: int, template: GlobalRule) -> GlobalRule:
        """Install a rule for ``fid`` sharing a template's consolidation.

        Bulk admission (``repro.core.batchlane``) calls this when a new
        flow's recorded behaviour is action-for-action identical to a
        flow that already consolidated: the expensive artifacts — the consolidated
        action, the parallel schedule, the pre-drop consolidation, the rule
        program — are
        *shared by identity* with the template (all immutable once built;
        event-driven rebuilds replace the rule rather than mutate these).
        Counter, audit and LRU side effects mirror :meth:`build_rule`
        exactly, so the resulting table state is indistinguishable from a
        from-scratch consolidation.
        """
        new_rule = GlobalRule(
            fid,
            template.consolidated,
            template.schedule,
            template.nf_names,
            pre_drop=template.pre_drop,
            dropper=template.dropper,
        )
        new_rule.program = template.program
        return self._install(new_rule)

    def _install(self, new_rule: GlobalRule) -> GlobalRule:
        """Put a freshly made rule in the table: carry the version and
        hit count over from the rule it replaces, count and audit the
        (re)consolidation, touch the LRU, enforce the capacity."""
        fid = new_rule.fid
        existing = self._rules.get(fid)
        if existing is not None:
            new_rule.version = existing.version + 1
            new_rule.hits = existing.hits
            self.reconsolidations += 1
            self._m_reconsolidations.inc()
        self.consolidations += 1
        self._m_consolidations.inc()
        self.audit.emit(
            "global_mat_rebuild" if existing is not None else "global_mat_insert",
            fid=fid,
            version=new_rule.version,
            waves=new_rule.schedule.wave_count,
            drop=new_rule.consolidated.drop,
        )
        self._rules[fid] = new_rule
        self._rules.move_to_end(fid)
        self._enforce_capacity(keep_fid=fid)
        self._m_occupancy.set(len(self._rules))
        return new_rule

    def _enforce_capacity(self, keep_fid: int) -> None:
        if self.capacity is None:
            return
        while len(self._rules) > self.capacity:
            victim_fid = next(iter(self._rules))
            if victim_fid == keep_fid:
                # Never evict the rule just installed.
                self._rules.move_to_end(victim_fid)
                victim_fid = next(iter(self._rules))
            del self._rules[victim_fid]
            self.evictions += 1
            self._m_evictions.inc()
            self.audit.emit("global_mat_evict", fid=victim_fid)
            if self.on_evict is not None:
                self.on_evict(victim_fid)

    def delete_flow(self, fid: int) -> bool:
        """FIN/RST cleanup (§VI-B): drop the rule, free the memory."""
        removed = self._rules.pop(fid, None) is not None
        if removed:
            self._m_occupancy.set(len(self._rules))
        return removed

    # -- migration support (repro.scale) -------------------------------------

    def import_rule(self, rule: GlobalRule) -> None:
        """Adopt an imported rule (schedule handlers already resolved)."""
        self._rules[rule.fid] = rule
        self._rules.move_to_end(rule.fid)
        self._enforce_capacity(keep_fid=rule.fid)
        self._m_occupancy.set(len(self._rules))

    def flows(self) -> Tuple[int, ...]:
        return tuple(self._rules)

    def __repr__(self) -> str:
        return f"<GlobalMAT {len(self._rules)} rules, {self.consolidations} consolidations>"
