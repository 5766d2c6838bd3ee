"""Unit tests for the Global MAT (repro.core.global_mat)."""

from repro.core.actions import Drop, Forward, Modify
from repro.core.global_mat import GlobalMAT
from repro.core.local_mat import LocalMAT
from repro.core.state_function import PayloadClass, StateFunction
from tests.integration.helpers import max_wave_width, schedule_batches


def local_rule(nf_name, fid, actions=(), sf_classes=()):
    mat = LocalMAT(nf_name)
    for action in actions:
        mat.add_header_action(fid, action)
    for payload_class in sf_classes:
        mat.add_state_function(
            fid, StateFunction(lambda p: None, payload_class, nf_name=nf_name)
        )
    return mat.rule_for(fid) or mat.begin_recording(fid)


class TestBuildRule:
    def test_consolidates_actions_across_nfs(self):
        gmat = GlobalMAT()
        rules = [
            ("nat", local_rule("nat", 1, [Modify.set(src_port=9999)])),
            ("lb", local_rule("lb", 1, [Modify.set(dst_port=8080)])),
        ]
        rule = gmat.build_rule(1, rules)
        assert len(rule.consolidated.field_ops) == 2
        assert rule.nf_names == ("nat", "lb")

    def test_none_rules_skipped(self):
        gmat = GlobalMAT()
        rule = gmat.build_rule(1, [("a", None), ("b", local_rule("b", 1, [Forward()]))])
        assert rule.consolidated.is_noop

    def test_parallel_schedule_by_default(self):
        gmat = GlobalMAT(enable_parallelism=True)
        rules = [
            ("s1", local_rule("s1", 1, [Forward()], [PayloadClass.READ])),
            ("s2", local_rule("s2", 1, [Forward()], [PayloadClass.READ])),
        ]
        rule = gmat.build_rule(1, rules)
        assert rule.schedule.wave_count == 1
        assert max_wave_width(rule.schedule) == 2

    def test_sequential_schedule_when_parallelism_disabled(self):
        gmat = GlobalMAT(enable_parallelism=False)
        rules = [
            ("s1", local_rule("s1", 1, [Forward()], [PayloadClass.READ])),
            ("s2", local_rule("s2", 1, [Forward()], [PayloadClass.READ])),
        ]
        rule = gmat.build_rule(1, rules)
        assert rule.schedule.wave_count == 2
        assert max_wave_width(rule.schedule) == 1


class TestDropTruncation:
    def test_sfs_after_dropper_discarded(self):
        gmat = GlobalMAT()
        rules = [
            ("mon", local_rule("mon", 1, [Forward()], [PayloadClass.IGNORE])),
            ("fw", local_rule("fw", 1, [Drop()])),
            ("ids", local_rule("ids", 1, [Forward()], [PayloadClass.READ])),
        ]
        rule = gmat.build_rule(1, rules)
        assert rule.consolidated.drop
        names = [batch.nf_name for batch in schedule_batches(rule.schedule)]
        assert names == ["mon"]  # the IDS after the firewall never saw it

    def test_dropper_own_sfs_kept(self):
        gmat = GlobalMAT()
        rules = [
            ("dos", local_rule("dos", 1, [Drop()], [PayloadClass.IGNORE])),
        ]
        rule = gmat.build_rule(1, rules)
        names = [batch.nf_name for batch in schedule_batches(rule.schedule)]
        assert names == ["dos"]

    def test_pre_drop_consolidation_recorded(self):
        gmat = GlobalMAT()
        rules = [
            ("nat", local_rule("nat", 1, [Modify.set(src_port=7777)], [])),
            ("fw", local_rule("fw", 1, [Drop()])),
            ("tail", local_rule("tail", 1, [Modify.set(dst_port=1)])),
        ]
        rule = gmat.build_rule(1, rules)
        assert rule.consolidated.drop
        assert rule.dropper == "fw"
        # pre_drop holds only the upstream rewrite, never the post-drop one.
        assert rule.pre_drop is not None
        fields = {field.value for field in rule.pre_drop.field_ops}
        assert fields == {"src_port"}

    def test_non_drop_rule_has_no_pre_drop(self):
        gmat = GlobalMAT()
        rule = gmat.build_rule(1, [("a", local_rule("a", 1, [Forward()]))])
        assert rule.pre_drop is None
        assert rule.dropper is None

    def test_droppers_own_pre_drop_actions_included(self):
        gmat = GlobalMAT()
        rules = [
            ("markdrop", local_rule("markdrop", 1, [Modify.set(dst_port=5), Drop()])),
        ]
        rule = gmat.build_rule(1, rules)
        assert rule.dropper == "markdrop"
        assert {field.value for field in rule.pre_drop.field_ops} == {"dst_port"}


class TestLifecycle:
    def test_lookup_counts_hits(self):
        gmat = GlobalMAT()
        gmat.build_rule(1, [("a", local_rule("a", 1, [Forward()]))])
        gmat.lookup(1)
        gmat.lookup(1)
        assert gmat.peek(1).hits == 2

    def test_lookup_miss_returns_none(self):
        assert GlobalMAT().lookup(99) is None

    def test_reconsolidation_bumps_version(self):
        gmat = GlobalMAT()
        gmat.build_rule(1, [("a", local_rule("a", 1, [Forward()]))])
        rule = gmat.build_rule(1, [("a", local_rule("a", 1, [Drop()]))])
        assert rule.version == 2
        assert gmat.reconsolidations == 1

    def test_delete_flow(self):
        gmat = GlobalMAT()
        gmat.build_rule(1, [("a", local_rule("a", 1, [Forward()]))])
        assert gmat.delete_flow(1)
        assert 1 not in gmat
        assert not gmat.delete_flow(1)

    def test_flows_listing(self):
        gmat = GlobalMAT()
        gmat.build_rule(1, [("a", local_rule("a", 1, [Forward()]))])
        gmat.build_rule(2, [("a", local_rule("a", 2, [Forward()]))])
        assert set(gmat.flows()) == {1, 2}
