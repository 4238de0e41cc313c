"""Unit tests for the operator's pure logic: tags and planning."""

from repro.operator import (BackupMode, TAG_CONSISTENT, TAG_INDEPENDENT,
                            parse_tag, plan_backup, plan_differs)
from tests.platform.conftest import make_pvc


class TestTagParsing:
    def test_consistent_tag(self):
        assert parse_tag(TAG_CONSISTENT) is BackupMode.CONSISTENT_GROUP

    def test_independent_tag(self):
        assert parse_tag(TAG_INDEPENDENT) is BackupMode.INDEPENDENT

    def test_absent_tag(self):
        assert parse_tag(None) is None

    def test_unknown_value_ignored(self):
        assert parse_tag("SomebodyElsesLabel") is None

    def test_mode_properties(self):
        assert BackupMode.CONSISTENT_GROUP.uses_consistency_group
        assert not BackupMode.INDEPENDENT.uses_consistency_group


def bound(pvc):
    pvc.spec.volume_name = f"pv-{pvc.meta.name}"
    pvc.status.phase = "Bound"
    return pvc


class TestPlanner:
    def test_plan_collects_bound_claims_sorted(self):
        claims = [bound(make_pvc("shop", "stock")),
                  bound(make_pvc("shop", "sales"))]
        plan = plan_backup("shop", BackupMode.CONSISTENT_GROUP, claims)
        assert plan.pvc_names == ("sales", "stock")
        assert plan.complete
        assert not plan.empty
        assert plan.cr_name() == "nso-shop"

    def test_unbound_claims_block_completion(self):
        claims = [bound(make_pvc("shop", "sales")),
                  make_pvc("shop", "pending")]
        plan = plan_backup("shop", BackupMode.CONSISTENT_GROUP, claims)
        assert not plan.complete
        assert plan.unbound_pvc_names == ("pending",)

    def test_empty_namespace(self):
        plan = plan_backup("shop", BackupMode.CONSISTENT_GROUP, [])
        assert plan.empty
        assert plan.complete

    def test_plan_differs_on_membership(self):
        plan = plan_backup("shop", BackupMode.CONSISTENT_GROUP,
                           [bound(make_pvc("shop", "a")),
                            bound(make_pvc("shop", "b"))])
        assert not plan_differs(plan, ["b", "a"], True)
        assert plan_differs(plan, ["a"], True)
        assert plan_differs(plan, ["a", "b", "c"], True)

    def test_plan_differs_on_mode(self):
        plan = plan_backup("shop", BackupMode.INDEPENDENT,
                           [bound(make_pvc("shop", "a"))])
        assert plan_differs(plan, ["a"], True)
        assert not plan_differs(plan, ["a"], False)
