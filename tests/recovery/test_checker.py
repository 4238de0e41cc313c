"""Unit tests for the storage-cut and business-invariant checkers."""

import pytest

from repro.apps import CatalogItem
from repro.apps.ecommerce import decode_business_state
from repro.recovery import (check_business_invariants, check_storage_cut)
from repro.storage import WriteHistory


def history_of(*writes):
    """Build a history from (volume_id, block, version) triples."""
    history = WriteHistory()
    for index, (volume_id, block, version) in enumerate(writes):
        history.append_many(index * 0.001,
                            [(volume_id, block, version, None)])
    return history


class TestStorageCut:
    def test_full_image_is_consistent(self):
        history = history_of((1, 0, 1), (2, 0, 1), (1, 1, 2))
        image = {1: {0: 1, 1: 2}, 2: {0: 1}}
        report = check_storage_cut(history, image)
        assert report.consistent
        assert report.applied_count == 3
        assert report.missing_count == 0
        assert report.prefix_seq == 2

    def test_prefix_image_is_consistent(self):
        """Missing a suffix of the ack order is fine (bounded RPO)."""
        history = history_of((1, 0, 1), (2, 0, 1), (1, 1, 2), (2, 1, 2))
        image = {1: {0: 1}, 2: {0: 1}}  # last two writes lost
        report = check_storage_cut(history, image)
        assert report.consistent
        assert report.missing_count == 2

    def test_gap_then_applied_is_collapsed(self):
        """Volume 2 ahead of volume 1: the §I collapse at storage level."""
        history = history_of((1, 0, 1), (2, 0, 1), (1, 0, 2), (2, 0, 2))
        image = {1: {0: 1}, 2: {0: 2}}  # vol 1 stale, vol 2 current
        report = check_storage_cut(history, image)
        assert not report.consistent
        assert len(report.witnesses) == 1
        witness = report.witnesses[0]
        assert witness.missing.volume_id == 1
        assert witness.applied.volume_id == 2
        assert "present although earlier" in str(witness)

    def test_single_volume_prefix_gap_detected(self):
        history = history_of((1, 0, 1), (1, 1, 2), (1, 0, 3))
        image = {1: {0: 3}}  # has v3 but missing the v2 write to block 1
        report = check_storage_cut(history, image)
        assert not report.consistent

    def test_unacked_inflight_writes_are_harmless(self):
        """SDC applies before ack: backup may hold never-acked writes."""
        history = history_of((1, 0, 1))
        image = {1: {0: 1, 5: 7}}  # block 5 v7 was never acked
        report = check_storage_cut(history, image)
        assert report.consistent
        assert report.unacked_count == 1

    def test_empty_history_and_image(self):
        report = check_storage_cut(WriteHistory(), {1: {}})
        assert report.consistent
        assert report.prefix_seq == -1

    def test_report_rendering(self):
        history = history_of((1, 0, 1))
        report = check_storage_cut(history, {1: {0: 1}})
        assert "CONSISTENT" in str(report)


def business(orders, movements, quantities, prices=None):
    sales_state = {f"order:{g}": v for g, v in orders.items()}
    sales_state.update({f"price:{i}": str(p)
                        for i, p in (prices or {}).items()})
    stock_state = {f"mov:{g}": v for g, v in movements.items()}
    stock_state.update({f"qty:{i}": str(q)
                        for i, q in quantities.items()})
    return decode_business_state(sales_state, stock_state)


ORDER_A = '{"amount": 10.0, "item": "widget", "qty": 1}'
MOV_A = '{"item": "widget", "qty": 1}'
CATALOG = [CatalogItem("widget", 10, 10.0)]


class TestBusinessInvariants:
    def test_consistent_state_passes(self):
        state = business({"g1": ORDER_A}, {"g1": MOV_A}, {"widget": 9})
        report = check_business_invariants(state, CATALOG)
        assert report.consistent
        assert not report.collapsed

    def test_order_without_movement(self):
        state = business({"g1": ORDER_A}, {}, {"widget": 10})
        report = check_business_invariants(state, CATALOG)
        assert not report.consistent
        assert report.violations[0].kind == "order-without-movement"
        assert not report.collapsed  # one-sided: not the mutual signature

    def test_mutual_missing_is_collapse(self):
        state = business({"g1": ORDER_A}, {"g2": MOV_A}, {"widget": 9})
        report = check_business_invariants(state, CATALOG)
        assert report.collapsed
        assert "COLLAPSED" in str(report)

    def test_stock_conservation_violation(self):
        state = business({"g1": ORDER_A}, {"g1": MOV_A}, {"widget": 5})
        report = check_business_invariants(state, CATALOG)
        assert not report.consistent
        kinds = {v.kind for v in report.violations}
        assert "stock-not-conserved" in kinds

    def test_quantity_record_missing(self):
        state = business({}, {}, {})
        report = check_business_invariants(state, CATALOG)
        assert {v.kind for v in report.violations} == {"missing-quantity"}

    def test_order_movement_mismatch(self):
        other_mov = '{"item": "widget", "qty": 3}'
        state = business({"g1": ORDER_A}, {"g1": other_mov},
                         {"widget": 7})
        report = check_business_invariants(state, CATALOG)
        kinds = {v.kind for v in report.violations}
        assert "order-movement-mismatch" in kinds
