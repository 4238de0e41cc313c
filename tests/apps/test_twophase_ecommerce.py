"""Tests for two-phase commit and the e-commerce application."""

import pytest

from repro.errors import TwoPhaseCommitError
from repro.apps import (CatalogItem, EcommerceApp, build_report,
                        decode_business_state, default_catalog)
from repro.apps.minidb import (MemoryBlockDevice, TwoPhaseCoordinator,
                               recover_database)
from tests.apps.conftest import make_db, run


@pytest.fixture()
def pair(sim):
    sales = make_db(sim, "sales")
    stock = make_db(sim, "stock")
    return sales, stock


class TestTwoPhaseCommit:
    def test_atomic_cross_db_commit(self, sim, pair):
        sales, stock = pair
        coord = TwoPhaseCoordinator(sales, [sales, stock])

        def proc(sim):
            dtx = coord.begin()
            yield from dtx.put("sales", "order:1", "{}")
            yield from dtx.put("stock", "mov:1", "{}")
            yield from dtx.commit()

        run(sim, proc(sim))
        assert run(sim, sales.read("order:1")) == "{}"
        assert run(sim, stock.read("mov:1")) == "{}"

    def test_coordinator_must_participate(self, sim, pair):
        sales, stock = pair
        with pytest.raises(TwoPhaseCommitError):
            TwoPhaseCoordinator(sales, [stock])

    def test_empty_transaction_rejected(self, sim, pair):
        sales, stock = pair
        coord = TwoPhaseCoordinator(sales, [sales, stock])
        proc = sim.spawn(coord.begin().commit())
        sim.run()
        with pytest.raises(TwoPhaseCommitError):
            _ = proc.result

    def test_prepared_abort_leaves_no_trace(self, sim, pair):
        sales, stock = pair
        coord = TwoPhaseCoordinator(sales, [sales, stock])

        def proc(sim):
            dtx = coord.begin()
            yield from dtx.put("sales", "order:x", "{}")
            yield from dtx.put("stock", "mov:x", "{}")
            yield from dtx.abort(prepared=True)

        run(sim, proc(sim))
        assert run(sim, sales.read("order:x")) is None
        assert run(sim, stock.read("mov:x")) is None

    def test_finished_transaction_rejects_reuse(self, sim, pair):
        sales, stock = pair
        coord = TwoPhaseCoordinator(sales, [sales, stock])

        def proc(sim):
            dtx = coord.begin()
            yield from dtx.put("sales", "k", "v")
            yield from dtx.commit()
            yield from dtx.put("sales", "k2", "v")

        proc_handle = sim.spawn(proc(sim))
        sim.run()
        with pytest.raises(TwoPhaseCommitError):
            _ = proc_handle.result

    def test_decision_record_lands_in_coordinator_wal(self, sim):
        sales_wal = MemoryBlockDevice(64)
        from repro.apps.minidb import MiniDB
        sales = MiniDB(sim, "sales", wal_device=sales_wal,
                       data_device=MemoryBlockDevice(64), bucket_count=4)
        stock = make_db(sim, "stock")
        coord = TwoPhaseCoordinator(sales, [sales, stock])

        def proc(sim):
            dtx = coord.begin("gtx-77")
            yield from dtx.put("stock", "k", "v")
            yield from dtx.commit()

        run(sim, proc(sim))
        recovered = run(sim, recover_database(
            sim, "sales", sales_wal, MemoryBlockDevice(64),
            bucket_count=4))
        assert recovered.coordinator_decisions == {"gtx-77": True}


class TestEcommerceApp:
    def make_app(self, sim, pair, qty=10):
        sales, stock = pair
        catalog = [CatalogItem("item-a", qty, 10.0),
                   CatalogItem("item-b", qty, 20.0)]
        app = EcommerceApp(sales, stock, catalog)
        run(sim, app.seed())
        return app

    def test_order_decrements_stock_and_records_both_sides(self, sim, pair):
        app = self.make_app(sim, pair)
        result = run(sim, app.place_order("item-a", 3))
        assert result.accepted
        sales, stock = pair
        assert run(sim, stock.read("qty:item-a")) == "7"
        assert run(sim, stock.read(f"mov:{result.gtid}")) is not None
        assert run(sim, sales.read(f"order:{result.gtid}")) is not None

    def test_insufficient_stock_rejected_cleanly(self, sim, pair):
        app = self.make_app(sim, pair, qty=2)
        result = run(sim, app.place_order("item-a", 5))
        assert not result.accepted
        assert result.reason == "insufficient stock"
        sales, stock = pair
        assert run(sim, stock.read("qty:item-a")) == "2"
        assert app.orders_rejected == 1

    def test_unknown_item_rejected(self, sim, pair):
        app = self.make_app(sim, pair)
        result = run(sim, app.place_order("nope", 1))
        assert not result.accepted
        assert result.reason == "unknown item"

    def test_concurrent_orders_conserve_stock(self, sim, pair):
        app = self.make_app(sim, pair, qty=100)

        def buyer(sim, count):
            for _ in range(count):
                yield from app.place_order("item-a", 1)

        for _ in range(5):
            sim.spawn(buyer(sim, 10))
        sim.run()
        sales, stock = pair
        assert run(sim, stock.read("qty:item-a")) == "50"
        assert app.orders_accepted == 50

    def test_decode_business_state_and_report(self, sim, pair):
        app = self.make_app(sim, pair, qty=50)
        run(sim, app.place_order("item-a", 2))
        run(sim, app.place_order("item-b", 5))

        # decode from the engines' committed page caches
        sales, stock = pair
        sales_state = {}
        stock_state = {}
        for page in sales._cache.values():
            sales_state.update(page.data)
        for page in stock._cache.values():
            stock_state.update(page.data)
        business = decode_business_state(sales_state, stock_state)
        assert len(business.orders) == 2
        assert len(business.movements) == 2
        assert business.quantities["item-a"] == 48
        report = build_report(business)
        assert report.order_count == 2
        assert report.total_revenue == pytest.approx(2 * 10.0 + 5 * 20.0)
        assert report.units_sold == {"item-a": 2, "item-b": 5}
        assert report.top_seller() == "item-b"

    def test_default_catalog_is_deterministic(self):
        assert default_catalog(3) == default_catalog(3)
        assert default_catalog(3)[0].item_id == "item-000"

    def test_catalog_validation(self):
        with pytest.raises(ValueError):
            CatalogItem("x", -1, 1.0)
        with pytest.raises(ValueError):
            CatalogItem("x", 1, 0.0)
