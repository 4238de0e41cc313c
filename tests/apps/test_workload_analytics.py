"""Unit tests for the workload generator and the analytics application."""

import pytest

from repro.apps import (CatalogItem, EcommerceApp, WorkloadConfig,
                        build_report, run_order_workload)
from repro.apps.analytics import DatabaseImage, run_analytics
from repro.apps.ecommerce import BusinessState
from repro.apps.minidb import MemoryBlockDevice
from repro.simulation import Simulator
from tests.apps.conftest import make_db, run


def fresh_app(sim, qty=10_000):
    # zero-latency devices run thousands of orders per simulated second;
    # size the logs accordingly
    sales = make_db(sim, "sales", wal_blocks=65_536)
    stock = make_db(sim, "stock", wal_blocks=65_536)
    catalog = [CatalogItem(f"item-{i}", qty, 10.0 * (i + 1))
               for i in range(4)]
    app = EcommerceApp(sales, stock, catalog)
    run(sim, app.seed())
    return app


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(client_count=0)
        with pytest.raises(ValueError):
            WorkloadConfig(duration=0)


class TestRunOrderWorkload:
    def test_produces_orders_and_summary(self):
        sim = Simulator(seed=33)
        app = fresh_app(sim)
        result = run_order_workload(sim, app, WorkloadConfig(
            client_count=3, duration=0.5))
        assert result.accepted > 0
        assert result.throughput == result.accepted / 0.5
        summary = result.latency_summary()
        assert summary.count == result.accepted
        assert summary.p50 >= 0  # zero-latency devices: commits are free

    def test_deterministic_per_seed(self):
        def once():
            sim = Simulator(seed=44)
            app = fresh_app(sim)
            result = run_order_workload(sim, app, WorkloadConfig(
                client_count=2, duration=0.3))
            return [(r.gtid, r.item_id, r.qty) for r in result.results]

        assert once() == once()

    def test_rejections_counted(self):
        sim = Simulator(seed=66)
        app = fresh_app(sim, qty=1)  # stock exhausts almost immediately
        result = run_order_workload(sim, app, WorkloadConfig(
            client_count=2, duration=0.3))
        assert result.rejected > 0


class TestAnalytics:
    def test_run_analytics_over_images(self):
        sim = Simulator(seed=77)
        sales_wal, sales_data = MemoryBlockDevice(512), \
            MemoryBlockDevice(64)
        stock_wal, stock_data = MemoryBlockDevice(512), \
            MemoryBlockDevice(64)
        from repro.apps.minidb import MiniDB
        sales = MiniDB(sim, "sales", wal_device=sales_wal,
                       data_device=sales_data, bucket_count=8)
        stock = MiniDB(sim, "stock", wal_device=stock_wal,
                       data_device=stock_data, bucket_count=8)
        app = EcommerceApp(sales, stock,
                           [CatalogItem("w", 100, 2.5)])
        run(sim, app.seed())
        run(sim, app.place_order("w", 4))
        report = run(sim, run_analytics(
            sim,
            DatabaseImage(sales_wal, sales_data, 8),
            DatabaseImage(stock_wal, stock_data, 8)))
        assert report.order_count == 1
        assert report.total_revenue == pytest.approx(10.0)
        assert report.units_sold == {"w": 4}
        assert report.remaining_stock == {"w": 96}
        assert report.top_seller() == "w"
        assert report.scan_seconds >= 0

    def test_build_report_empty_state(self):
        report = build_report(BusinessState(
            orders={}, movements={}, quantities={}, prices={}))
        assert report.order_count == 0
        assert report.total_revenue == 0
        assert report.top_seller() is None
