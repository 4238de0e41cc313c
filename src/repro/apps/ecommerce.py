"""The e-commerce business process of the paper's use case (§II).

One business process, two databases:

* **sales** — the order ledger and the 2PC coordinator log;
* **stock** — inventory quantities and a stock-movement journal.

An order decrements inventory and records both the movement and the
order atomically via two-phase commit, so a backup image is *usable* only
if the two databases (four volumes: each database has a WAL volume and a
data volume) are recovered at a mutually consistent point — the exact
cross-resource dependency the paper's consistency group exists for.

Key schema:

* stock DB:  ``qty:<item>`` → remaining units,
  ``mov:<gtid>`` → JSON ``{"item", "qty"}``;
* sales DB:  ``order:<gtid>`` → JSON ``{"item", "qty", "amount"}``,
  ``price:<item>`` → unit price.

Deadlock freedom: the only contended keys are ``qty:<item>``; orders
acquire them in sorted item order.  Movement and order keys are unique
per transaction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence

from repro.errors import DatabaseError
from repro.apps.minidb.engine import MiniDB
from repro.apps.minidb.twophase import TwoPhaseCoordinator

SALES = "sales"
STOCK = "stock"


@dataclass(frozen=True)
class CatalogItem:
    """One sellable item."""

    item_id: str
    initial_qty: int
    unit_price: float

    def __post_init__(self) -> None:
        if self.initial_qty < 0:
            raise ValueError(f"{self.item_id}: negative initial quantity")
        if self.unit_price <= 0:
            raise ValueError(f"{self.item_id}: unit price must be > 0")


def default_catalog(item_count: int = 8,
                    initial_qty: int = 100_000) -> List[CatalogItem]:
    """A simple catalog for experiments (deterministic)."""
    return [CatalogItem(item_id=f"item-{i:03d}", initial_qty=initial_qty,
                        unit_price=float(5 + 3 * i))
            for i in range(item_count)]


@dataclass(frozen=True)
class OrderResult:
    """Outcome of one order attempt."""

    gtid: str
    accepted: bool
    item_id: str
    qty: int
    latency: float
    reason: str = ""


class EcommerceApp:
    """The transactional application of the demonstration."""

    def __init__(self, sales_db: MiniDB, stock_db: MiniDB,
                 catalog: Sequence[CatalogItem],
                 epoch: str = "") -> None:
        """``epoch`` qualifies global transaction ids so that an app
        incarnation recovered after a failover can never reuse a gtid an
        earlier incarnation already committed (order/movement keys are
        derived from gtids, so a collision would silently overwrite
        history)."""
        if sales_db.name != SALES or stock_db.name != STOCK:
            raise DatabaseError(
                "databases must be named 'sales' and 'stock' "
                f"(got {sales_db.name!r}, {stock_db.name!r})")
        self.sales_db = sales_db
        self.stock_db = stock_db
        self.catalog = {item.item_id: item for item in catalog}
        prefix = f"order-{epoch}" if epoch else "order"
        self.coordinator = TwoPhaseCoordinator(
            sales_db, [sales_db, stock_db], gtid_prefix=prefix)
        self.orders_accepted = 0
        self.orders_rejected = 0

    # -- setup ------------------------------------------------------------

    def seed(self) -> Generator[object, object, None]:
        """Load initial inventory and prices (single-DB transactions)."""
        stock_txn = self.stock_db.begin("seed-stock")
        for item in self.catalog.values():
            yield from self.stock_db.put(
                stock_txn, f"qty:{item.item_id}", str(item.initial_qty))
        yield from self.stock_db.commit(stock_txn)
        sales_txn = self.sales_db.begin("seed-sales")
        for item in self.catalog.values():
            yield from self.sales_db.put(
                sales_txn, f"price:{item.item_id}",
                f"{item.unit_price:.2f}")
        yield from self.sales_db.commit(sales_txn)

    def resolve_in_doubt(self) -> Generator[object, object, int]:
        """Finish orders whose commit decision survived a storage crash.

        Crash-tolerant clients call this once storage heals, *before*
        placing new orders: an in-doubt order holds its stock locks
        until resolved.  Returns the number of orders completed.
        """
        count = yield from self.coordinator.resolve_in_doubt()
        self.orders_accepted += count
        return count

    # -- the business transaction ---------------------------------------------

    def place_order(self, item_id: str, qty: int,
                    ) -> Generator[object, object, OrderResult]:
        """One order: check stock, decrement it, record movement + order.

        Atomic across both databases via 2PC; rejected (cleanly aborted)
        when the item is unknown or stock is insufficient.
        """
        if qty < 1:
            raise DatabaseError(f"order quantity must be >= 1: {qty}")
        dtx = self.coordinator.begin()
        try:
            item = self.catalog.get(item_id)
            if item is None:
                yield from dtx.abort()
                self.orders_rejected += 1
                return OrderResult(gtid=dtx.gtid, accepted=False,
                                   item_id=item_id, qty=qty, latency=0.0,
                                   reason="unknown item")
            current_raw = yield from dtx.get_for_update(
                STOCK, f"qty:{item_id}")
            current = int(current_raw) if current_raw is not None else 0
            if current < qty:
                outcome = yield from dtx.abort()
                self.orders_rejected += 1
                return OrderResult(gtid=dtx.gtid, accepted=False,
                                   item_id=item_id, qty=qty,
                                   latency=outcome.latency,
                                   reason="insufficient stock")
            yield from dtx.put(STOCK, f"qty:{item_id}",
                               str(current - qty))
            yield from dtx.put(STOCK, f"mov:{dtx.gtid}", json.dumps(
                {"item": item_id, "qty": qty}, sort_keys=True))
            amount = item.unit_price * qty
            yield from dtx.put(SALES, f"order:{dtx.gtid}", json.dumps(
                {"item": item_id, "qty": qty,
                 "amount": round(amount, 2)}, sort_keys=True))
            outcome = yield from dtx.commit()
        except Exception:
            # crash cleanup: the storage may have died under us; locks
            # must not outlive this transaction (siblings would hang)
            dtx.dispose()
            raise
        self.orders_accepted += 1
        return OrderResult(gtid=dtx.gtid, accepted=True, item_id=item_id,
                           qty=qty, latency=outcome.latency)


# ---------------------------------------------------------------------------
# State introspection shared by the consistency checker and analytics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BusinessState:
    """Decoded business content of (sales, stock) key-value states.

    Orders and movements are normalised to the *lines* form:
    ``orders[gtid] = {"lines": [{"item", "qty"}, ...], "amount": x}``,
    ``movements[gtid] = {"lines": [...]}``.
    """

    #: gtid -> {"lines": [...], "amount": float}
    orders: Dict[str, dict]
    #: gtid -> {"lines": [...]}
    movements: Dict[str, dict]
    #: item -> remaining units
    quantities: Dict[str, int]
    #: item -> unit price
    prices: Dict[str, float]


def _normalise_lines(decoded: dict) -> List[dict]:
    """The canonical lines form of one single-item record."""
    return [{"item": decoded["item"], "qty": decoded["qty"]}]


def decode_business_state(sales_state: Dict[str, str],
                          stock_state: Dict[str, str]) -> BusinessState:
    """Parse raw recovered key-value states into business terms."""
    orders: Dict[str, dict] = {}
    for key, value in sales_state.items():
        if not key.startswith("order:"):
            continue
        decoded = json.loads(value)
        orders[key.split(":", 1)[1]] = {
            "lines": _normalise_lines(decoded),
            "amount": decoded["amount"]}
    prices = {key.split(":", 1)[1]: float(value)
              for key, value in sales_state.items()
              if key.startswith("price:")}
    movements: Dict[str, dict] = {}
    for key, value in stock_state.items():
        if not key.startswith("mov:"):
            continue
        movements[key.split(":", 1)[1]] = {
            "lines": _normalise_lines(json.loads(value))}
    quantities = {key.split(":", 1)[1]: int(value)
                  for key, value in stock_state.items()
                  if key.startswith("qty:")}
    return BusinessState(orders=orders, movements=movements,
                         quantities=quantities, prices=prices)
