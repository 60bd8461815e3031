"""Shopping app: six screens from browsing through checkout.

Prices are integer cents. Checkout turns the cart into an order record and
clears the cart. The user path and the flat API run the same operations, so
both routes write identical records.
"""

from __future__ import annotations

import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    DEFAULT_PAGE, PAGING, list_op, on_open, open_op, read_op, render_records, require_record,
)

PRODUCT_FIELDS = ("name", "price")


def _find_variant(products: list[dict], variant_id: str) -> tuple[dict, dict] | None:
    for product in products:
        for variant in product["variants"]:
            if variant["id"] == variant_id:
                return product, variant
    return None


def _quantity(ctx: ToolContext, default: int) -> int:
    quantity = ctx.args.get("quantity", default)
    if quantity < 1:
        raise GuardFailed(f"quantity must be at least 1, not {quantity}")
    return quantity


# -- screens ------------------------------------------------------------------

view_product = open_op("products", "product_id", "product", key="open_product")


def view_cart(ctx: ToolContext) -> str:
    items = ctx.store("cart").all()
    total = sum(i["price"] * i["quantity"] for i in items)
    return render_records(items, ("name", "price", "quantity")) + f"\ntotal={total}"


def view_variant(ctx: ToolContext) -> str:
    product = require_record(ctx.store("products"), ctx.session.get("open_product", ""),
                             "open product")
    variant_id = ctx.args["variant_id"]
    hit = _find_variant([product], variant_id)
    if hit is None:
        raise GuardFailed(f"product {product['id']} has no variant {variant_id!r}")
    ctx.session["open_variant"] = variant_id
    return json.dumps(hit[1], sort_keys=True)


def refresh_variant(ctx: ToolContext) -> str:
    hit = _find_variant(ctx.store("products").all(), ctx.session.get("open_variant", ""))
    if hit is None:
        raise GuardFailed("no open variant")
    return json.dumps(hit[1], sort_keys=True)


def remove_item(ctx: ToolContext) -> str:
    cart = ctx.store("cart")
    item = require_record(cart, ctx.args["item_id"], "cart item")
    drop = _quantity(ctx, item["quantity"])
    if drop >= item["quantity"]:
        cart.remove(item["id"])
        return f"removed {item['id']} from cart"
    quantity = cart.update(item["id"], quantity=item["quantity"] - drop)["quantity"]
    return f"reduced {item['id']} to quantity {quantity}"


def checkout(ctx: ToolContext) -> str:
    cart = ctx.store("cart")
    items = cart.all()
    if not items:
        raise GuardFailed("cart is empty")
    total = sum(item["price"] * item["quantity"] for item in items)
    order_id = ctx.store("orders").add({
        "items": [{k: item[k] for k in ("variant_id", "name", "price", "quantity")}
                  for item in items],
        "total": total,
        "timestamp": ctx.clock.render(),
        "status": "placed",
    })
    for item in items:
        cart.remove(item["id"])
    ctx.session["open_order"] = order_id
    return f"order placed as {order_id}"


view_order_from_list = open_op("orders", "order_id", "order", key="open_order")


# -- flat API; the Variant and OrderDetail screens act through on_open ----------

list_orders = list_op("orders", ("total", "status", "timestamp"))
get_order = read_op("orders", "order_id", "order")


def add_to_cart(ctx: ToolContext) -> str:
    variant_id = ctx.args["variant_id"]
    quantity = _quantity(ctx, 1)
    hit = _find_variant(ctx.store("products").all(), variant_id)
    if hit is None:
        raise GuardFailed(f"no variant with id {variant_id!r}")
    product, variant = hit
    item_id = ctx.store("cart").add({
        "variant_id": variant_id,
        "product_id": product["id"],
        "name": f"{product['name']} ({variant['name']})",
        "price": variant["price"],
        "quantity": quantity,
    })
    return f"added to cart as {item_id}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("Home", ToolSpec("list_products", PAGING, read_only=True,
                           description="Browse the product catalog."),
          list_op("products", PRODUCT_FIELDS, DEFAULT_PAGE)),
        t("Home", ToolSpec("view_product", (Param("product_id"),),
                           description="Open a product page."), view_product, ("Product",)),
        t("Home", ToolSpec("view_cart", (), read_only=True,
                           description="Open the shopping cart."), view_cart, ("Cart",)),
        t("Home", ToolSpec("list_orders", (), read_only=True,
                           description="Open the order history."), list_orders, ("Orders",)),
        t("Product", ToolSpec("view_variant", (Param("variant_id"),),
                              description="Inspect a product variant."), view_variant, ("Variant",)),
        t("Variant", ToolSpec("refresh_variant", (), read_only=True,
                              description="Re-read the open variant."), refresh_variant),
        t("Variant", ToolSpec("add_to_cart", (Param("quantity", "int", required=False),),
                              description="Add the open variant to the cart."),
          on_open(add_to_cart, "variant_id", key="open_variant"), ("Cart",)),
        t("Cart", ToolSpec("remove_item",
                           (Param("item_id"), Param("quantity", "int", required=False)),
                           description="Remove an item or reduce its quantity."), remove_item),
        t("Cart", ToolSpec("checkout", (), description="Place the order."),
          checkout, ("OrderDetail",)),
        t("Orders", ToolSpec("view_order", (Param("order_id"),),
                             description="Open an order."), view_order_from_list, ("OrderDetail",)),
        t("OrderDetail", ToolSpec("view_order", (), read_only=True,
                                  description="Re-read the open order."),
          on_open(get_order, "order_id", key="open_order")),
    )
    api = (
        ApiTool(ToolSpec("list_products", (), read_only=True,
                         description="List all products."),
                list_op("products", PRODUCT_FIELDS)),
        ApiTool(ToolSpec("get_product", (Param("product_id"),), read_only=True,
                         description="Read a product with its variants."),
                read_op("products", "product_id", "product")),
        ApiTool(ToolSpec("view_cart", (), read_only=True,
                         description="Read the cart contents."), view_cart),
        ApiTool(ToolSpec("list_orders", (), read_only=True,
                         description="List orders."), list_orders),
        ApiTool(ToolSpec("get_order", (Param("order_id"),), read_only=True,
                         description="Read an order."), get_order),
        ApiTool(ToolSpec("add_to_cart",
                         (Param("variant_id"), Param("quantity", "int", required=False)),
                         description="Add a variant to the cart."), add_to_cart),
        ApiTool(ToolSpec("checkout", (), description="Place an order from the cart."), checkout),
        ApiTool(ToolSpec("remove_from_cart", (Param("item_id"),),
                         description="Remove a cart item."), remove_item),
    )
    return AppStateMachine(
        app_id="ShoppingApp",
        states=("Home", "Product", "Variant", "Cart", "Orders", "OrderDetail"),
        initial_state="Home",
        transitions=transitions,
        api_tools=api,
        stores=(("products", "P"), ("cart", "CI"), ("orders", "O")),
        description="E-commerce",
    )
