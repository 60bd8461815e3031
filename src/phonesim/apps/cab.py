"""Cab app: Home, Options, Quote, Ride. Quotes are priced by a deterministic
function of the route so replays agree byte-for-byte."""

from __future__ import annotations

import hashlib
import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import list_op, on_open, read_op, render_records, require_record

SERVICE_TYPES = ("standard", "premium", "pool")
RIDE_FIELDS = ("status", "pickup", "destination", "service", "price")


def _quote_price(pickup: str, destination: str, service: str) -> int:
    route = hashlib.sha256(f"{pickup}->{destination}".encode("utf-8")).digest()
    base = 500 + int.from_bytes(route[:2], "big") % 2500
    factor = {"standard": 100, "premium": 180, "pool": 70}[service]
    return base * factor // 100


def _make_quote(pickup: str, destination: str, service: str) -> dict:
    if service not in SERVICE_TYPES:
        raise GuardFailed(f"unknown service {service!r}; expected one of {', '.join(SERVICE_TYPES)}")
    return {"pickup": pickup, "destination": destination, "service": service,
            "price": _quote_price(pickup, destination, service)}


def _order_ride(db, clock, quote: dict) -> str:
    return db.store("CabApp", "rides").add({
        "status": "active",
        "pickup": quote["pickup"],
        "destination": quote["destination"],
        "service": quote["service"],
        "price": quote["price"],
        "timestamp": clock.render(),
    })


def _active_ride(store) -> dict | None:
    active = store.find(status="active")
    return active[0] if active else None


def open_current_ride(ctx: ToolContext) -> str:
    ride = _active_ride(ctx.store("rides"))
    if ride is None:
        raise GuardFailed("no active ride")
    ctx.session["open_ride"] = ride["id"]
    return json.dumps(ride, sort_keys=True)


def get_ride_history(ctx: ToolContext) -> str:
    done = [r for r in ctx.store("rides").all() if r["status"] != "active"]
    return render_records(done, RIDE_FIELDS)


def list_service_types(ctx: ToolContext) -> str:
    return ", ".join(SERVICE_TYPES)


def get_quotation(ctx: ToolContext) -> str:
    quote = _make_quote(ctx.args["pickup"], ctx.args["destination"],
                        ctx.args.get("service", "standard"))
    ctx.session["quote"] = quote
    return json.dumps(quote, sort_keys=True)


def show_quotation(ctx: ToolContext) -> str:
    quote = ctx.session.get("quote")
    if quote is None:
        raise GuardFailed("no quotation requested")
    return json.dumps(quote, sort_keys=True)


def order_ride(ctx: ToolContext) -> str:
    quote = ctx.session.get("quote")
    if quote is None:
        raise GuardFailed("no quotation to order")
    rid = _order_ride(ctx.db, ctx.clock, quote)
    ctx.session["quote"] = None
    ctx.session["open_ride"] = rid
    return f"ride booked as {rid}"


# -- flat API; the Ride screen reads and cancels through on_open ----------------

list_rides = list_op("rides", RIDE_FIELDS)
read_ride = read_op("rides", "ride_id", "ride")


def api_order_ride(ctx: ToolContext) -> str:
    quote = _make_quote(ctx.args["pickup"], ctx.args["destination"],
                        ctx.args.get("service", "standard"))
    return f"ride booked as {_order_ride(ctx.db, ctx.clock, quote)}"


def cancel_ride(ctx: ToolContext) -> str:
    ride = require_record(ctx.store("rides"), ctx.args["ride_id"], "ride")
    if ride["status"] != "active":
        raise GuardFailed(f"ride {ride['id']} is not active")
    ctx.store("rides").update(ride["id"], status="cancelled")
    if ctx.session.get("open_ride") == ride["id"]:
        ctx.session["open_ride"] = None
    return f"ride {ride['id']} cancelled"


def api_current_ride(ctx: ToolContext) -> str:
    ride = _active_ride(ctx.store("rides"))
    return json.dumps(ride, sort_keys=True) if ride else "(no active ride)"


ROUTE = (Param("pickup"), Param("destination"), Param("service", required=False))


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("Home", ToolSpec("list_rides", (), read_only=True,
                           description="Open ride booking options."), list_rides, ("Options",)),
        t("Home", ToolSpec("open_current_ride", (),
                           description="Open the active ride."), open_current_ride, ("Ride",)),
        t("Home", ToolSpec("get_ride_history", (), read_only=True,
                           description="List past rides."), get_ride_history),
        t("Options", ToolSpec("list_service_types", (), read_only=True,
                              description="List available service types."), list_service_types),
        t("Options", ToolSpec("get_quotation", ROUTE,
                              description="Request a price quote for a route."),
          get_quotation, ("Quote",)),
        t("Quote", ToolSpec("show_quotation", (), read_only=True,
                            description="Show the requested quote."), show_quotation),
        t("Quote", ToolSpec("order_ride", (), description="Book the quoted ride."),
          order_ride, ("Ride",)),
        t("Ride", ToolSpec("refresh_ride", (), read_only=True,
                           description="Re-read the open ride."),
          on_open(read_ride, "ride_id", key="open_ride")),
        t("Ride", ToolSpec("cancel_ride", (), description="Cancel the open ride."),
          on_open(cancel_ride, "ride_id", key="open_ride"), ("Home",)),
    )
    api = (
        ApiTool(ToolSpec("list_service_types", (), read_only=True,
                         description="List service types."), list_service_types),
        ApiTool(ToolSpec("get_quotation", ROUTE, read_only=True,
                         description="Price a route."), get_quotation),
        ApiTool(ToolSpec("get_ride_history", (), read_only=True,
                         description="List all rides."), list_rides),
        ApiTool(ToolSpec("get_current_ride", (), read_only=True,
                         description="Read the active ride."), api_current_ride),
        ApiTool(ToolSpec("order_ride", ROUTE, description="Book a ride."), api_order_ride),
        ApiTool(ToolSpec("cancel_ride", (Param("ride_id"),),
                         description="Cancel a ride."), cancel_ride),
    )
    return AppStateMachine(
        app_id="CabApp",
        states=("Home", "Options", "Quote", "Ride"),
        initial_state="Home",
        transitions=transitions,
        api_tools=api,
        stores=(("rides", "RD"),),
        description="Ride-hailing",
    )
