"""Apartment app: Home, Search, Saved, Detail. The saved list keeps a copy of
the listing record keyed by the same id so validation can query it directly.
Detail has no back transition; exits go through system navigation."""

from __future__ import annotations

from ..database import fold
from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    DEFAULT_PAGE, PAGING, list_op, on_open, open_op, read_op, render_records, require_record,
)

LIST_FIELDS = ("name", "location", "rent", "bedrooms")


view_apartment = open_op("apartments", "apartment_id", "apartment")


def search(ctx: ToolContext) -> str:
    """Listings that meet every given criterion. `location` matches as text,
    folded as `Store.search` folds it (a missing field is ""), and a rent
    bound skips any listing whose `rent` is missing or not a number."""
    args = ctx.args
    location = fold(args["location"]) if "location" in args else None
    bounded = "max_rent" in args or "min_rent" in args
    hits = []
    for listing in ctx.store("apartments").all():
        if location is not None and location not in fold(listing.get("location", "")):
            continue
        rent = listing.get("rent")
        if bounded and type(rent) not in (int, float):
            continue
        if "max_rent" in args and rent > args["max_rent"]:
            continue
        if "min_rent" in args and rent < args["min_rent"]:
            continue
        if "bedrooms" in args and listing.get("bedrooms") != args["bedrooms"]:
            continue
        hits.append(listing)
    return render_records(hits, LIST_FIELDS)


# -- flat API; the Detail screen saves and unsaves through on_open --------------

list_saved = list_op("saved", LIST_FIELDS)


def save_apartment(ctx: ToolContext) -> str:
    apartment_id = ctx.args["apartment_id"]
    listing = require_record(ctx.store("apartments"), apartment_id, "apartment")
    saved = ctx.store("saved")
    if saved.get(apartment_id) is not None:
        return f"{apartment_id} is already saved"
    saved.add(listing)
    return f"saved {apartment_id}"


def unsave_apartment(ctx: ToolContext) -> str:
    apartment_id = ctx.args["apartment_id"]
    if ctx.store("saved").remove(apartment_id) is None:
        raise GuardFailed(f"{apartment_id!r} is not in the saved list")
    return f"removed {apartment_id} from saved"


SEARCH_PARAMS = (Param("location", required=False), Param("min_rent", "int", required=False),
                 Param("max_rent", "int", required=False), Param("bedrooms", "int", required=False))


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("Home", ToolSpec("list_apartments", PAGING, read_only=True,
                           description="List apartment listings."),
          list_op("apartments", LIST_FIELDS, DEFAULT_PAGE)),
        t("Home", ToolSpec("view_apartment", (Param("apartment_id"),),
                           description="Open a listing."), view_apartment, ("Detail",)),
        t("Home", ToolSpec("open_search", (), description="Open the search screen."),
          lambda ctx: "search opened", ("Search",)),
        t("Home", ToolSpec("open_favorites", (), description="Open the saved list."),
          lambda ctx: "favorites opened", ("Saved",)),
        t("Search", ToolSpec("search", SEARCH_PARAMS, read_only=True,
                             description="Filter listings by criteria."), search),
        t("Search", ToolSpec("view_apartment", (Param("apartment_id"),),
                             description="Open a listing."), view_apartment, ("Detail",)),
        t("Saved", ToolSpec("list_saved", (), read_only=True,
                            description="List saved apartments."), list_saved),
        t("Saved", ToolSpec("view_apartment", (Param("apartment_id"),),
                            description="Open a saved listing."), view_apartment, ("Detail",)),
        t("Detail", ToolSpec("save", (), description="Save the open listing."),
          on_open(save_apartment, "apartment_id")),
        t("Detail", ToolSpec("unsave", (), description="Remove the open listing from saved."),
          on_open(unsave_apartment, "apartment_id")),
    )
    api = (
        ApiTool(ToolSpec("list_apartments", (), read_only=True,
                         description="List all listings."),
                list_op("apartments", LIST_FIELDS)),
        ApiTool(ToolSpec("get_apartment", (Param("apartment_id"),), read_only=True,
                         description="Read a listing."),
                read_op("apartments", "apartment_id", "apartment")),
        ApiTool(ToolSpec("search_apartments", SEARCH_PARAMS, read_only=True,
                         description="Filter listings."), search),
        ApiTool(ToolSpec("list_saved", (), read_only=True,
                         description="List saved apartments."), list_saved),
        ApiTool(ToolSpec("save_apartment", (Param("apartment_id"),),
                         description="Save a listing."), save_apartment),
        ApiTool(ToolSpec("unsave_apartment", (Param("apartment_id"),),
                         description="Remove a listing from saved."), unsave_apartment),
    )
    return AppStateMachine(
        app_id="ApartmentApp",
        states=("Home", "Search", "Saved", "Detail"),
        initial_state="Home",
        transitions=transitions,
        api_tools=api,
        stores=(("apartments", "A"), ("saved", "SV")),
        description="Listing search",
    )
