"""Calendar app: Agenda, Detail, and a draft-backed Edit screen.

An event has the shape `EVENT`: title, start, end, tag, description,
location and attendees. The Edit screen holds a draft of every field in the
screen context; save writes the event (update when editing, create when
composing) and returns to the entry screen.
"""

from __future__ import annotations

import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    DEFAULT_PAGE, PAGING, append_draft, by_index, delete_op, draft, list_op, new_record, on_open,
    open_op, open_record, read_op, render_records, require_record, search_op, set_draft,
)

LIST_FIELDS = ("title", "start", "end", "tag")
DRAFT = "event draft"
EVENT = {"title": "", "start": "", "end": "", "tag": "", "description": "", "location": "",
         "attendees": []}


# -- Agenda -------------------------------------------------------------------

search_events = search_op("events", ("title", "description"), LIST_FIELDS)
open_event = open_op("events", "event_id", "event")


def open_event_by_index(ctx: ToolContext) -> str:
    event = by_index(ctx.store("events").all(), ctx.args["index"], "event")
    ctx.session["open_id"] = event["id"]
    return json.dumps(event, sort_keys=True)


def filter_by_tag(ctx: ToolContext) -> str:
    return render_records(ctx.store("events").find(tag=ctx.args["tag"]), LIST_FIELDS)


def filter_by_attendee(ctx: ToolContext) -> str:
    hits = [e for e in ctx.store("events").all() if ctx.args["attendee"] in e["attendees"]]
    return render_records(hits, LIST_FIELDS)


def add_calendar_event_by_attendee(ctx: ToolContext) -> str:
    args = ctx.args
    rid = ctx.store("events").add(new_record(EVENT, {
        "title": args["title"], "start": args["start"], "end": args["end"],
        "attendees": [args["attendee"]]}))
    return f"event created as {rid}"


def read_today_calendar_events(ctx: ToolContext) -> str:
    today = ctx.clock.wall().strftime("%Y-%m-%d")
    hits = [e for e in ctx.store("events").all() if e["start"].startswith(today)]
    return render_records(hits, LIST_FIELDS)


def get_all_tags(ctx: ToolContext) -> str:
    tags = sorted({e["tag"] for e in ctx.store("events").all() if e["tag"]})
    return ", ".join(tags) or "(no tags)"


def set_day(ctx: ToolContext) -> str:
    ctx.session["day"] = ctx.args["day"]
    return f"agenda day set to {ctx.args['day']}"


def start_create_event(ctx: ToolContext) -> str:
    ctx.session["draft"] = new_record(EVENT, {})
    ctx.session["editing_id"] = None
    ctx.session["edit_return"] = "Agenda"
    return "creating a new event"


# -- Detail -------------------------------------------------------------------

def delete_by_attendee(ctx: ToolContext) -> str:
    store = ctx.store("events")
    victims = [e["id"] for e in store.all() if ctx.args["attendee"] in e["attendees"]]
    for rid in victims:
        store.remove(rid)
    ctx.session["open_id"] = None
    return f"deleted {len(victims)} events with attendee {ctx.args['attendee']}"


def list_attendees(ctx: ToolContext) -> str:
    return ", ".join(open_record(ctx, "events", "event")["attendees"]) or "(no attendees)"


def edit_event(ctx: ToolContext) -> str:
    event = open_record(ctx, "events", "event")
    ctx.session["draft"] = new_record(EVENT, {k: event[k] for k in EVENT})
    ctx.session["editing_id"] = event["id"]
    ctx.session["edit_return"] = "Detail"
    return f"editing {event['id']}"


# -- Edit ---------------------------------------------------------------------

set_title = set_draft(("title",), "title set", DRAFT)
set_time_range = set_draft(("start", "end"), "time range set", DRAFT)
set_tag = set_draft(("tag",), "tag set", DRAFT)
set_description = set_draft(("description",), "description set", DRAFT)
set_location = set_draft(("location",), "location set", DRAFT)
set_attendees = set_draft(("attendees",), "attendees set", DRAFT)
add_attendee = append_draft("attendees", "attendee", "attendee added", DRAFT)


def remove_attendee(ctx: ToolContext) -> str:
    current = draft(ctx, DRAFT)
    attendees = list(current["attendees"])     # may be a stored record's list
    if ctx.args["attendee"] not in attendees:
        raise GuardFailed(f"{ctx.args['attendee']!r} is not an attendee")
    attendees.remove(ctx.args["attendee"])
    current["attendees"] = attendees
    return "attendee removed"


def _edit_exit(ctx: ToolContext) -> None:
    ctx.go(ctx.session.get("edit_return") or "Agenda")
    ctx.session["draft"] = None
    ctx.session["editing_id"] = None
    ctx.session["edit_return"] = None


def save(ctx: ToolContext) -> str:
    current = draft(ctx, DRAFT)
    editing = ctx.session.get("editing_id")
    if editing:
        require_record(ctx.store("events"), editing, "event")
        ctx.store("events").update(editing, **current)
        _edit_exit(ctx)
        ctx.go("Detail")
        ctx.session["open_id"] = editing
        return f"event {editing} updated"
    if not current["title"] or not current["start"]:
        raise GuardFailed("draft needs at least a title and a start time")
    rid = ctx.store("events").add(new_record(EVENT, current))
    _edit_exit(ctx)
    return f"event created as {rid}"


def discard(ctx: ToolContext) -> str:
    _edit_exit(ctx)
    return "edit discarded"


# -- flat API; the Detail screen reads and deletes through on_open --------------

read_event = read_op("events", "event_id", "event")
delete_event = delete_op("events", "event_id", "event")


def api_add_event(ctx: ToolContext) -> str:
    rid = ctx.store("events").add(new_record(EVENT, ctx.args))
    return f"event created as {rid}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("Agenda", ToolSpec("list_events", PAGING, read_only=True,
                             description="List calendar events."),
          list_op("events", LIST_FIELDS, DEFAULT_PAGE)),
        t("Agenda", ToolSpec("search_events", (Param("query"),), read_only=True,
                             description="Search events by title or description."), search_events),
        t("Agenda", ToolSpec("open_event", (Param("event_id"),),
                             description="Open an event."), open_event, ("Detail",)),
        t("Agenda", ToolSpec("open_event_by_index", (Param("index", "int"),),
                             description="Open the n-th event."), open_event_by_index, ("Detail",)),
        t("Agenda", ToolSpec("filter_by_tag", (Param("tag"),), read_only=True,
                             description="List events with a tag."), filter_by_tag),
        t("Agenda", ToolSpec("filter_by_attendee", (Param("attendee"),), read_only=True,
                             description="List events with an attendee."), filter_by_attendee),
        t("Agenda", ToolSpec("add_calendar_event_by_attendee",
                             (Param("title"), Param("start"), Param("end"), Param("attendee")),
                             description="Quick-create an event with one attendee."),
          add_calendar_event_by_attendee),
        t("Agenda", ToolSpec("read_today_calendar_events", (), read_only=True,
                             description="List today's events."), read_today_calendar_events),
        t("Agenda", ToolSpec("get_all_tags", (), read_only=True,
                             description="List all tags in use."), get_all_tags),
        t("Agenda", ToolSpec("get_calendar_events_by_tag", (Param("tag"),), read_only=True,
                             description="List events with a tag."), filter_by_tag),
        t("Agenda", ToolSpec("set_day", (Param("day"),),
                             description="Set the agenda day."), set_day),
        t("Agenda", ToolSpec("start_create_event", (),
                             description="Start creating an event."), start_create_event, ("Edit",)),
        t("Detail", ToolSpec("refresh_event", (), read_only=True,
                             description="Re-read the open event."),
          on_open(read_event, "event_id")),
        t("Detail", ToolSpec("delete_event", (),
                             description="Delete the open event."),
          on_open(delete_event, "event_id"), ("Agenda",)),
        t("Detail", ToolSpec("delete_by_attendee", (Param("attendee"),),
                             description="Delete all events with an attendee."),
          delete_by_attendee, ("Agenda",)),
        t("Detail", ToolSpec("list_attendees", (), read_only=True,
                             description="List the open event's attendees."), list_attendees),
        t("Detail", ToolSpec("edit_event", (),
                             description="Edit the open event."), edit_event, ("Edit",)),
        t("Edit", ToolSpec("set_title", (Param("title"),), description="Set the title."), set_title),
        t("Edit", ToolSpec("set_time_range", (Param("start"), Param("end")),
                           description="Set start and end times."), set_time_range),
        t("Edit", ToolSpec("set_tag", (Param("tag"),), description="Set the tag."), set_tag),
        t("Edit", ToolSpec("set_description", (Param("description"),),
                           description="Set the description."), set_description),
        t("Edit", ToolSpec("set_location", (Param("location"),),
                           description="Set the location."), set_location),
        t("Edit", ToolSpec("set_attendees", (Param("attendees", "list"),),
                           description="Set the attendee list."), set_attendees),
        t("Edit", ToolSpec("add_attendee", (Param("attendee"),),
                           description="Add an attendee."), add_attendee),
        t("Edit", ToolSpec("remove_attendee", (Param("attendee"),),
                           description="Remove an attendee."), remove_attendee),
        t("Edit", ToolSpec("save", (), description="Save the draft event."),
          save, ("Agenda", "Detail")),
        t("Edit", ToolSpec("discard", (), description="Discard the draft."),
          discard, ("Agenda", "Detail")),
    )
    api = (
        ApiTool(ToolSpec("list_events", (), read_only=True,
                         description="List all calendar events."),
                list_op("events", LIST_FIELDS)),
        ApiTool(ToolSpec("read_event", (Param("event_id"),), read_only=True,
                         description="Read a full event."), read_event),
        ApiTool(ToolSpec("read_today_events", (), read_only=True,
                         description="List today's events."), read_today_calendar_events),
        ApiTool(ToolSpec("get_events_by_tag", (Param("tag"),), read_only=True,
                         description="List events with a tag."), filter_by_tag),
        ApiTool(ToolSpec("add_event",
                         (Param("title"), Param("start"), Param("end"),
                          Param("tag", required=False), Param("description", required=False),
                          Param("location", required=False),
                          Param("attendees", "list", required=False)),
                         description="Create a calendar event."), api_add_event),
        ApiTool(ToolSpec("delete_event", (Param("event_id"),),
                         description="Delete a calendar event."), delete_event),
    )
    return AppStateMachine(
        app_id="CalendarApp",
        states=("Agenda", "Detail", "Edit"),
        initial_state="Agenda",
        transitions=transitions,
        api_tools=api,
        stores=(("events", "CE"),),
        description="Scheduling",
    )
