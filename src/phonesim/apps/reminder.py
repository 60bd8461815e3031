"""Reminder app: List, Detail, Edit. Cancel returns to Detail when editing
an existing reminder and to List when creating a new one."""

from __future__ import annotations

import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import delete_op, list_op, on_open, render_records, require_record, update_op

LIST_FIELDS = ("title", "due", "repetition")


def _fresh_draft() -> dict:
    return {"title": "", "description": "", "due": "", "repetition": "none"}


def _open(ctx: ToolContext) -> dict:
    return require_record(ctx.store("reminders"), ctx.session.get("open_id", ""), "open reminder")


def _draft(ctx: ToolContext) -> dict:
    draft = ctx.session.get("draft")
    if draft is None:
        raise GuardFailed("no reminder draft in progress")
    return draft


list_reminders = list_op("reminders", LIST_FIELDS)
delete_reminder = delete_op("reminders", "reminder_id", "reminder")
update_reminder = update_op("reminders", "reminder_id",
                            ("title", "description", "due", "repetition"), "reminder")


def list_upcoming_reminders(ctx: ToolContext) -> str:
    now = ctx.clock.render()
    hits = [r for r in ctx.store("reminders").all() if r["due"] and r["due"] > now]
    return render_records(hits, LIST_FIELDS)


def list_due_reminders(ctx: ToolContext) -> str:
    now = ctx.clock.render()
    hits = [r for r in ctx.store("reminders").all() if r["due"] and r["due"] <= now]
    return render_records(hits, LIST_FIELDS)


def open_reminder(ctx: ToolContext) -> str:
    reminder = require_record(ctx.store("reminders"), ctx.args["reminder_id"], "reminder")
    ctx.session["open_id"] = reminder["id"]
    return json.dumps(reminder, sort_keys=True)


def create_new(ctx: ToolContext) -> str:
    ctx.session["draft"] = _fresh_draft()
    ctx.session["editing_id"] = None
    return "creating a new reminder"


def edit(ctx: ToolContext) -> str:
    reminder = _open(ctx)
    ctx.session["draft"] = {k: reminder[k] for k in _fresh_draft()}
    ctx.session["editing_id"] = reminder["id"]
    return f"editing {reminder['id']}"


def set_title(ctx: ToolContext) -> str:
    _draft(ctx)["title"] = ctx.args["title"]
    return "title set"


def set_description(ctx: ToolContext) -> str:
    _draft(ctx)["description"] = ctx.args["description"]
    return "description set"


def set_due_datetime(ctx: ToolContext) -> str:
    _draft(ctx)["due"] = ctx.args["due"]
    return "due datetime set"


def set_repetition(ctx: ToolContext) -> str:
    _draft(ctx)["repetition"] = ctx.args["repetition"]
    return "repetition set"


def save(ctx: ToolContext) -> str:
    draft = _draft(ctx)
    editing = ctx.session.get("editing_id")
    store = ctx.store("reminders")
    if editing:
        reminder = require_record(store, editing, "reminder")
        reminder.update(draft)
        rid = editing
    else:
        if not draft["title"]:
            raise GuardFailed("reminder draft needs a title")
        rid = store.add(dict(draft))
    ctx.session["draft"] = None
    ctx.session["editing_id"] = None
    ctx.session["open_id"] = rid
    ctx.go("Detail")
    return f"reminder {rid} saved"


def cancel(ctx: ToolContext) -> str:
    editing = ctx.session.get("editing_id")
    ctx.session["draft"] = None
    ctx.session["editing_id"] = None
    ctx.go("Detail" if editing else "List")
    return "edit cancelled"


def api_create_reminder(ctx: ToolContext) -> str:
    rid = ctx.store("reminders").add({
        "title": ctx.args["title"],
        "description": ctx.args.get("description", ""),
        "due": ctx.args.get("due", ""),
        "repetition": ctx.args.get("repetition", "none"),
    })
    return f"reminder created as {rid}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("List", ToolSpec("list_all_reminders", (), read_only=True,
                           description="List every reminder."), list_reminders),
        t("List", ToolSpec("list_upcoming_reminders", (), read_only=True,
                           description="List reminders due later."), list_upcoming_reminders),
        t("List", ToolSpec("list_due_reminders", (), read_only=True,
                           description="List reminders already due."), list_due_reminders),
        t("List", ToolSpec("open_reminder", (Param("reminder_id"),),
                           description="Open a reminder."), open_reminder, ("Detail",)),
        t("List", ToolSpec("create_new", (),
                           description="Start creating a reminder."), create_new, ("Edit",)),
        t("Detail", ToolSpec("edit", (), description="Edit the open reminder."), edit, ("Edit",)),
        t("Detail", ToolSpec("delete", (), description="Delete the open reminder."),
          on_open(delete_reminder, "reminder_id"), ("List",)),
        t("Edit", ToolSpec("set_title", (Param("title"),), description="Set the title."), set_title),
        t("Edit", ToolSpec("set_description", (Param("description"),),
                           description="Set the description."), set_description),
        t("Edit", ToolSpec("set_due_datetime", (Param("due"),),
                           description="Set the due datetime."), set_due_datetime),
        t("Edit", ToolSpec("set_repetition", (Param("repetition"),),
                           description="Set the repetition rule."), set_repetition),
        t("Edit", ToolSpec("save", (), description="Save the reminder."), save, ("Detail",)),
        t("Edit", ToolSpec("cancel", (), description="Abort editing."), cancel, ("Detail", "List")),
    )
    api = (
        ApiTool(ToolSpec("list_reminders", (), read_only=True,
                         description="List all reminders."), list_reminders),
        ApiTool(ToolSpec("create_reminder",
                         (Param("title"), Param("due", required=False),
                          Param("description", required=False),
                          Param("repetition", required=False)),
                         description="Create a reminder."), api_create_reminder),
        ApiTool(ToolSpec("update_reminder",
                         (Param("reminder_id"), Param("title", required=False),
                          Param("due", required=False), Param("description", required=False),
                          Param("repetition", required=False)),
                         description="Update a reminder."), update_reminder),
        ApiTool(ToolSpec("delete_reminder", (Param("reminder_id"),),
                         description="Delete a reminder."), delete_reminder),
    )
    return AppStateMachine(
        app_id="ReminderApp",
        states=("List", "Detail", "Edit"),
        initial_state="List",
        transitions=transitions,
        api_tools=api,
        stores=(("reminders", "R"),),
        description="Reminders",
    )
