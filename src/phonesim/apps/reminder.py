"""Reminder app: List, Detail, Edit. Cancel returns to Detail when editing
an existing reminder and to List when creating a new one.

A reminder has the shape `REMINDER`: title, description, due and repetition.
The Edit screen's draft holds every field of it."""

from __future__ import annotations

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    delete_op, draft, list_op, new_record, on_open, open_op, open_record, render_records,
    require_record, set_draft, update_op,
)

LIST_FIELDS = ("title", "due", "repetition")
DRAFT = "reminder draft"
REMINDER = {"title": "", "description": "", "due": "", "repetition": "none"}


list_reminders = list_op("reminders", LIST_FIELDS)
delete_reminder = delete_op("reminders", "reminder_id", "reminder")
update_reminder = update_op("reminders", "reminder_id", tuple(REMINDER), "reminder")


def list_upcoming_reminders(ctx: ToolContext) -> str:
    now = ctx.clock.render()
    hits = [r for r in ctx.store("reminders").all() if r["due"] and r["due"] > now]
    return render_records(hits, LIST_FIELDS)


def list_due_reminders(ctx: ToolContext) -> str:
    now = ctx.clock.render()
    hits = [r for r in ctx.store("reminders").all() if r["due"] and r["due"] <= now]
    return render_records(hits, LIST_FIELDS)


open_reminder = open_op("reminders", "reminder_id", "reminder")


def create_new(ctx: ToolContext) -> str:
    ctx.session["draft"] = new_record(REMINDER, {})
    ctx.session["editing_id"] = None
    return "creating a new reminder"


def edit(ctx: ToolContext) -> str:
    reminder = open_record(ctx, "reminders", "reminder")
    ctx.session["draft"] = new_record(REMINDER, {k: reminder[k] for k in REMINDER})
    ctx.session["editing_id"] = reminder["id"]
    return f"editing {reminder['id']}"


set_title = set_draft(("title",), "title set", DRAFT)
set_description = set_draft(("description",), "description set", DRAFT)
set_due_datetime = set_draft(("due",), "due datetime set", DRAFT)
set_repetition = set_draft(("repetition",), "repetition set", DRAFT)


def save(ctx: ToolContext) -> str:
    current = draft(ctx, DRAFT)
    editing = ctx.session.get("editing_id")
    store = ctx.store("reminders")
    if editing:
        require_record(store, editing, "reminder")
        store.update(editing, **current)
        rid = editing
    else:
        if not current["title"]:
            raise GuardFailed("reminder draft needs a title")
        rid = store.add(new_record(REMINDER, current))
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
    rid = ctx.store("reminders").add(new_record(REMINDER, ctx.args))
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
