"""Contacts app: List, Detail, Edit. A contact has the shape `CONTACT`:
name, email, phone and notes."""

from __future__ import annotations

from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    DEFAULT_PAGE, PAGING, delete_op, list_op, new_record, on_open, open_op, open_record, read_op,
    search_op, update_op,
)

LIST_FIELDS = ("name", "email", "phone")
CONTACT = {"name": "", "email": "", "phone": "", "notes": ""}


search_contacts = search_op("contacts", ("name",), LIST_FIELDS)
open_contact = open_op("contacts", "contact_id", "contact")


def view_current_user(ctx: ToolContext) -> str:
    return f"current user: {ctx.current_user}"


def create_contact(ctx: ToolContext) -> str:
    rid = ctx.store("contacts").add(new_record(CONTACT, ctx.args))
    return f"contact created as {rid}"


def start_edit_contact(ctx: ToolContext) -> str:
    return f"editing {open_record(ctx, 'contacts', 'contact')['id']}"


# -- flat API; the Detail and Edit screens act through on_open -----------------

get_contact = read_op("contacts", "contact_id", "contact")
update_contact = update_op("contacts", "contact_id", tuple(CONTACT), "contact")
delete_contact = delete_op("contacts", "contact_id", "contact")
view_contact = on_open(get_contact, "contact_id")


CONTACT_FIELDS = (Param("name"), Param("email", required=False),
                  Param("phone", required=False), Param("notes", required=False))
EDIT_FIELDS = tuple(Param(p.name, required=False) for p in CONTACT_FIELDS)


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("List", ToolSpec("list_contacts", PAGING, read_only=True,
                           description="List contacts."),
          list_op("contacts", LIST_FIELDS, DEFAULT_PAGE)),
        t("List", ToolSpec("search_contacts", (Param("query"),), read_only=True,
                           description="Search contacts by name."), search_contacts),
        t("List", ToolSpec("open_contact", (Param("contact_id"),),
                           description="Open a contact."), open_contact, ("Detail",)),
        t("List", ToolSpec("view_current_user", (), read_only=True,
                           description="Show the device owner."), view_current_user),
        t("List", ToolSpec("create_contact", CONTACT_FIELDS,
                           description="Create a new contact."), create_contact),
        t("Detail", ToolSpec("view_contact", (), read_only=True,
                             description="Show the open contact."), view_contact),
        t("Detail", ToolSpec("start_edit_contact", (),
                             description="Edit the open contact."), start_edit_contact, ("Edit",)),
        t("Detail", ToolSpec("delete_contact", (),
                             description="Delete the open contact."),
          on_open(delete_contact, "contact_id"), ("List",)),
        t("Edit", ToolSpec("view_contact", (), read_only=True,
                           description="Show the contact being edited."), view_contact),
        t("Edit", ToolSpec("update_contact", EDIT_FIELDS,
                           description="Apply edits and return to the detail view."),
          on_open(update_contact, "contact_id"), ("Detail",)),
    )
    api = (
        ApiTool(ToolSpec("list_contacts", (), read_only=True,
                         description="List all contacts."), list_op("contacts", LIST_FIELDS)),
        ApiTool(ToolSpec("get_contact", (Param("contact_id"),), read_only=True,
                         description="Read a contact."), get_contact),
        ApiTool(ToolSpec("search_contacts", (Param("query"),), read_only=True,
                         description="Search contacts by name."), search_contacts),
        ApiTool(ToolSpec("create_contact", CONTACT_FIELDS,
                         description="Create a contact."), create_contact),
        ApiTool(ToolSpec("update_contact", (Param("contact_id"),) + EDIT_FIELDS,
                         description="Update a contact."), update_contact),
        ApiTool(ToolSpec("delete_contact", (Param("contact_id"),),
                         description="Delete a contact."), delete_contact),
    )
    return AppStateMachine(
        app_id="ContactsApp",
        states=("List", "Detail", "Edit"),
        initial_state="List",
        transitions=transitions,
        api_tools=api,
        stores=(("contacts", "C"),),
        description="Contact management",
    )
