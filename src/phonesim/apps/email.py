"""Email app: Mailbox, Detail, and Compose screens over a folder-keyed store.

An email has the shape `EMAIL`: folder, sender, recipients, cc, subject,
body, attachments, timestamp and read. Compose holds a draft of the
`DRAFT_SHAPE` fields in the screen context (not the database) until
send/save/discard, each of which returns the user to wherever compose was
entered from.
"""

from __future__ import annotations

import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    PAGING, append_draft, by_index, delete_op, draft, new_record, on_open, open_record, paginate,
    read_op, render_records, require_record, search_op, set_draft,
)

FOLDERS = ("inbox", "sent", "drafts", "archive", "trash")
LIST_FIELDS = ("folder", "sender", "subject")
EMAIL = {"folder": "inbox", "sender": "", "recipients": [], "cc": [], "subject": "", "body": "",
         "attachments": [], "timestamp": "", "read": False}
DRAFT_SHAPE = {name: EMAIL[name] for name in ("recipients", "cc", "subject", "body", "attachments")}


def _store_outgoing(ctx: ToolContext, folder: str, fields: dict) -> str:
    """Store an email the user wrote in `folder`: from the user, read, stamped now."""
    return ctx.store("emails").add(new_record(EMAIL, {
        **fields, "folder": folder, "sender": ctx.current_user,
        "timestamp": ctx.clock.render(), "read": True}))


def _folder_emails(ctx: ToolContext) -> list[dict]:
    folder = ctx.session.get("folder", "inbox")
    return ctx.store("emails").find(folder=folder)


def _render_email(email: dict) -> str:
    return json.dumps(email, sort_keys=True)


# -- Mailbox ------------------------------------------------------------------

def list_emails(ctx: ToolContext) -> str:
    emails = paginate(_folder_emails(ctx), ctx.args.get("offset", 0), ctx.args.get("limit", 10))
    return f"folder={ctx.session.get('folder', 'inbox')}\n" + render_records(emails, LIST_FIELDS)


search_emails = search_op("emails", ("subject", "body"), LIST_FIELDS)


def _open(ctx: ToolContext, email: dict) -> str:
    ctx.session["open_id"] = email["id"]
    return _render_email(ctx.store("emails").update(email["id"], read=True))


def open_email(ctx: ToolContext) -> str:
    return _open(ctx, require_record(ctx.store("emails"), ctx.args["email_id"], "email"))


def open_email_by_index(ctx: ToolContext) -> str:
    return _open(ctx, by_index(_folder_emails(ctx), ctx.args["index"], "email"))


def switch_folder(ctx: ToolContext) -> str:
    folder = ctx.args["folder"]
    if folder not in FOLDERS:
        raise GuardFailed(f"unknown folder {folder!r}; expected one of {', '.join(FOLDERS)}")
    ctx.session["folder"] = folder
    return f"switched to folder {folder}"


def start_compose(ctx: ToolContext) -> str:
    ctx.session["draft"] = new_record(DRAFT_SHAPE, {})
    ctx.session["compose_return"] = "Mailbox"
    return "composing a new email"


# -- Detail -------------------------------------------------------------------

def reply(ctx: ToolContext) -> str:
    email = open_record(ctx, "emails", "email")
    rid = _store_outgoing(ctx, "sent", {"recipients": [email["sender"]],
                                        "subject": "Re: " + email["subject"],
                                        "body": ctx.args["body"]})
    return f"reply sent as {rid}"


def forward(ctx: ToolContext) -> str:
    email = open_record(ctx, "emails", "email")
    body = ctx.args.get("body", "") + "\n---- forwarded ----\n" + email["body"]
    rid = _store_outgoing(ctx, "sent", {"recipients": ctx.args["recipients"],
                                        "subject": "Fwd: " + email["subject"], "body": body})
    return f"forwarded as {rid}"


def download_attachments(ctx: ToolContext) -> str:
    email = open_record(ctx, "emails", "email")
    return "attachments: " + (", ".join(email["attachments"]) or "(none)")


def start_compose_reply(ctx: ToolContext) -> str:
    email = open_record(ctx, "emails", "email")
    ctx.session["draft"] = new_record(DRAFT_SHAPE, {"recipients": [email["sender"]],
                                                    "subject": "Re: " + email["subject"]})
    ctx.session["compose_return"] = "Detail"
    return "composing a reply to " + email["sender"]


# -- Compose ------------------------------------------------------------------

def _compose_exit(ctx: ToolContext) -> None:
    ctx.go(ctx.session.get("compose_return") or "Mailbox")
    ctx.session["draft"] = None
    ctx.session["compose_return"] = None


set_recipients = set_draft(("recipients",), "recipients set")
add_recipient = append_draft("recipients", "recipient", "recipient added")
set_cc = set_draft(("cc",), "cc set")
set_subject = set_draft(("subject",), "subject set")
set_body = set_draft(("body",), "body set")
attach_file = append_draft("attachments", "filename", "file attached")


def send_composed_email(ctx: ToolContext) -> str:
    current = draft(ctx)
    if not current["recipients"]:
        raise GuardFailed("draft has no recipients")
    rid = _store_outgoing(ctx, "sent", current)
    _compose_exit(ctx)
    return f"email sent as {rid}"


def save_draft(ctx: ToolContext) -> str:
    rid = _store_outgoing(ctx, "drafts", draft(ctx))
    _compose_exit(ctx)
    return f"draft saved as {rid}"


def discard_draft(ctx: ToolContext) -> str:
    _compose_exit(ctx)
    return "draft discarded"


# -- flat API -----------------------------------------------------------------

def api_list_emails(ctx: ToolContext) -> str:
    folder = ctx.args.get("folder", "inbox")
    emails = paginate(ctx.store("emails").find(folder=folder),
                      ctx.args.get("offset", 0), ctx.args.get("limit", 10))
    return f"folder={folder}\n" + render_records(emails, LIST_FIELDS)


def api_send_email(ctx: ToolContext) -> str:
    rid = _store_outgoing(ctx, "sent", ctx.args)
    return f"email sent as {rid}"


def api_deliver_email(ctx: ToolContext) -> str:
    rid = ctx.store("emails").add(new_record(EMAIL, {
        **ctx.args, "recipients": [ctx.current_user], "timestamp": ctx.clock.render()}))
    return f"email delivered as {rid}"


# -- shared with the Detail screen through on_open ----------------------------

read_email = read_op("emails", "email_id", "email")
delete_email = delete_op("emails", "email_id", "email")


def move_email(ctx: ToolContext) -> str:
    rid = require_record(ctx.store("emails"), ctx.args["email_id"], "email")["id"]
    folder = ctx.args["folder"]
    if folder not in FOLDERS:
        raise GuardFailed(f"unknown folder {folder!r}")
    ctx.store("emails").update(rid, folder=folder)
    return f"moved {rid} to {folder}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("Mailbox", ToolSpec("list_emails", PAGING, read_only=True,
                              description="List emails in the current folder."), list_emails),
        t("Mailbox", ToolSpec("search_emails", (Param("query"),), read_only=True,
                              description="Search emails by subject or body."), search_emails),
        t("Mailbox", ToolSpec("open_email", (Param("email_id"),),
                              description="Open an email to read it."), open_email, ("Detail",)),
        t("Mailbox", ToolSpec("open_email_by_index", (Param("index", "int"),),
                              description="Open the n-th email of the current folder."),
          open_email_by_index, ("Detail",)),
        t("Mailbox", ToolSpec("switch_folder", (Param("folder"),),
                              description="Switch the mailbox folder."), switch_folder),
        t("Mailbox", ToolSpec("start_compose", (),
                              description="Start composing a new email."), start_compose, ("Compose",)),
        t("Detail", ToolSpec("refresh_email", (), read_only=True,
                             description="Re-read the open email."),
          on_open(read_email, "email_id")),
        t("Detail", ToolSpec("reply", (Param("body"),),
                             description="Send a quick reply to the open email."), reply),
        t("Detail", ToolSpec("forward", (Param("recipients", "list"), Param("body", required=False)),
                             description="Forward the open email."), forward),
        t("Detail", ToolSpec("move_email", (Param("folder"),),
                             description="Move the open email to another folder."),
          on_open(move_email, "email_id")),
        t("Detail", ToolSpec("delete_email", (),
                             description="Delete the open email."),
          on_open(delete_email, "email_id"), ("Mailbox",)),
        t("Detail", ToolSpec("download_attachments", (), read_only=True,
                             description="List the open email's attachments."), download_attachments),
        t("Detail", ToolSpec("start_compose_reply", (),
                             description="Compose a full reply in the editor."),
          start_compose_reply, ("Compose",)),
        t("Compose", ToolSpec("set_recipients", (Param("recipients", "list"),),
                              description="Set the draft's recipient list."), set_recipients),
        t("Compose", ToolSpec("add_recipient", (Param("recipient"),),
                              description="Add one recipient to the draft."), add_recipient),
        t("Compose", ToolSpec("set_cc", (Param("cc", "list"),),
                              description="Set the draft's CC list."), set_cc),
        t("Compose", ToolSpec("set_subject", (Param("subject"),),
                              description="Set the draft's subject."), set_subject),
        t("Compose", ToolSpec("set_body", (Param("body"),),
                              description="Set the draft's body."), set_body),
        t("Compose", ToolSpec("attach_file", (Param("filename"),),
                              description="Attach a file to the draft."), attach_file),
        t("Compose", ToolSpec("send_composed_email", (),
                              description="Send the draft."), send_composed_email,
          ("Mailbox", "Detail")),
        t("Compose", ToolSpec("save_draft", (), description="Save the draft."),
          save_draft, ("Mailbox", "Detail")),
        t("Compose", ToolSpec("discard_draft", (), description="Discard the draft."),
          discard_draft, ("Mailbox", "Detail")),
    )
    api = (
        ApiTool(ToolSpec("list_emails", (Param("folder", required=False),) + PAGING,
                         read_only=True, description="List emails in a folder."), api_list_emails),
        ApiTool(ToolSpec("search_emails", (Param("query"),), read_only=True,
                         description="Search emails by subject or body."), search_emails),
        ApiTool(ToolSpec("read_email", (Param("email_id"),), read_only=True,
                         description="Read a full email."), read_email),
        ApiTool(ToolSpec("send_email", (Param("recipients", "list"), Param("subject"),
                                        Param("body"), Param("cc", "list", required=False)),
                         description="Send an email on the user's behalf."), api_send_email),
        ApiTool(ToolSpec("deliver_email", (Param("sender"), Param("subject"), Param("body"),
                                           Param("folder", required=False)),
                         description="Deposit an incoming email into a folder.",
                         environment_only=True), api_deliver_email),
        ApiTool(ToolSpec("move_email", (Param("email_id"), Param("folder")),
                         description="Move an email to another folder."), move_email),
        ApiTool(ToolSpec("delete_email", (Param("email_id"),),
                         description="Delete an email."), delete_email),
    )
    return AppStateMachine(
        app_id="EmailApp",
        states=("Mailbox", "Detail", "Compose"),
        initial_state="Mailbox",
        transitions=transitions,
        api_tools=api,
        stores=(("emails", "E"),),
        description="Email client",
    )
