"""Email app: Mailbox, Detail, and Compose screens over a folder-keyed store.

Compose holds a draft in the screen context (not the database) until
send/save/discard, each of which returns the user to wherever compose was
entered from.
"""

from __future__ import annotations

import json

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import by_index, paginate, render_records, require_record

FOLDERS = ("inbox", "sent", "drafts", "archive", "trash")
LIST_FIELDS = ("folder", "sender", "subject")


def _fresh_draft() -> dict:
    return {"recipients": [], "cc": [], "subject": "", "body": "", "attachments": []}


def _send(store, clock, sender: str, recipients: list, subject: str, body: str,
          cc: list | None = None, attachments: list | None = None) -> str:
    rid = store.add({
        "folder": "sent",
        "sender": sender,
        "recipients": list(recipients),
        "cc": list(cc or []),
        "subject": subject,
        "body": body,
        "attachments": list(attachments or []),
        "timestamp": clock.render(),
        "read": True,
    })
    return rid


def _deliver(store, clock, sender: str, subject: str, body: str, folder: str = "inbox") -> str:
    return store.add({
        "folder": folder,
        "sender": sender,
        "recipients": ["user"],
        "cc": [],
        "subject": subject,
        "body": body,
        "attachments": [],
        "timestamp": clock.render(),
        "read": False,
    })


def _folder_emails(ctx: ToolContext) -> list[dict]:
    folder = ctx.session.get("folder", "inbox")
    return ctx.store("emails").find(folder=folder)


def _open_email(ctx: ToolContext) -> dict:
    email = require_record(ctx.store("emails"), ctx.session.get("open_id", ""), "open email")
    return email


def _render_email(email: dict) -> str:
    return json.dumps(email, sort_keys=True)


# -- Mailbox ------------------------------------------------------------------

def list_emails(ctx: ToolContext) -> str:
    emails = paginate(_folder_emails(ctx), ctx.args.get("offset", 0), ctx.args.get("limit", 10))
    return f"folder={ctx.session.get('folder', 'inbox')}\n" + render_records(emails, LIST_FIELDS)


def search_emails(ctx: ToolContext) -> str:
    query = ctx.args["query"].lower()
    hits = [e for e in ctx.store("emails").all()
            if query in e["subject"].lower() or query in e["body"].lower()]
    return render_records(hits, LIST_FIELDS)


def open_email(ctx: ToolContext) -> str:
    email = require_record(ctx.store("emails"), ctx.args["email_id"], "email")
    email["read"] = True
    ctx.session["open_id"] = email["id"]
    return _render_email(email)


def open_email_by_index(ctx: ToolContext) -> str:
    email = by_index(_folder_emails(ctx), ctx.args["index"], "email")
    email["read"] = True
    ctx.session["open_id"] = email["id"]
    return _render_email(email)


def switch_folder(ctx: ToolContext) -> str:
    folder = ctx.args["folder"]
    if folder not in FOLDERS:
        raise GuardFailed(f"unknown folder {folder!r}; expected one of {', '.join(FOLDERS)}")
    ctx.session["folder"] = folder
    return f"switched to folder {folder}"


def start_compose(ctx: ToolContext) -> str:
    ctx.session["draft"] = _fresh_draft()
    ctx.session["compose_return"] = "Mailbox"
    return "composing a new email"


# -- Detail -------------------------------------------------------------------

def refresh_email(ctx: ToolContext) -> str:
    return _render_email(_open_email(ctx))


def reply(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    rid = _send(ctx.store("emails"), ctx.clock, ctx.current_user,
                [email["sender"]], "Re: " + email["subject"], ctx.args["body"])
    return f"reply sent as {rid}"


def forward(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    body = ctx.args.get("body", "") + "\n---- forwarded ----\n" + email["body"]
    rid = _send(ctx.store("emails"), ctx.clock, ctx.current_user,
                ctx.args["recipients"], "Fwd: " + email["subject"], body)
    return f"forwarded as {rid}"


def move_email(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    folder = ctx.args["folder"]
    if folder not in FOLDERS:
        raise GuardFailed(f"unknown folder {folder!r}")
    email["folder"] = folder
    return f"moved {email['id']} to {folder}"


def delete_email(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    ctx.store("emails").remove(email["id"])
    ctx.session["open_id"] = None
    return f"deleted {email['id']}"


def download_attachments(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    return "attachments: " + (", ".join(email["attachments"]) or "(none)")


def start_compose_reply(ctx: ToolContext) -> str:
    email = _open_email(ctx)
    draft = _fresh_draft()
    draft["recipients"] = [email["sender"]]
    draft["subject"] = "Re: " + email["subject"]
    ctx.session["draft"] = draft
    ctx.session["compose_return"] = "Detail"
    return "composing a reply to " + email["sender"]


# -- Compose ------------------------------------------------------------------

def _draft(ctx: ToolContext) -> dict:
    draft = ctx.session.get("draft")
    if draft is None:
        raise GuardFailed("no draft in progress")
    return draft


def _compose_exit(ctx: ToolContext) -> None:
    ctx.go(ctx.session.get("compose_return") or "Mailbox")
    ctx.session["draft"] = None
    ctx.session["compose_return"] = None


def set_recipients(ctx: ToolContext) -> str:
    _draft(ctx)["recipients"] = list(ctx.args["recipients"])
    return "recipients set"


def add_recipient(ctx: ToolContext) -> str:
    _draft(ctx)["recipients"].append(ctx.args["recipient"])
    return "recipient added"


def set_cc(ctx: ToolContext) -> str:
    _draft(ctx)["cc"] = list(ctx.args["cc"])
    return "cc set"


def set_subject(ctx: ToolContext) -> str:
    _draft(ctx)["subject"] = ctx.args["subject"]
    return "subject set"


def set_body(ctx: ToolContext) -> str:
    _draft(ctx)["body"] = ctx.args["body"]
    return "body set"


def attach_file(ctx: ToolContext) -> str:
    _draft(ctx)["attachments"].append(ctx.args["filename"])
    return "file attached"


def send_composed_email(ctx: ToolContext) -> str:
    draft = _draft(ctx)
    if not draft["recipients"]:
        raise GuardFailed("draft has no recipients")
    rid = _send(ctx.store("emails"), ctx.clock, ctx.current_user,
                draft["recipients"], draft["subject"], draft["body"],
                cc=draft["cc"], attachments=draft["attachments"])
    _compose_exit(ctx)
    return f"email sent as {rid}"


def save_draft(ctx: ToolContext) -> str:
    draft = _draft(ctx)
    rid = ctx.store("emails").add({
        "folder": "drafts",
        "sender": ctx.current_user,
        "recipients": draft["recipients"],
        "cc": draft["cc"],
        "subject": draft["subject"],
        "body": draft["body"],
        "attachments": draft["attachments"],
        "timestamp": ctx.clock.render(),
        "read": True,
    })
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


def api_read_email(ctx: ToolContext) -> str:
    return _render_email(require_record(ctx.store("emails"), ctx.args["email_id"], "email"))


def api_send_email(ctx: ToolContext) -> str:
    rid = _send(ctx.store("emails"), ctx.clock, ctx.current_user,
                ctx.args["recipients"], ctx.args["subject"], ctx.args["body"],
                cc=ctx.args.get("cc"))
    return f"email sent as {rid}"


def api_deliver_email(ctx: ToolContext) -> str:
    rid = _deliver(ctx.store("emails"), ctx.clock, ctx.args["sender"],
                   ctx.args["subject"], ctx.args["body"], ctx.args.get("folder", "inbox"))
    return f"email delivered as {rid}"


def api_move_email(ctx: ToolContext) -> str:
    email = require_record(ctx.store("emails"), ctx.args["email_id"], "email")
    folder = ctx.args["folder"]
    if folder not in FOLDERS:
        raise GuardFailed(f"unknown folder {folder!r}")
    email["folder"] = folder
    return f"moved {email['id']} to {folder}"


def api_delete_email(ctx: ToolContext) -> str:
    require_record(ctx.store("emails"), ctx.args["email_id"], "email")
    ctx.store("emails").remove(ctx.args["email_id"])
    return f"deleted {ctx.args['email_id']}"


PAGING = (Param("offset", "int", required=False), Param("limit", "int", required=False))


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
                             description="Re-read the open email."), refresh_email),
        t("Detail", ToolSpec("reply", (Param("body"),),
                             description="Send a quick reply to the open email."), reply),
        t("Detail", ToolSpec("forward", (Param("recipients", "list"), Param("body", required=False)),
                             description="Forward the open email."), forward),
        t("Detail", ToolSpec("move_email", (Param("folder"),),
                             description="Move the open email to another folder."), move_email),
        t("Detail", ToolSpec("delete_email", (),
                             description="Delete the open email."), delete_email, ("Mailbox",)),
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
                         description="Read a full email."), api_read_email),
        ApiTool(ToolSpec("send_email", (Param("recipients", "list"), Param("subject"),
                                        Param("body"), Param("cc", "list", required=False)),
                         description="Send an email on the user's behalf."), api_send_email),
        ApiTool(ToolSpec("deliver_email", (Param("sender"), Param("subject"), Param("body"),
                                           Param("folder", required=False)),
                         description="Deposit an incoming email into a folder.",
                         environment_only=True), api_deliver_email),
        ApiTool(ToolSpec("move_email", (Param("email_id"), Param("folder")),
                         description="Move an email to another folder."), api_move_email),
        ApiTool(ToolSpec("delete_email", (Param("email_id"),),
                         description="Delete an email."), api_delete_email),
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
