"""Messaging app: conversation list plus an opened-conversation screen."""

from __future__ import annotations

from ..database import fold
from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    DEFAULT_PAGE, PAGING, list_op, on_open, open_record, paginate, read_op, render_records,
    require_record,
)

LIST_FIELDS = ("title", "participants")


def _append_message(store, conversation_id: str, sender: str, content: str, timestamp: str) -> None:
    require_record(store, conversation_id, "conversation")
    store.append(conversation_id, "messages",
                 {"sender": sender, "content": content, "timestamp": timestamp})


def search_conversations(ctx: ToolContext) -> str:
    """Conversations whose title or one of whose participants contains the
    query, ignoring case, each read through `fold`."""
    query = ctx.args["query"].lower()
    hits = [c for c in ctx.store("conversations").all()
            if query in fold(c.get("title", ""))
            or any(query in fold(p) for p in c.get("participants", ()))]
    return render_records(hits, LIST_FIELDS)


def open_conversation(ctx: ToolContext) -> str:
    conv = require_record(ctx.store("conversations"), ctx.args["conversation_id"], "conversation")
    ctx.session["open_id"] = conv["id"]
    recent = conv["messages"][-5:]
    lines = [f"opened {conv['title']}"]
    lines += [f"{m['sender']}: {m['content']}" for m in recent]
    return "\n".join(lines)


def read_messages(ctx: ToolContext) -> str:
    conv = open_record(ctx, "conversations", "conversation")
    msgs = paginate(conv["messages"], ctx.args.get("offset", 0), ctx.args.get("limit", 10))
    return "\n".join(f"{m['timestamp']} {m['sender']}: {m['content']}" for m in msgs) or "(no messages)"


# -- flat API; the Opened screen sends through on_open --------------------------

def send_message(ctx: ToolContext) -> str:
    _append_message(ctx.store("conversations"), ctx.args["conversation_id"],
                    ctx.current_user, ctx.args["message"], ctx.clock.render())
    return f"message sent in {ctx.args['conversation_id']}"


def api_receive_message(ctx: ToolContext) -> str:
    store = ctx.store("conversations")
    sender = ctx.args["sender"]
    cid = ctx.args.get("conversation_id")
    if cid is None:
        match = [c for c in store.all() if sender in c["participants"]]
        if match:
            cid = match[0]["id"]
        else:
            cid = store.add({"title": sender, "participants": [sender, ctx.current_user],
                             "messages": []})
    elif store.get(cid) is None:
        raise GuardFailed(f"no conversation with id {cid!r}")
    _append_message(store, cid, sender, ctx.args["message"], ctx.clock.render())
    return f"message received in {cid}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("List", ToolSpec("list_recent_conversations", PAGING, read_only=True,
                           description="List recent conversations."),
          list_op("conversations", LIST_FIELDS, DEFAULT_PAGE)),
        t("List", ToolSpec("search_conversations", (Param("query"),), read_only=True,
                           description="Search conversations by title or participant."),
          search_conversations),
        t("List", ToolSpec("open_conversation", (Param("conversation_id"),),
                           description="Open a conversation."), open_conversation, ("Opened",)),
        t("Opened", ToolSpec("send_message", (Param("message"),),
                             description="Send a message in the open conversation."),
          on_open(send_message, "conversation_id")),
        t("Opened", ToolSpec("read_messages", PAGING, read_only=True,
                             description="Read messages of the open conversation."), read_messages),
    )
    api = (
        ApiTool(ToolSpec("list_conversations", (), read_only=True,
                         description="List all conversations."),
                list_op("conversations", LIST_FIELDS)),
        ApiTool(ToolSpec("read_messages", (Param("conversation_id"),), read_only=True,
                         description="Read a conversation's full message history."),
                read_op("conversations", "conversation_id", "conversation")),
        ApiTool(ToolSpec("send_message", (Param("conversation_id"), Param("message")),
                         description="Send a message on the user's behalf."), send_message),
        ApiTool(ToolSpec("receive_message",
                         (Param("sender"), Param("message"),
                          Param("conversation_id", required=False)),
                         description="Deposit an incoming message.",
                         environment_only=True), api_receive_message),
    )
    return AppStateMachine(
        app_id="MessagingApp",
        states=("List", "Opened"),
        initial_state="List",
        transitions=transitions,
        api_tools=api,
        stores=(("conversations", "CV"),),
        description="Chat / SMS",
    )
