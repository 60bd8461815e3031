"""Helpers shared by the app simulators.

A record operation is declared once, over an explicit id argument, and
serves both surfaces: the flat API passes the id in its arguments, and a
screen transition wraps the same operation in `on_open`, which binds the
record the screen has open to that argument. Builders: `list_op`,
`read_op`, `search_op`, `delete_op` and `update_op`.

Screen patterns have builders too: `open_op` opens a record, `open_record`
reads the open one, and `draft`, `set_draft` and `append_draft` read and
edit the draft an edit screen holds in its session until save or cancel.
"""

from __future__ import annotations

import json

from ..database import Store
from ..errors import GuardFailed
from ..fsm import Handler, Param, ToolContext

DEFAULT_PAGE = 10
PAGING = (Param("offset", "int", required=False), Param("limit", "int", required=False))


def paginate(records: list[dict], offset: int = 0, limit: int = DEFAULT_PAGE) -> list[dict]:
    return records[offset:offset + limit]


def render_records(records: list[dict], fields: tuple[str, ...]) -> str:
    if not records:
        return "(no entries)"
    lines = []
    for rec in records:
        parts = [f"id={rec['id']}"]
        parts += [f"{f}={rec.get(f)!r}" for f in fields if f in rec]
        lines.append(" ".join(parts))
    return "\n".join(lines)


def require_record(store: Store, record_id: str, what: str) -> dict:
    rec = store.get(record_id)
    if rec is None:
        raise GuardFailed(f"no {what} with id {record_id!r}")
    return rec


def by_index(records: list[dict], index: int, what: str) -> dict:
    if index < 0 or index >= len(records):
        raise GuardFailed(f"no {what} at index {index}")
    return records[index]


# -- one operation, two surfaces -----------------------------------------------

def on_open(op: Handler, id_arg: str, key: str = "open_id") -> Handler:
    """Screen handler that runs `op` on the record the screen has open
    (`session[key]`), passed as the argument `id_arg`. With nothing open it
    fails as "no <what> is open", <what> being `id_arg` without `_id`.

    The bound id goes into a new dict: the caller logs the arguments it
    passed in, and action criteria match on them."""
    what = id_arg.removesuffix("_id")

    def handler(ctx: ToolContext) -> str:
        ctx.args = {**ctx.args, id_arg: opened_id(ctx, key, what)}
        return op(ctx)
    return handler


def list_op(store: str, fields: tuple[str, ...], page: int | None = None) -> Handler:
    """List a store's records; with `page`, `offset`/`limit` page them and
    `page` is the default limit."""
    def op(ctx: ToolContext) -> str:
        records = ctx.store(store).all()
        if page is not None:
            records = paginate(records, ctx.args.get("offset", 0), ctx.args.get("limit", page))
        return render_records(records, fields)
    return op


def read_op(store: str, id_arg: str, what: str) -> Handler:
    def op(ctx: ToolContext) -> str:
        return json.dumps(require_record(ctx.store(store), ctx.args[id_arg], what),
                          sort_keys=True)
    return op


def delete_op(store: str, id_arg: str, what: str) -> Handler:
    """Delete a record. The world then closes it on every screen that had
    it open (`World._guarded`)."""
    def op(ctx: ToolContext) -> str:
        rid = require_record(ctx.store(store), ctx.args[id_arg], what)["id"]
        ctx.store(store).remove(rid)
        return f"deleted {rid}"
    return op


def search_op(store: str, fields: tuple[str, ...], list_fields: tuple[str, ...]) -> Handler:
    """Records where any of `fields` contains the query, ignoring case
    (`Store.search`)."""
    def op(ctx: ToolContext) -> str:
        return render_records(ctx.store(store).search(fields, ctx.args["query"]), list_fields)
    return op


def update_op(store: str, id_arg: str, fields: tuple[str, ...], what: str) -> Handler:
    """Set each of `fields` that the call passes."""
    def op(ctx: ToolContext) -> str:
        rid = require_record(ctx.store(store), ctx.args[id_arg], what)["id"]
        ctx.store(store).update(rid, **{name: ctx.args[name] for name in fields
                                        if name in ctx.args})
        return f"{what} {rid} updated"
    return op


# -- screen patterns -------------------------------------------------------------

def opened_id(ctx: ToolContext, key: str, what: str) -> str:
    """The id of the record the screen has open (`session[key]`)."""
    rid = ctx.session.get(key)
    if not rid:
        raise GuardFailed(f"no {what} is open")
    return rid


def open_record(ctx: ToolContext, store: str, what: str) -> dict:
    """The record the screen has open (`session["open_id"]`)."""
    return require_record(ctx.store(store), opened_id(ctx, "open_id", what), f"open {what}")


def open_op(store: str, id_arg: str, what: str, key: str = "open_id") -> Handler:
    """Open a record: the screen keeps its id in `session[key]` and shows it."""
    def op(ctx: ToolContext) -> str:
        rec = require_record(ctx.store(store), ctx.args[id_arg], what)
        ctx.session[key] = rec["id"]
        return json.dumps(rec, sort_keys=True)
    return op


def draft(ctx: ToolContext, what: str = "draft") -> dict:
    """The draft the edit screen holds (`session["draft"]`)."""
    current = ctx.session.get("draft")
    if current is None:
        raise GuardFailed(f"no {what} in progress")
    return current


def set_draft(fields: tuple[str, ...], done: str, what: str = "draft") -> Handler:
    """Set each of `fields` in the draft from the argument of that name; a
    list argument is copied."""
    def op(ctx: ToolContext) -> str:
        current = draft(ctx, what)
        for name in fields:
            value = ctx.args[name]
            current[name] = list(value) if isinstance(value, list) else value
        return done
    return op


def append_draft(field: str, arg: str, done: str, what: str = "draft") -> Handler:
    """Append the argument `arg` to the draft's list `field`."""
    def op(ctx: ToolContext) -> str:
        draft(ctx, what)[field].append(ctx.args[arg])
        return done
    return op
