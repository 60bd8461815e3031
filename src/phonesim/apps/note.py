"""Note app: Folders, List, Detail, Edit. List is the root screen; Folders
shows the folder index and drops back into List scoped to the chosen folder.

A note has the shape `NOTE`: title, content, folder and attachments. The
Edit screen's draft holds its `DRAFT_SHAPE` fields, title and content."""

from __future__ import annotations

from ..errors import GuardFailed
from ..fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, Transition
from .common import (
    PAGING, delete_op, draft, list_op, new_record, on_open, open_op, open_record, paginate,
    read_op, render_records, require_record, search_op, set_draft, update_op,
)

LIST_FIELDS = ("title", "folder")
DEFAULT_FOLDER = "Notes"
DRAFT = "note draft"
NOTE = {"title": "", "content": "", "folder": DEFAULT_FOLDER, "attachments": []}
DRAFT_SHAPE = {name: NOTE[name] for name in ("title", "content")}


def list_notes(ctx: ToolContext) -> str:
    folder = ctx.session.get("folder", DEFAULT_FOLDER)
    notes = paginate(ctx.store("notes").find(folder=folder),
                     ctx.args.get("offset", 0), ctx.args.get("limit", 10))
    return f"folder={folder}\n" + render_records(notes, LIST_FIELDS)


search_notes = search_op("notes", ("title", "content"), LIST_FIELDS)
open_note = open_op("notes", "note_id", "note")


def new_note(ctx: ToolContext) -> str:
    ctx.session["draft"] = new_record(DRAFT_SHAPE, {})
    ctx.session["editing_id"] = None
    return "creating a new note"


def list_folders(ctx: ToolContext) -> str:
    folders = sorted({n["folder"] for n in ctx.store("notes").all()} | {DEFAULT_FOLDER})
    return "\n".join(folders)


def open_folder(ctx: ToolContext) -> str:
    ctx.session["folder"] = ctx.args["folder"]
    return f"opened folder {ctx.args['folder']}"


def list_attachments(ctx: ToolContext) -> str:
    return ", ".join(open_record(ctx, "notes", "note")["attachments"]) or "(no attachments)"


def add_attachment(ctx: ToolContext) -> str:
    note = open_record(ctx, "notes", "note")
    ctx.store("notes").update(note["id"], attachments=note["attachments"] + [ctx.args["filename"]])
    return "attachment added"


def remove_attachment(ctx: ToolContext) -> str:
    note = open_record(ctx, "notes", "note")
    attachments = list(note["attachments"])
    if ctx.args["filename"] not in attachments:
        raise GuardFailed(f"no attachment {ctx.args['filename']!r}")
    attachments.remove(ctx.args["filename"])
    ctx.store("notes").update(note["id"], attachments=attachments)
    return "attachment removed"


def edit_note(ctx: ToolContext) -> str:
    note = open_record(ctx, "notes", "note")
    ctx.session["draft"] = new_record(DRAFT_SHAPE, {k: note[k] for k in DRAFT_SHAPE})
    ctx.session["editing_id"] = note["id"]
    return f"editing {note['id']}"


def duplicate_note(ctx: ToolContext) -> str:
    note = open_record(ctx, "notes", "note")
    rid = ctx.store("notes").add(new_record(NOTE, {
        "title": note["title"] + " (copy)", "content": note["content"], "folder": note["folder"]}))
    return f"duplicated as {rid}"


def move_note(ctx: ToolContext) -> str:
    rid = open_record(ctx, "notes", "note")["id"]
    ctx.store("notes").update(rid, folder=ctx.args["folder"])
    return f"moved {rid} to folder {ctx.args['folder']}"


set_title = set_draft(("title",), "title set", DRAFT)
set_content = set_draft(("content",), "content set", DRAFT)


def update_note(ctx: ToolContext) -> str:
    current = draft(ctx, DRAFT)
    editing = ctx.session.get("editing_id")
    store = ctx.store("notes")
    if editing:
        require_record(store, editing, "note")
        store.update(editing, **current)
        rid = editing
    else:
        if not current["title"]:
            raise GuardFailed("note draft needs a title")
        rid = store.add(new_record(NOTE, {
            **current, "folder": ctx.session.get("folder", DEFAULT_FOLDER)}))
    ctx.session["draft"] = None
    ctx.session["editing_id"] = None
    ctx.session["open_id"] = rid
    return f"note {rid} saved"


# -- flat API; the Detail screen reads and deletes through on_open --------------

read_note = read_op("notes", "note_id", "note")
delete_note = delete_op("notes", "note_id", "note")


def api_create_note(ctx: ToolContext) -> str:
    rid = ctx.store("notes").add(new_record(NOTE, ctx.args))
    return f"note created as {rid}"


def build() -> AppStateMachine:
    t = Transition
    transitions = (
        t("List", ToolSpec("list_notes", PAGING, read_only=True,
                           description="List notes in the current folder."), list_notes),
        t("List", ToolSpec("search_notes", (Param("query"),), read_only=True,
                           description="Search notes by title or content."), search_notes),
        t("List", ToolSpec("open_note", (Param("note_id"),),
                           description="Open a note."), open_note, ("Detail",)),
        t("List", ToolSpec("new_note", (), description="Start a new note."), new_note, ("Edit",)),
        t("List", ToolSpec("list_folders", (), description="Browse folders."),
          list_folders, ("Folders",)),
        t("Folders", ToolSpec("open_folder", (Param("folder"),),
                              description="Open a folder."), open_folder, ("List",)),
        t("Detail", ToolSpec("refresh_note", (), read_only=True,
                             description="Re-read the open note."),
          on_open(read_note, "note_id")),
        t("Detail", ToolSpec("list_attachments", (), read_only=True,
                             description="List attachments."), list_attachments),
        t("Detail", ToolSpec("add_attachment", (Param("filename"),),
                             description="Attach a file."), add_attachment),
        t("Detail", ToolSpec("remove_attachment", (Param("filename"),),
                             description="Remove an attachment."), remove_attachment),
        t("Detail", ToolSpec("delete_note", (), description="Delete the open note."),
          on_open(delete_note, "note_id"), ("List",)),
        t("Detail", ToolSpec("edit_note", (), description="Edit the open note."),
          edit_note, ("Edit",)),
        t("Detail", ToolSpec("duplicate_note", (), description="Duplicate the open note."),
          duplicate_note),
        t("Detail", ToolSpec("move_note", (Param("folder"),),
                             description="Move the open note to another folder."), move_note),
        t("Edit", ToolSpec("set_title", (Param("title"),), description="Set the title."), set_title),
        t("Edit", ToolSpec("set_content", (Param("content"),),
                           description="Set the content."), set_content),
        t("Edit", ToolSpec("update_note", (), description="Save the note."),
          update_note, ("Detail",)),
    )
    api = (
        ApiTool(ToolSpec("list_notes", (), read_only=True,
                         description="List all notes."), list_op("notes", LIST_FIELDS)),
        ApiTool(ToolSpec("read_note", (Param("note_id"),), read_only=True,
                         description="Read a note."), read_note),
        ApiTool(ToolSpec("list_folders", (), read_only=True,
                         description="List folders."), list_folders),
        ApiTool(ToolSpec("create_note",
                         (Param("title"), Param("content"), Param("folder", required=False)),
                         description="Create a note."), api_create_note),
        ApiTool(ToolSpec("update_note",
                         (Param("note_id"), Param("title", required=False),
                          Param("content", required=False), Param("folder", required=False)),
                         description="Update a note."),
                update_op("notes", "note_id", ("title", "content", "folder"), "note")),
        ApiTool(ToolSpec("delete_note", (Param("note_id"),),
                         description="Delete a note."), delete_note),
    )
    return AppStateMachine(
        app_id="NoteApp",
        states=("Folders", "List", "Detail", "Edit"),
        initial_state="List",
        transitions=transitions,
        api_tools=api,
        stores=(("notes", "N"),),
        description="Note-taking",
    )
