"""A seeded random walk over every screen and API tool of the nine apps.

The walk records each call with its outcome or error, the database digest,
the per-app sessions and the navigation state, one JSON line per step. Its
sha256 is frozen: a refactor of the apps must leave the transcript
byte-identical, and a deliberate behaviour change updates the digest and
says so in CHANGES.md.

On the same seeded records, a property test calls every `read_only` tool on
both surfaces and checks that none of them writes.
"""

import functools
import hashlib
import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from phonesim.apps import BUILDERS, build_app, calendar_app
from phonesim.apps.common import new_record
from phonesim.database import plain_copy
from phonesim.errors import ArgumentInvalid, GuardFailed, PhonesimError
from phonesim.events import Event
from phonesim.interfaces import HOME
from phonesim.world import SYSTEM_APP, World

WALK_STEPS = 4000
USER_SHARE = 0.85   # the share of steps that are user calls; the rest are API calls
STAY = 0.9          # the chance that a user call stays in the foreground app
VISIT = 16          # steps per app visit
WALK_SHA256 = "a973bf3637858ca1c19cf73ce6b3315abb4a5d9eb3c43d169ffc05a4de20588f"

SEED_RECORDS = {
    ("EmailApp", "emails"): [
        {"folder": "inbox", "sender": "ana@x.example", "recipients": ["user"], "cc": [],
         "subject": "Lease renewal", "body": "please sign the lease",
         "attachments": ["lease.pdf"], "timestamp": "2025-06-01 08:00", "read": False},
        {"folder": "archive", "sender": "bo@x.example", "recipients": ["user"], "cc": [],
         "subject": "Standup notes", "body": "work items", "attachments": [],
         "timestamp": "2025-05-30 17:00", "read": True},
    ],
    ("CalendarApp", "events"): [
        {"title": "standup", "start": "2025-06-01 09:30", "end": "2025-06-01 09:45",
         "tag": "work", "description": "daily sync", "location": "", "attendees": ["Ana"]},
        {"title": "lease signing", "start": "2025-06-03 14:00", "end": "2025-06-03 15:00",
         "tag": "", "description": "", "location": "Downtown", "attendees": []},
    ],
    ("NoteApp", "notes"): [
        {"title": "ideas", "content": "work plans", "folder": "Notes", "attachments": []},
        {"title": "lease", "content": "rent 1850", "folder": "Home",
         "attachments": ["lease.pdf"]},
    ],
    ("ReminderApp", "reminders"): [
        {"title": "pay rent", "description": "", "due": "2025-06-03 09:00",
         "repetition": "monthly"},
        {"title": "call Ana", "description": "lease", "due": "2025-05-31 10:00",
         "repetition": "none"},
    ],
    ("ContactsApp", "contacts"): [
        {"name": "Ana", "email": "ana@x.example", "phone": "555-0101", "notes": ""},
        {"name": "Bo", "email": "bo@x.example", "phone": "", "notes": "work"},
    ],
    ("ApartmentApp", "apartments"): [
        {"name": "Canal House", "location": "Downtown", "rent": 1850, "bedrooms": 1},
        {"name": "Elm Court", "location": "Uptown", "rent": 2400, "bedrooms": 2},
    ],
    ("ShoppingApp", "products"): [
        {"name": "Lamp", "price": 2500,
         "variants": [{"id": "V1", "name": "white", "price": 2500},
                      {"id": "V2", "name": "black", "price": 2700}]},
        {"name": "Mug", "price": 900, "variants": [{"id": "V3", "name": "blue", "price": 900}]},
    ],
    ("ShoppingApp", "cart"): [
        {"variant_id": "V3", "product_id": "P002", "name": "Mug (blue)", "price": 900,
         "quantity": 2},
    ],
    ("ShoppingApp", "orders"): [
        {"items": [{"variant_id": "V1", "name": "Lamp (white)", "price": 2500, "quantity": 1}],
         "total": 2500, "timestamp": "2025-05-30 12:00", "status": "placed"},
    ],
    ("MessagingApp", "conversations"): [
        {"title": "Ana", "participants": ["Ana", "user"],
         "messages": [{"sender": "Ana", "content": "lease?", "timestamp": "2025-06-01 08:30"}]},
        {"title": "work", "participants": ["Bo", "Cy", "user"], "messages": []},
    ],
    ("CabApp", "rides"): [
        {"status": "active", "pickup": "Home", "destination": "Downtown",
         "service": "standard", "price": 1200, "timestamp": "2025-06-01 08:50"},
        {"status": "completed", "pickup": "Work", "destination": "Home",
         "service": "pool", "price": 800, "timestamp": "2025-05-31 18:00"},
    ],
}

# Free-text values: folder, tag, service and participant names the seed uses,
# plus ones no record has.
WORDS = ("inbox", "archive", "trash", "work", "lease", "Ana", "Bo", "Home", "Notes",
         "Downtown", "standard", "premium", "lease.pdf", "2025-06-01", "nope")
INTS = (-3, 0, 1, 2, 1850, 2500)
UNKNOWN_ID = "X999"


def _ids(value, out):
    """Every record and nested id (such as a product's variants) in `value`."""
    if isinstance(value, dict):
        if isinstance(value.get("id"), str):
            out.add(value["id"])
        for item in value.values():
            _ids(item, out)
    elif isinstance(value, list):
        for item in value:
            _ids(item, out)


def _id_pool(world, app_id, param):
    """Ids for `param`: those of the app's store it names (`email_id`, the
    `emails` store), or of all the app's stores, plus one unknown id."""
    stores = world.db.app_stores(app_id)
    named = param[:-len("_id")] + "s"
    found = set()
    for name in ([named] if named in stores else sorted(stores)):
        _ids(stores[name].all(), found)
    return sorted(found) + [UNKNOWN_ID]


def _args(rng, world, app_id, spec, shown):
    """Arguments by each parameter's type. Half the time an id is one the
    last outcome showed, as a user picks from what the screen lists."""
    args = {}
    for p in spec.params:
        if not (p.required or rng.random() < 0.5):
            continue
        if p.name == "app_name":
            args[p.name] = rng.choice(sorted(BUILDERS) + ["NoApp"])
        elif p.type == "int":
            args[p.name] = rng.choice(INTS)
        elif p.type == "list":
            args[p.name] = rng.sample(WORDS, rng.randrange(3))
        elif p.name.endswith("_id"):
            ids = _id_pool(world, app_id, p.name)
            listed = [i for i in ids if i in shown]
            args[p.name] = rng.choice(listed if listed and rng.random() < 0.5 else ids)
        else:
            args[p.name] = rng.choice(WORDS)
    if rng.random() < 0.03:
        args["extra"] = "x"
    return args


def _step(rng, world, api, step, called, shown):
    """Choose one call: a user tool, an execute-mode API tool or an
    environment tool delivered as an event. Returns the call and a function
    that makes it."""
    # Visits start afresh at an app's first screen: go home, then open the
    # app. Each app gets one visit per screen it has.
    apps = sorted(world.apps)
    rounds = max(len(world.apps[a].states) for a in apps)
    visits = [a for k in range(rounds) for a in apps if k < len(world.apps[a].states)]
    home = world.nav.foreground == HOME
    if step % VISIT == 0 and not home or step % VISIT < 2 and home:
        args = {"app_name": visits[step // VISIT % len(visits)]} if home else {}
        qualified = f"{SYSTEM_APP}__{'open_app' if home else 'go_home'}"
        return ["user", qualified, args], lambda: world.invoke_user_tool(qualified, args)
    if rng.random() < USER_SHARE:
        specs = world.user_tool_specs()
        screen = [s for s in specs if s[0].startswith(world.nav.foreground + "__")]
        qualified, spec = rng.choice(screen if screen and rng.random() < STAY else specs)
        app_id = qualified.partition("__")[0]
        if app_id in world.apps:
            called.add(("screen", app_id, world.sessions[app_id]["state"], spec.name))
        args = _args(rng, world, app_id, spec, shown)
        return ["user", qualified, args], lambda: world.invoke_user_tool(qualified, args)
    app_id, spec = rng.choice(api)
    called.add(("api", app_id, spec.name))
    qualified, args = spec.qualified(app_id), _args(rng, world, app_id, spec, shown)
    if not spec.environment_only:
        return ["api", qualified, args], lambda: world.invoke_agent_tool(qualified, args)

    def deliver():
        world.schedule_event(Event(id=f"walk{step}", kind="environment",
                                   at=world.clock.now + world.clock.tick,
                                   app=app_id, tool=spec.name, args=args))
        return [e.id for e in world.resolve_due_events()]
    return ["event", qualified, args], deliver


def _walk(steps, seed):
    """The walk's transcript, one JSON line per step, and the set of screen
    and API tools it called."""
    world = World("2025-06-01 09")
    world.assistant_mode = "execute"           # the walk's API calls may write
    for app_id in sorted(BUILDERS):
        world.register_app(build_app(app_id))
    for (app_id, store), records in SEED_RECORDS.items():
        for record in records:
            world.db.store(app_id, store).add(plain_copy(record))
    api = [(app_id, a.tool) for app_id in sorted(world.apps)
           for a in world.apps[app_id].api_tools]
    rng = random.Random(seed)
    called = set()
    lines = []
    shown = ""
    for step in range(steps):
        call, make = _step(rng, world, api, step, called, shown)
        try:
            outcome = make()
            result = {"outcome": outcome}
            shown = str(outcome)
        except PhonesimError as exc:
            result = {"error": [type(exc).__name__, str(exc)]}
        lines.append(json.dumps({"step": step, "call": call, **result,
                                 "db": world.db_digest(), "sessions": world.sessions,
                                 "nav": asdict(world.nav)}, sort_keys=True))
    return "\n".join(lines) + "\n", called


def test_app_walk_transcript_is_frozen():
    transcript, called = _walk(WALK_STEPS, seed=7)
    every = set()
    for app_id in BUILDERS:
        machine = build_app(app_id)
        every |= {("screen", app_id, t.state, t.tool.name) for t in machine.transitions}
        every |= {("api", app_id, a.tool.name) for a in machine.api_tools}
    assert sorted(every - called) == []
    assert hashlib.sha256(transcript.encode("utf-8")).hexdigest() == WALK_SHA256


def _world(app_id):
    world = World("2025-06-01 09")
    world.register_app(build_app(app_id))
    for (store_app, store), records in SEED_RECORDS.items():
        if store_app == app_id:
            for record in records:
                world.db.store(app_id, store).add(plain_copy(record))
    world.invoke_user_tool(f"{SYSTEM_APP}__open_app", {"app_name": app_id})
    return world


def test_shopping_rejects_quantities_below_one():
    world = _world("ShoppingApp")
    before = world.db_digest()
    world.assistant_mode = "execute"
    for quantity in (-3, 0):
        with pytest.raises(GuardFailed):
            world.invoke_agent_tool("ShoppingApp__add_to_cart",
                                    {"variant_id": "V1", "quantity": quantity})
    world.invoke_user_tool("ShoppingApp__view_product", {"product_id": "P001"})
    world.invoke_user_tool("ShoppingApp__view_variant", {"variant_id": "V1"})
    with pytest.raises(GuardFailed):
        world.invoke_user_tool("ShoppingApp__add_to_cart", {"quantity": 0})
    world.invoke_user_tool(f"{SYSTEM_APP}__go_home", {})
    world.invoke_user_tool(f"{SYSTEM_APP}__open_app", {"app_name": "ShoppingApp"})
    world.invoke_user_tool("ShoppingApp__view_cart", {})
    for quantity in (-3, 0):
        with pytest.raises(GuardFailed):
            world.invoke_user_tool("ShoppingApp__remove_item",
                                   {"item_id": "CI001", "quantity": quantity})
    assert world.db_digest() == before
    assert world.db.store("ShoppingApp", "cart").get("CI001")["quantity"] == 2


def test_messaging_screen_send_rejects_attachments():
    world = _world("MessagingApp")
    world.invoke_user_tool("MessagingApp__open_conversation", {"conversation_id": "CV001"})
    before = world.db_digest()
    with pytest.raises(ArgumentInvalid):
        world.invoke_user_tool("MessagingApp__send_message",
                               {"message": "photo", "attachments": ["a.jpg"]})
    assert world.db_digest() == before


# -- one shape per store ------------------------------------------------------------

def test_new_record_refuses_a_field_its_shape_does_not_declare():
    with pytest.raises(ValueError, match="'colour'"):
        new_record(calendar_app.EVENT, {"title": "t", "colour": "red"})


def test_appending_to_a_record_list_changes_no_args_draft_or_shape():
    """A record may share its lists with the arguments it was built from,
    with the draft it was saved from and with its shape's defaults. A store
    changes a list only by replacing it, so an append to a record's list
    changes none of those."""
    world = _world("CalendarApp")
    world.assistant_mode = "execute"
    args = {"title": "api", "start": "2025-06-04 10:00", "end": "2025-06-04 11:00",
            "attendees": ["Ana"]}
    world.invoke_agent_tool("CalendarApp__add_event", args)
    world.invoke_agent_tool("CalendarApp__add_event",
                            {"title": "bare", "start": args["start"], "end": args["end"]})
    world.invoke_user_tool("CalendarApp__start_create_event", {})
    current = world.sessions["CalendarApp"]["draft"]
    for tool, call in [("set_title", {"title": "screen"}),
                       ("set_time_range", {"start": "2025-06-05 10:00", "end": "2025-06-05 11:00"}),
                       ("add_attendee", {"attendee": "Bo"}), ("save", {})]:
        world.invoke_user_tool(f"CalendarApp__{tool}", call)
    store = world.db.store("CalendarApp", "events")
    created = [r for r in store.all() if r["title"] in ("api", "bare", "screen")]
    for record in created:
        store.update(record["id"], attendees=record["attendees"] + ["Cy"])
    assert [r["attendees"] for r in created] == [["Ana", "Cy"], ["Cy"], ["Bo", "Cy"]]
    assert args["attendees"] == ["Ana"]
    assert current["attendees"] == ["Bo"]
    assert calendar_app.EVENT["attendees"] == []


def test_a_discarded_edit_draft_leaves_the_record_it_started_from():
    """An edit draft starts out sharing the stored record's lists, so adding
    and removing attendees on it, then discarding it, changes no record."""
    world = _world("CalendarApp")
    before = plain_copy(world.db.dump())
    world.invoke_user_tool("CalendarApp__open_event", {"event_id": "CE001"})
    for tool, call in [("edit_event", {}), ("remove_attendee", {"attendee": "Ana"}),
                       ("add_attendee", {"attendee": "Bo"}), ("discard", {})]:
        world.invoke_user_tool(f"CalendarApp__{tool}", call)
    assert world.db.store("CalendarApp", "events").get("CE001")["attendees"] == ["Ana"]
    assert world.db.dump() == before


# -- read-only tools never write ---------------------------------------------------

def _world_at(app_id, path):
    """The seeded world with the app open and the user calls `path` made."""
    world = _world(app_id)
    for tool, args in path:
        world.invoke_user_tool(f"{app_id}__{tool}", args)
    return world


def _fixed_args(world, app_id, spec):
    """Candidate arguments for a step of a screen path: the required
    parameters only, with one candidate per known id when any is an id."""
    args = {}
    for p in spec.params:
        if p.required:
            args[p.name] = 1 if p.type == "int" else [] if p.type == "list" else "x"
    ids = [p.name for p in spec.params if p.required and p.name.endswith("_id")]
    if not ids:
        return [args]
    return [{**args, **{name: rid for name in ids}}
            for rid in _id_pool(world, app_id, ids[0])[:-1]]


@functools.cache
def _screen_paths(app_id):
    """For each screen of the app, a shortest list of (tool, args) user calls
    that reaches it from `open_app` on the seeded world, found breadth first."""
    machine = build_app(app_id)
    paths = {machine.initial_state: []}
    queue = [machine.initial_state]
    for state in queue:
        for t in machine.transitions:
            if t.state != state:
                continue
            for args in _fixed_args(_world_at(app_id, paths[state]), app_id, t.tool):
                world = _world_at(app_id, paths[state])
                try:
                    world.invoke_user_tool(t.tool.qualified(app_id), args)
                except PhonesimError:
                    continue
                reached = world.sessions[app_id]["state"]
                if reached not in paths:
                    paths[reached] = paths[state] + [(t.tool.name, args)]
                    queue.append(reached)
                break
    return paths


def _read(world, call):
    """Make one read-only call; whether it succeeds or fails, the database
    must be as it was."""
    before = world.db_digest()
    try:
        call()
    except PhonesimError:
        pass
    assert world.db_digest() == before


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_read_only_tools_never_write(rng):
    """Each `read_only` API tool in observe mode, and each `read_only` screen
    tool on its screen, reached from `open_app` by that screen's path, with
    arguments drawn as the walk draws them."""
    for app_id in sorted(BUILDERS):
        machine = build_app(app_id)
        paths = _screen_paths(app_id)
        assert sorted(paths) == sorted(machine.states), app_id
        world = _world(app_id)
        for api in machine.agent_api_tools():
            if api.tool.read_only:
                args = _args(rng, world, app_id, api.tool, "")
                _read(world, lambda: world.invoke_agent_tool(api.tool.qualified(app_id), args))
        for t in machine.transitions:
            if t.tool.read_only:
                world = _world_at(app_id, paths[t.state])
                args = _args(rng, world, app_id, t.tool, "")
                _read(world, lambda: world.invoke_user_tool(t.tool.qualified(app_id), args))
    _read(world, lambda: world.invoke_user_tool(f"{SYSTEM_APP}__current_time", {}))
    _read(world, lambda: world.invoke_agent_tool(f"{SYSTEM_APP}__current_time", {}))
