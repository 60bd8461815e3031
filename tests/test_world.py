import copy
import dataclasses
import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

import phonesim.apps.messaging
import phonesim.cli
import phonesim.database
import phonesim.world
from phonesim.apps import build_app, calendar_app, contacts, note, reminder
from phonesim.apps import email as email_app
from phonesim.cli import main
from phonesim.database import Store, WorldDatabase, canonical_json, digest
from phonesim.errors import (
    ArgumentInvalid,
    DuplicateAppId,
    GuardFailed,
    PayloadToolMissing,
    ProposalAlreadyPending,
    ToolNotAvailableInState,
    WriteInObserveMode,
)
from phonesim.events import Event, load_distractor_catalog, sample_noise_events
from phonesim.fsm import ToolContext, ToolSpec, render_app_reference
from phonesim.interfaces import render_event_notification
from phonesim.policies import NOOP_ACTION, WAIT_ACTION, NoopPolicy, ScriptedPolicy, load_script
from phonesim.runner import build_world, run_oracle
from phonesim.scenario import Scenario, load_scenario, parse_scenario
from phonesim.stochastic import StochasticConfig
from phonesim.turnloop import Episode
from phonesim.world import FAILURE_OBSERVATION, World
from test_apps import WALK_SHA256, WALK_STEPS, _walk

DATA = Path(str(resources.files("phonesim").joinpath("data")))
# Checkpoints of every bundled scenario, oracle and scripted, as one sha256:
# a change to how the world is snapshot must leave it byte-identical, and a
# deliberate change to world state updates it and says so in CHANGES.md.
PACK_CHECKPOINTS_SHA256 = "7e325fa05beba6f77fd12be28ce9eebd4558df58b0e1b9b0e3b8d2683c34496b"
# Every observation of `_noisy_episode`, one per line, as one sha256: its
# listings and searches read stores of more than 1,000 records.
NOISY_STEPS_SHA256 = "206f83d8fad6b6183a2c57cf35c7bcb0cea2c64298f09cb60ae9a91938a74521"
CELLS = ((0.0, 0.0), (2.0, 0.1), (20.0, 0.3))   # (noise_rate, failure_prob)


def make_world(*apps, stochastic=None):
    world = World("2025-06-01 09", stochastic=stochastic)
    for app in apps or ("EmailApp",):
        world.register_app(build_app(app))
    return world


def test_duplicate_registration_rejected():
    world = make_world("EmailApp")
    with pytest.raises(DuplicateAppId):
        world.register_app(build_app("EmailApp"))


def test_user_tools_gated_by_screen_and_foreground():
    world = make_world("EmailApp")
    with pytest.raises(ToolNotAvailableInState):
        world.invoke_user_tool("EmailApp__list_emails", {})   # not in foreground
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    with pytest.raises(ToolNotAvailableInState) as exc:
        world.invoke_user_tool("EmailApp__reply", {"body": "x"})  # Detail-only tool
    assert "available" in str(exc.value)


def test_switch_app_preserves_screen_state():
    world = make_world("EmailApp", "CabApp")
    world.db.store("EmailApp", "emails").add(
        {"folder": "inbox", "sender": "a@b.c", "subject": "s", "body": "b",
         "recipients": ["user"], "timestamp": "t"})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    world.invoke_user_tool("EmailApp__open_email", {"email_id": "E001"})
    assert world.sessions["EmailApp"]["state"] == "Detail"
    world.invoke_user_tool("SystemApp__go_home", {})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "CabApp"})
    world.invoke_user_tool("SystemApp__switch_app", {"app_name": "EmailApp"})
    assert world.sessions["EmailApp"]["state"] == "Detail"


def test_observe_mode_rejects_writes_allows_reads():
    """The world gates the assistant by its own mode: only the user's accept
    lets it write, until it reports back. Reads run in any mode and count as
    observe-mode reads only while it observes."""
    world = make_world("EmailApp")
    send = ("EmailApp__send_email", {"recipients": ["a@b.c"], "subject": "s", "body": "b"})
    read = ("EmailApp__list_emails", {})
    with pytest.raises(WriteInObserveMode):
        world.invoke_agent_tool(*send)
    world.invoke_agent_tool(*read)
    world.invoke_agent_tool("AgentUserInterface__propose_task", {"task": "write"})
    with pytest.raises(WriteInObserveMode):
        world.invoke_agent_tool(*send)
    world.invoke_user_tool("AgentUserInterface__accept_proposal")
    world.invoke_agent_tool(*send)
    assert world.tool_log[-1]["tool"] == "EmailApp__send_email"
    assert world.tool_log[-1]["mode"] == "execute"
    world.invoke_agent_tool(*read)
    world.invoke_agent_tool("AgentUserInterface__send_message_to_user", {"message": "done"})
    with pytest.raises(WriteInObserveMode):
        world.invoke_agent_tool(*send)
    world.invoke_agent_tool(*read)
    assert [entry["mode"] for entry in world.tool_log] == ["observe", "execute", "execute",
                                                          "observe"]
    assert (world.read_actions_observe, world.read_actions_total) == (2, 3)


def test_failed_write_handler_rolls_back_store():
    world = make_world("ShoppingApp")
    before = world.db_digest()
    world.assistant_mode = "execute"
    with pytest.raises(GuardFailed):
        world.invoke_agent_tool("ShoppingApp__checkout", {})
    assert world.db_digest() == before
    with pytest.raises(GuardFailed):
        world.invoke_agent_tool("ShoppingApp__get_order", {"order_id": "nope"})
    assert world.db_digest() == before


def _email(i, folder="inbox"):
    return {"folder": folder, "sender": f"s{i}@x.y", "recipients": ["user"], "cc": [],
            "subject": f"subject {i}", "body": "b", "attachments": [],
            "timestamp": "t", "read": False}


def _journals(world):
    return [store.undo for app_id in world.apps
            for store in world.db.app_stores(app_id).values()]


def _write_every_route(ctx):
    """Change records through each store write: remove, update (of a field
    the record has, of one it lacks, and of a list, with a new list as the
    apps append) and add."""
    emails = ctx.store("emails")
    emails.remove("E003")
    emails.update("E001", read=True)
    emails.update("E002", recipients=emails.get("E002")["recipients"] + ["eve"])
    emails.update("E004", subject="edited", label="new")     # no `label` before
    emails.update("E005", cc=emails.get("E005")["cc"] + ["carol"])
    emails.add(_email(9))


@pytest.mark.parametrize("exc", [GuardFailed, ArgumentInvalid])
def test_guarded_write_journal_on_every_exit(exc):
    world = make_world("EmailApp", "MessagingApp")
    emails = world.db.store("EmailApp", "emails")
    for i in range(5):
        emails.add(_email(i, folder="archive" if i == 3 else "inbox"))
    ctx = ToolContext(db=world.db, app_id="EmailApp", clock=world.clock, session={},
                      args={})
    write = ToolSpec("write")

    # A guard or argument failure restores every record and the id counter.
    dump, before = copy.deepcopy(world.db.dump()), world.db_digest()
    next_id = f"E{emails.counter + 1:03d}"

    def failing(ctx):
        _write_every_route(ctx)
        raise exc("rejected after writing")

    with pytest.raises(exc):
        world._guarded(write, failing, ctx)
    assert world.db.dump() == dump
    assert world.db_digest() == before
    assert _journals(world) == [None, None]
    assert emails.add(_email(10)) == next_id              # E006

    # A successful write is kept.
    assert world._guarded(write, lambda c: _write_every_route(c) or "ok", ctx) == "ok"
    assert _journals(world) == [None, None]
    assert emails.get("E001")["read"] and emails.get("E003") is None
    assert emails.get("E002")["recipients"] == ["user", "eve"]
    assert emails.get("E004")["subject"] == "edited" and emails.get("E004")["label"] == "new"
    assert emails.get("E005")["cc"] == ["carol"] and emails.get("E007") is not None
    kept = world.db_digest()

    # Any other exception propagates and keeps its writes, as before.
    def crashing(ctx):
        ctx.store("emails").update("E001", body="crashed")
        ctx.store("emails").add(_email(11))
        raise RuntimeError("not a guard")

    with pytest.raises(RuntimeError):
        world._guarded(write, crashing, ctx)
    assert _journals(world) == [None, None]
    assert emails.get("E001")["body"] == "crashed" and emails.get("E008") is not None
    assert world.db_digest() != kept


def test_write_deep_copies_only_the_records_it_touches(monkeypatch):
    """A write's cost grows with what it changes, not with the store: at 10k
    records no call deep-copies anything, and each call's journal holds one
    entry per store write it made (a move, a send, and a move to an unknown
    folder that is refused before it writes)."""
    world = make_world("EmailApp")
    emails = world.db.store("EmailApp", "emails")
    for i in range(10_000):
        emails.add(_email(i))
    copies, journals = [], []
    real_deepcopy, real_copy_app = copy.deepcopy, WorldDatabase.copy_app

    def counting(x, memo=None, _nil=[]):
        copies.append(x)
        return real_deepcopy(x, memo)

    def opening(db, app_id):
        saved = real_copy_app(db, app_id)
        # A rollback starts a new list, so these keep what was journaled.
        journals.append([store.undo for store in db.app_stores(app_id).values()])
        return saved

    monkeypatch.setattr(phonesim.database.copy, "deepcopy", counting)
    monkeypatch.setattr(WorldDatabase, "copy_app", opening)
    calls = [("EmailApp__move_email", {"email_id": "E042", "folder": "archive"}),
             ("EmailApp__send_email", {"recipients": ["a@b.c"], "subject": "s", "body": "b"}),
             ("EmailApp__move_email", {"email_id": "E043", "folder": "spam"})]
    world.assistant_mode = "execute"
    for qualified, args in calls:
        try:
            world.invoke_agent_tool(qualified, args)
        except GuardFailed:
            pass
    assert copies == []
    assert [sum(map(len, journal)) for journal in journals] == [1, 1, 0]
    assert emails.get("E042")["folder"] == "archive"
    assert emails.get("E043")["folder"] == "inbox"
    assert len(emails) == 10_001


def test_screen_tool_logs_only_the_arguments_the_user_gave():
    """A screen tool binds the open record's id into its own copy of the
    arguments; the log and the assistant's feed keep what the user typed."""
    world = make_world("EmailApp")
    world.db.store("EmailApp", "emails").add(_email(0))
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    world.invoke_user_tool("EmailApp__open_email", {"email_id": "E001"})
    world.invoke_user_tool("EmailApp__move_email", {"folder": "archive"})
    assert world.db.store("EmailApp", "emails").get("E001")["folder"] == "archive"
    assert world.tool_log[-1]["tool"] == "EmailApp__move_email"
    assert world.tool_log[-1]["args"] == {"folder": "archive"}
    _, actions = world.notifications.drain_assistant()
    assert actions[-1].startswith('[user_action] EmailApp__move_email({"folder": "archive"})')


def test_logged_arguments_share_no_container_with_the_callers():
    """The world copies a caller's arguments once, on entry. A caller who
    edits them after the call changes neither the stored record nor the log,
    on the assistant's API or on the user's screens."""
    world = make_world("EmailApp")
    emails = world.db.store("EmailApp", "emails")
    args = {"recipients": ["a@b.c"], "subject": "s", "body": "b"}
    world.assistant_mode = "execute"
    world.invoke_agent_tool("EmailApp__send_email", args)
    logged, sent = world.tool_log[-1]["args"], emails.all()[-1]
    assert logged == args
    assert logged is not args and logged["recipients"] is not args["recipients"]
    args["recipients"].append("x@y.z")
    assert logged["recipients"] == sent["recipients"] == ["a@b.c"]

    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    world.invoke_user_tool("EmailApp__start_compose", {})
    typed = {"recipients": ["ana@x.y"]}
    world.invoke_user_tool("EmailApp__set_recipients", typed)
    logged = world.tool_log[-1]["args"]
    for tool, call in [("set_subject", {"subject": "hi"}), ("set_body", {"body": "b"}),
                       ("send_composed_email", {})]:
        world.invoke_user_tool(f"EmailApp__{tool}", call)
    typed["recipients"].append("x@y.z")
    assert logged == {"recipients": ["ana@x.y"]}
    assert emails.all()[-1]["recipients"] == ["ana@x.y"]


def test_screen_lists_page_while_the_api_lists_everything():
    world = make_world("ContactsApp")
    for i in range(12):
        world.db.store("ContactsApp", "contacts").add(
            {"name": f"n{i}", "email": "", "phone": "", "notes": ""})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "ContactsApp"})
    assert len(world.invoke_user_tool("ContactsApp__list_contacts", {}).splitlines()) == 10
    tail = world.invoke_user_tool("ContactsApp__list_contacts", {"offset": 10})
    assert [line.split()[0] for line in tail.splitlines()] == ["id=C011", "id=C012"]
    listing = world.invoke_agent_tool("ContactsApp__list_contacts", {})
    assert len(listing.splitlines()) == 12


def test_screen_write_on_a_record_deleted_through_the_api_is_refused():
    world = make_world("ContactsApp")
    contacts = world.db.store("ContactsApp", "contacts")
    for name in ("Ana", "Bo"):
        contacts.add({"name": name, "email": "", "phone": "", "notes": ""})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "ContactsApp"})
    world.invoke_user_tool("ContactsApp__open_contact", {"contact_id": "C001"})
    world.invoke_user_tool("ContactsApp__start_edit_contact", {})
    world.assistant_mode = "execute"
    world.invoke_agent_tool("ContactsApp__delete_contact", {"contact_id": "C001"})
    dump, before = copy.deepcopy(world.db.dump()), world.db_digest()
    with pytest.raises(GuardFailed, match="^no contact is open$"):
        world.invoke_user_tool("ContactsApp__update_contact", {"phone": "555"})
    assert world.db.dump() == dump
    assert world.db_digest() == before
    assert _journals(world) == [None]
    assert world.sessions["ContactsApp"]["state"] == "Edit"


def test_api_delete_closes_the_record_on_the_users_screen():
    world = make_world("ContactsApp", "ApartmentApp")
    contacts = world.db.store("ContactsApp", "contacts")
    for name in ("Ana", "Bo"):
        contacts.add({"name": name, "email": "", "phone": "", "notes": ""})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "ContactsApp"})
    world.invoke_user_tool("ContactsApp__open_contact", {"contact_id": "C001"})
    world.assistant_mode = "execute"
    world.invoke_agent_tool("ContactsApp__delete_contact", {"contact_id": "C002"})
    assert world.sessions["ContactsApp"] == {"state": "Detail", "open_id": "C001"}
    world.invoke_agent_tool("ContactsApp__delete_contact", {"contact_id": "C001"})
    assert world.sessions["ContactsApp"] == {"state": "Detail", "open_id": None}
    for tool in ("view_contact", "start_edit_contact", "delete_contact"):
        with pytest.raises(GuardFailed, match="^no contact is open$"):
            world.invoke_user_tool(f"ContactsApp__{tool}", {})

    # Unsaving removes a `saved` record that shares the apartment's id; the
    # apartment itself stays open.
    world.db.store("ApartmentApp", "apartments").add(
        {"name": "Loft", "location": "x", "rent": 1, "bedrooms": 1})
    world.invoke_user_tool("SystemApp__go_home", {})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "ApartmentApp"})
    world.invoke_user_tool("ApartmentApp__view_apartment", {"apartment_id": "A001"})
    world.invoke_user_tool("ApartmentApp__save", {})
    world.invoke_user_tool("ApartmentApp__unsave", {})
    assert world.sessions["ApartmentApp"]["open_id"] == "A001"


def test_searches_read_missing_and_non_string_fields_as_text():
    world = make_world("EmailApp", "MessagingApp")
    world.db.store("EmailApp", "emails").add({"folder": "inbox", "subject": 2024})
    world.db.store("MessagingApp", "conversations").add(
        {"title": 7, "participants": ["Ana", 12], "messages": []})
    assert "id=E001" in world.invoke_agent_tool("EmailApp__search_emails", {"query": "2024"})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "MessagingApp"})
    for query in ("7", "ana", "12"):
        found = world.invoke_user_tool("MessagingApp__search_conversations", {"query": query})
        assert found.startswith("id=CV001"), query


def test_apartment_search_reads_odd_locations_and_skips_unpriced_listings():
    """A numeric `location` is matched as text, folded as the store's search
    folds it, and a rent bound skips every listing whose rent is missing or
    not a number instead of ending the call in a traceback."""
    world = make_world("ApartmentApp")
    listings = world.db.store("ApartmentApp", "apartments")
    listings.add({"name": "Five", "location": 5, "rent": 900, "bedrooms": 1})
    listings.add({"name": "Unpriced", "location": "Midtown", "bedrooms": 2})
    listings.add({"name": "On request", "location": "Midtown", "rent": "ask", "bedrooms": 2})
    listings.add({"name": "Flag", "location": "Midtown", "rent": True, "bedrooms": 2})
    listings.add({"name": "Cheap", "location": "MIDTOWN", "rent": 800})

    def ids(args):
        found = world.invoke_agent_tool("ApartmentApp__search_apartments", args)
        return [line.split()[0] for line in found.splitlines()]

    assert ids({"location": "5"}) == ["id=A001"]
    assert ids({"location": "midtown"}) == ["id=A002", "id=A003", "id=A004", "id=A005"]
    assert ids({"max_rent": 1000}) == ["id=A001", "id=A005"]
    assert ids({"min_rent": 850}) == ["id=A001"]
    assert ids({"location": "Mid", "max_rent": 1000}) == ["id=A005"]
    assert ids({"bedrooms": 2}) == ["id=A002", "id=A003", "id=A004"]
    assert ids({"max_rent": 100}) == ["(no"]


def test_failure_injection_hits_assistant_calls_only():
    world = make_world("EmailApp",
                       stochastic=StochasticConfig(failure_prob=1.0, seed=1))
    out = world.invoke_agent_tool("EmailApp__list_emails", {})
    assert out == FAILURE_OBSERVATION
    assert world.read_actions_total == 0       # failed call does not count
    # user tools and events are exempt from injection
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    assert world.invoke_user_tool("EmailApp__list_emails", {})
    world.schedule_event(Event(id="e1", kind="environment", at=30,
                               app="EmailApp", tool="deliver_email",
                               args={"sender": "a", "subject": "s", "body": "b"}))
    world.resolve_due_events()
    assert len(world.db.store("EmailApp", "emails")) == 1


def test_interface_actions_run_through_world_uncounted_and_never_failed():
    world = make_world("EmailApp",
                       stochastic=StochasticConfig(failure_prob=1.0, seed=1))
    propose = "AgentUserInterface__propose_task"
    out = world.invoke_agent_tool(propose, {"task": "x"})
    assert out == "proposal sent to the user"
    assert world.proposals.pending().content == "x"
    assert world.assistant_mode == "awaiting_confirmation"
    assert world.notifications.user_inbox == ["Assistant proposal: x"]
    with pytest.raises(ProposalAlreadyPending):
        world.invoke_agent_tool(propose, {"task": "y"})
    world.invoke_user_tool("AgentUserInterface__accept_proposal")
    assert (world.assistant_mode, world.active_task) == ("execute", "x")
    out = world.invoke_agent_tool("AgentUserInterface__send_message_to_user",
                                  {"message": "done"})
    assert out == "message delivered; task closed"
    assert (world.assistant_mode, world.active_task) == ("observe", None)
    assert world.notifications.user_inbox[-1] == "Assistant: done"
    assert world.invocation_counter == 0 and world.tool_log == []
    assert world.read_actions_total == 0


def test_environment_only_tools_closed_to_assistant_open_to_events():
    world = make_world("EmailApp", "MessagingApp")
    incoming = {
        "EmailApp__deliver_email": {"sender": "a", "subject": "s", "body": "b"},
        "MessagingApp__receive_message": {"sender": "Sam", "message": "hi"},
    }
    offered = {name for name, _ in world.agent_tool_specs()}
    reference = render_app_reference(list(world.apps.values()))
    world.assistant_mode = "execute"
    for qualified, args in incoming.items():
        assert qualified not in offered
        assert qualified not in reference
        with pytest.raises(ToolNotAvailableInState):
            world.invoke_agent_tool(qualified, args)
    assert world.tool_log == [] and world.invocation_counter == 0

    for i, (qualified, args) in enumerate(incoming.items()):
        app, _, tool = qualified.partition("__")
        world.schedule_event(Event(id=f"e{i}", kind="environment", at=30,
                                   app=app, tool=tool, args=args))
    world.resolve_due_events()
    assert len(world.db.store("EmailApp", "emails")) == 1
    assert len(world.db.store("MessagingApp", "conversations")) == 1
    assert [e["tool"] for e in world.tool_log] == list(incoming)
    assert {e["actor"] for e in world.tool_log} == {"environment"}


def test_event_with_unknown_tool_raises_payload_missing():
    world = make_world("EmailApp")
    world.schedule_event(Event(id="e1", kind="environment", at=30,
                               app="EmailApp", tool="no_such_tool", args={}))
    with pytest.raises(PayloadToolMissing):
        world.resolve_due_events()


def test_event_write_that_fails_rolls_back_and_aborts_the_episode(monkeypatch):
    """An event's handler writes (a new conversation and its first message)
    and then a guard refuses: the episode aborts and the stores are as they
    were before the event."""
    real = phonesim.apps.messaging._append_message

    def append_then_refuse(store, conversation_id, *rest):
        real(store, conversation_id, *rest)
        raise GuardFailed("refused after writing")

    monkeypatch.setattr(phonesim.apps.messaging, "_append_message", append_then_refuse)
    world = make_world("MessagingApp")
    world.db.store("MessagingApp", "conversations").add(
        {"title": "Sam", "participants": ["sam", "user"], "messages": []})
    world.schedule_event(Event(id="e1", kind="environment", at=60, app="MessagingApp",
                               tool="receive_message", args={"sender": "Ana", "message": "hi"}))
    before = canonical_json(world.db.dump())
    episode = Episode(world, NoopPolicy(), NoopPolicy(WAIT_ACTION), max_turns=5)
    episode.run()
    assert episode.aborted_reason == "bad event payload: refused after writing"
    assert world.turn == 1 and world.event_log == []
    assert canonical_json(world.db.dump()) == before
    assert _journals(world) == [None]


def test_oracle_delete_closes_the_record_on_the_users_screen():
    world = make_world("ContactsApp")
    contacts = world.db.store("ContactsApp", "contacts")
    for name in ("Ana", "Bo"):
        contacts.add({"name": name, "email": "", "phone": "", "notes": ""})
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "ContactsApp"})
    world.invoke_user_tool("ContactsApp__open_contact", {"contact_id": "C001"})
    world.schedule_event(Event(id="o1", kind="oracle_agent", at=60, app="ContactsApp",
                               tool="delete_contact", args={"contact_id": "C001"}))
    world.resolve_due_events()
    assert world.tool_log[-1]["actor"] == "assistant"
    assert contacts.get("C001") is None
    assert world.sessions["ContactsApp"] == {"state": "Detail", "open_id": None}


def test_event_notifications_route_per_recipient():
    world = make_world("EmailApp")
    world.schedule_event(Event(id="e1", kind="environment", at=30,
                               app="EmailApp", tool="deliver_email",
                               args={"sender": "a", "subject": "s", "body": "b"},
                               notify="user"))
    world.resolve_due_events()
    assert world.notifications.user_inbox
    assert not world.notifications.assistant_inbox


def _pack_checkpoints():
    """Canonical checkpoints of the bundled pack: each scenario's oracle run,
    then a scripted apartment-policy episode per noise/failure cell, taken
    after turn 3 and at the end."""
    user = load_script(DATA / "scripts/apartment_user.yaml")
    assistant = load_script(DATA / "scripts/apartment_assistant.yaml")
    for path in sorted((DATA / "scenarios").glob("*.yaml")):
        scenario = load_scenario(path)
        yield canonical_json(run_oracle(scenario, seed=3).checkpoint())
        for noise_rate, failure_prob in CELLS:
            world = build_world(scenario, mode="policy", stochastic=StochasticConfig(
                noise_rate=noise_rate, failure_prob=failure_prob, seed=5))
            episode = Episode(world, ScriptedPolicy(user, NOOP_ACTION),
                              ScriptedPolicy(assistant, WAIT_ACTION),
                              max_turns=scenario.max_turns)
            while not episode.finished:
                episode.run_turn()
                if world.turn == 3:
                    yield canonical_json(world.checkpoint())
            yield canonical_json(world.checkpoint())


def test_pack_checkpoints_are_frozen():
    text = "\n".join(_pack_checkpoints()) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PACK_CHECKPOINTS_SHA256


def test_handlers_change_records_only_through_store_writes(monkeypatch):
    """With `get`, `all` and `find` returning deep copies, a handler that
    changed a record it read in place would lose the change. The frozen
    walk and the pack's checkpoints, noise cells included, still match."""
    for name in ("get", "all", "find"):
        read = getattr(Store, name)
        monkeypatch.setattr(Store, name, lambda *a, _read=read, **kw: copy.deepcopy(
            _read(*a, **kw)))
    transcript, _ = _walk(WALK_STEPS, seed=7)
    assert hashlib.sha256(transcript.encode("utf-8")).hexdigest() == WALK_SHA256
    text = "\n".join(_pack_checkpoints()) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PACK_CHECKPOINTS_SHA256


# Every module-level record shape: records and drafts are built over them.
SHAPES = (email_app.EMAIL, email_app.DRAFT_SHAPE, calendar_app.EVENT, reminder.REMINDER,
          note.NOTE, note.DRAFT_SHAPE, contacts.CONTACT)


def _shared(value):
    """A deep copy of what the runs of a loaded scenario or script share: a
    scenario's init and event arguments, or a script's steps."""
    if isinstance(value, Scenario):
        return copy.deepcopy((value.init, [event.args for event in value.events]))
    return copy.deepcopy(value)


def test_shared_inputs_stay_as_loaded(tmp_path, monkeypatch):
    """Records, drafts and logs share lists with the record shapes, the
    scenarios' init and event arguments, the distractor catalog and the
    script steps, which every world, episode and thread of a run reads. No
    list is changed in place, so after the frozen walk and a two-thread pack
    sweep each still equals a snapshot taken before."""
    loaded = []       # (the object a run shares, its snapshot)
    for name in ("load_scenario", "load_script"):
        def loading(path, _real=getattr(phonesim.cli, name)):
            value = _real(path)
            loaded.append((value, _shared(value)))
            return value
        monkeypatch.setattr(phonesim.cli, name, loading)
    shapes, catalog = copy.deepcopy(SHAPES), copy.deepcopy(load_distractor_catalog())

    transcript, _ = _walk(WALK_STEPS, seed=7)
    assert hashlib.sha256(transcript.encode("utf-8")).hexdigest() == WALK_SHA256
    assert SHAPES == shapes
    assert main(["run", "--scenarios", str(DATA / "scenarios"),
                 "--user-policy", f"scripted:{DATA / 'scripts/apartment_user.yaml'}",
                 "--assistant-policy", f"scripted:{DATA / 'scripts/apartment_assistant.yaml'}",
                 "--runs", "2", "--seed", "5", "--noise-rate", "0,2", "--failure-prob", "0,0.1",
                 "--jobs", "2", "--out", str(tmp_path / "out")]) == 0
    assert len(loaded) == 8
    assert [_shared(value) for value, _ in loaded] == [snapshot for _, snapshot in loaded]
    assert SHAPES == shapes
    assert load_distractor_catalog() == catalog == json.loads(
        DATA.joinpath("distractors.json").read_text("utf-8"))


def test_user_actions_forwarded_to_assistant_in_order():
    world = make_world("EmailApp")
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    world.invoke_user_tool("EmailApp__list_emails", {})
    view = world.compose_agent_view()
    assert len(view.user_actions) == 2
    assert view.user_actions[0].startswith("[user_action] SystemApp__open_app(")
    assert view.user_actions[1].startswith("[user_action] EmailApp__list_emails(")
    # drained: a second compose sees nothing new
    assert world.compose_agent_view().user_actions == ()


# -- the event path does its payload work once per payload

NOISY = {
    "schema_version": 1, "id": "noisy", "apps": ["EmailApp", "MessagingApp"],
    "start_time": "2025-05-12 08", "max_turns": 200, "tick_seconds": 60,
    "init": {"MessagingApp": {"conversations": [
        {"title": "Sam", "participants": ["sam", "user"], "messages": []}]}},
    "validation": [{"kind": "action_forbidden", "tool": "EmailApp__send_email"}],
}
NOISE = StochasticConfig(noise_rate=20, failure_prob=0.1, seed=9)


def _noisy_episode():
    """A read-only 200-turn episode under 20 noise events a minute, in the
    style of the benchmark's long_noisy workload."""
    user = [{"action": "SystemApp__open_app", "action_input": {"app_name": "EmailApp"}},
            {"action": "EmailApp__list_emails", "action_input": {"offset": 30, "limit": 10}},
            {"action": "EmailApp__search_emails", "action_input": {"query": "sale"}},
            {"action": "SystemApp__go_home"}] * 50
    assistant = [{"action": "EmailApp__list_emails", "action_input": {"folder": "inbox"}},
                 {"action": "AgentUserInterface__wait"},
                 {"action": "EmailApp__search_emails", "action_input": {"query": "miles"}},
                 {"action": "AgentUserInterface__wait"},
                 {"action": "MessagingApp__list_conversations"},
                 {"action": "AgentUserInterface__wait"}] * 67
    world = build_world(parse_scenario(NOISY), stochastic=NOISE)
    episode = Episode(world, ScriptedPolicy(user, NOOP_ACTION),
                      ScriptedPolicy(assistant, WAIT_ACTION), max_turns=NOISY["max_turns"])
    episode.run()
    return episode


def test_noisy_episode_observations_are_frozen():
    episode = _noisy_episode()
    text = "\n".join(step["observation"] for step in episode.steps) + "\n"
    assert len(episode.world.db.store("EmailApp", "emails")) > 1000
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NOISY_STEPS_SHA256


def test_noisy_episode_does_event_work_once_per_payload_and_never_sorts(monkeypatch):
    rendered, digested, sorts = [], [], []
    real_render, real_digest = render_event_notification, digest

    def render(event):
        rendered.append(id(event.args))
        return real_render(event)

    def digest_args(obj):
        digested.append(id(obj))
        return real_digest(obj)

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(phonesim.world, "render_event_notification", render)
    monkeypatch.setattr(phonesim.world, "digest", digest_args)
    monkeypatch.setattr(phonesim.database, "sorted", counting_sorted, raising=False)
    world = _noisy_episode().world
    assert len(world.event_log) > 3000
    assert len(world.db.store("EmailApp", "emails")) > 1000
    assert len(rendered) == len(set(rendered)) <= 20
    assert len(digested) == len(set(digested)) <= 20
    assert sorts == []


def test_noisy_episode_leaves_the_distractor_catalog_as_loaded():
    _noisy_episode()
    fresh = json.loads(DATA.joinpath("distractors.json").read_text("utf-8"))
    assert load_distractor_catalog() == fresh


def test_memoised_events_log_and_notify_as_rendered_per_event():
    world = make_world("EmailApp", "MessagingApp")
    events = sample_noise_events(NOISE, 1800, {"EmailApp", "MessagingApp"})
    mail = {"sender": "a", "subject": "s", "body": "b"}
    events += [Event(id=f"mail-{notify}", kind="environment", at=600, app="EmailApp",
                     tool="deliver_email", args=mail, notify=notify)
               for notify in ("user", "assistant", "none", "both")]
    for event in events:
        world.schedule_event(event)
    resolved = []
    for _ in range(30):
        resolved += world.resolve_due_events()
    assert len(resolved) > 500
    notes = [render_event_notification(event) for event in resolved]
    assert world.notifications.user_inbox == [
        note.user_rendering for note, event in zip(notes, resolved)
        if event.notify in ("user", "both")]
    assert world.notifications.assistant_inbox == [
        note.assistant_rendering for note, event in zip(notes, resolved)
        if event.notify in ("assistant", "both")]
    assert [entry["args_digest"] for entry in world.event_log] == [
        digest(event.args) for event in resolved]


def test_event_lookup_failures_raise_on_every_delivery():
    world = make_world("EmailApp")
    good = {"sender": "a", "subject": "s", "body": "b"}
    bad = {"sender": "a", "subject": 5, "body": "b"}
    world.schedule_event(Event(id="good", kind="environment", at=30,
                               app="EmailApp", tool="deliver_email", args=good))
    world.resolve_due_events()
    for i, at in enumerate((90, 150)):
        world.schedule_event(Event(id=f"bad{i}", kind="environment", at=at,
                                   app="EmailApp", tool="deliver_email", args=bad))
        with pytest.raises(ArgumentInvalid):
            world.resolve_due_events()
        world.schedule_event(Event(id=f"missing{i}", kind="environment", at=at + 60,
                                   app="EmailApp", tool="no_such_tool", args=good))
        with pytest.raises(PayloadToolMissing):
            world.resolve_due_events()
    assert [entry["id"] for entry in world.event_log] == ["good"]
    assert len(world.db.store("EmailApp", "emails")) == 1


# -- worlds built from one scenario share its payload memo

def _short_noisy_world(scenario, seed):
    """A world of `scenario` under noise, its events resolved turn by turn."""
    world = build_world(scenario, stochastic=StochasticConfig(noise_rate=20, seed=seed))
    for _ in range(20):
        world.turn += 1
        world.resolve_due_events()
    return world


def test_worlds_of_one_scenario_share_its_payload_memo():
    """Two worlds built from one scenario fill and read the scenario's memo,
    and log and checkpoint as a world with a fresh memo does."""
    scenario = parse_scenario(NOISY)
    shared = [_short_noisy_world(scenario, seed) for seed in (1, 2)]
    assert all(world._payloads is scenario.payloads for world in shared)
    assert 0 < len(scenario.payloads) <= 20
    for world, seed in zip(shared, (1, 2)):
        fresh = _short_noisy_world(dataclasses.replace(scenario, payloads={}), seed)
        assert fresh._payloads is not scenario.payloads
        assert len(world.event_log) > 300
        assert world.event_log == fresh.event_log
        assert world.checkpoint() == fresh.checkpoint()
    assert shared[0].event_log != shared[1].event_log
    # A world built directly owns its memo; the memo is not world state.
    assert make_world()._payloads == {}
    assert not any("payload" in key for key in shared[0].checkpoint())


def test_a_payload_that_fails_its_check_raises_in_every_world_of_a_scenario():
    scenario = parse_scenario(NOISY)
    bad = {"sender": "a", "subject": 5, "body": "b"}
    for _ in range(2):
        world = build_world(scenario)
        world.schedule_event(Event(id="bad", kind="environment", at=30,
                                   app="EmailApp", tool="deliver_email", args=bad))
        with pytest.raises(ArgumentInvalid):
            world.resolve_due_events()
        assert world.event_log == []
        assert not any(key[3] == id(bad) for key in scenario.payloads)
