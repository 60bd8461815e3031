import pytest

from phonesim.apps import build_app
from phonesim.errors import (
    DuplicateAppId,
    GuardFailed,
    IncompatibleSnapshot,
    PayloadToolMissing,
    ToolNotAvailableInState,
    WriteInObserveMode,
)
from phonesim.events import Event, EventSchedule
from phonesim.fsm import render_app_reference
from phonesim.stochastic import StochasticConfig
from phonesim.world import FAILURE_OBSERVATION, World


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
    world = make_world("EmailApp")
    with pytest.raises(WriteInObserveMode):
        world.invoke_agent_tool("EmailApp__send_email",
                                {"recipients": ["a"], "subject": "s", "body": "b"},
                                mode="observe")
    world.invoke_agent_tool("EmailApp__list_emails", {}, mode="observe")
    assert world.read_actions_observe == 1
    assert world.read_actions_total == 1
    world.invoke_agent_tool("EmailApp__list_emails", {}, mode="execute")
    assert world.read_actions_observe == 1
    assert world.read_actions_total == 2


def test_failed_write_handler_rolls_back_store():
    world = make_world("ShoppingApp")
    before = world.db_digest()
    with pytest.raises(GuardFailed):
        world.invoke_agent_tool("ShoppingApp__checkout", {}, mode="execute")
    assert world.db_digest() == before
    with pytest.raises(GuardFailed):
        world.invoke_agent_tool("ShoppingApp__get_order", {"order_id": "nope"},
                                mode="observe")
    assert world.db_digest() == before


def test_failure_injection_hits_assistant_calls_only():
    world = make_world("EmailApp",
                       stochastic=StochasticConfig(failure_prob=1.0, seed=1))
    out = world.invoke_agent_tool("EmailApp__list_emails", {}, mode="observe")
    assert out == FAILURE_OBSERVATION
    assert world.read_actions_total == 0       # failed call does not count
    # user tools and events are exempt from injection
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    assert world.invoke_user_tool("EmailApp__list_emails", {})
    world.schedule_event(Event(id="e1", kind="environment",
                               schedule=EventSchedule.absolute(30),
                               app="EmailApp", tool="deliver_email",
                               args={"sender": "a", "subject": "s", "body": "b"}))
    world.resolve_due_events()
    assert len(world.db.store("EmailApp", "emails")) == 1


def test_environment_only_tools_closed_to_assistant_open_to_events():
    world = make_world("EmailApp", "MessagingApp")
    incoming = {
        "EmailApp__deliver_email": {"sender": "a", "subject": "s", "body": "b"},
        "MessagingApp__receive_message": {"sender": "Sam", "message": "hi"},
    }
    offered = {name for name, _ in world.agent_tool_specs()}
    reference = render_app_reference(list(world.apps.values()))
    for qualified, args in incoming.items():
        assert qualified not in offered
        assert qualified not in reference
        with pytest.raises(ToolNotAvailableInState):
            world.invoke_agent_tool(qualified, args, mode="execute")
    assert world.tool_log == [] and world.invocation_counter == 0

    for i, (qualified, args) in enumerate(incoming.items()):
        app, _, tool = qualified.partition("__")
        world.schedule_event(Event(id=f"e{i}", kind="environment",
                                   schedule=EventSchedule.absolute(30),
                                   app=app, tool=tool, args=args))
    world.resolve_due_events()
    assert len(world.db.store("EmailApp", "emails")) == 1
    assert len(world.db.store("MessagingApp", "conversations")) == 1
    assert [e["tool"] for e in world.tool_log] == list(incoming)
    assert {e["actor"] for e in world.tool_log} == {"environment"}


def test_event_with_unknown_tool_raises_payload_missing():
    world = make_world("EmailApp")
    world.schedule_event(Event(id="e1", kind="environment",
                               schedule=EventSchedule.absolute(30),
                               app="EmailApp", tool="no_such_tool", args={}))
    with pytest.raises(PayloadToolMissing):
        world.resolve_due_events()


def test_event_notifications_route_per_recipient():
    world = make_world("EmailApp")
    world.schedule_event(Event(id="e1", kind="environment",
                               schedule=EventSchedule.absolute(30),
                               app="EmailApp", tool="deliver_email",
                               args={"sender": "a", "subject": "s", "body": "b"},
                               notify="user"))
    world.resolve_due_events()
    assert world.notifications.user_inbox
    assert not world.notifications.assistant_inbox


def test_checkpoint_restore_roundtrip_and_compat_guard():
    world = make_world("EmailApp")
    world.invoke_user_tool("SystemApp__open_app", {"app_name": "EmailApp"})
    world.invoke_agent_tool("EmailApp__send_email",
                            {"recipients": ["a"], "subject": "s", "body": "b"},
                            mode="execute")
    snap = world.checkpoint()
    world.invoke_agent_tool("EmailApp__delete_email", {"email_id": "E001"},
                            mode="execute")
    world.restore(snap)
    assert world.checkpoint() == snap

    other = make_world("CabApp")
    with pytest.raises(IncompatibleSnapshot):
        other.restore(snap)
    bad = dict(snap, version=999)
    with pytest.raises(IncompatibleSnapshot):
        world.restore(bad)


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
