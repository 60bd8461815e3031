import pytest

from phonesim.errors import NavigationNotAvailable, NoPendingProposal, ProposalAlreadyPending
from phonesim.events import Event
from phonesim.interfaces import (
    BODY_TRUNCATION,
    TRUNCATION_BUDGET,
    NavigationState,
    ProposalLog,
    navigate,
    render_event_notification,
    serialize_user_action,
)


def make_event(args, app="EmailApp"):
    return Event(id="e1", kind="environment", at=60,
                 app=app, tool="deliver_email", args=args)


# ---------------------------------------------------------------- navigation

def test_open_app_only_from_home():
    nav = NavigationState()
    navigate(nav, "open_app", "EmailApp")
    assert nav.foreground == "EmailApp"
    with pytest.raises(NavigationNotAvailable):
        navigate(nav, "open_app", "CabApp")


def test_go_home_pushes_background_and_requires_foreground_app():
    nav = NavigationState(foreground="EmailApp")
    navigate(nav, "go_home")
    assert nav.foreground == "HOME"
    assert nav.background_stack == ["EmailApp"]
    with pytest.raises(NavigationNotAvailable):
        navigate(nav, "go_home")


def test_switch_requires_background_presence():
    nav = NavigationState(foreground="CabApp", background_stack=["EmailApp"])
    navigate(nav, "switch_app", "EmailApp")
    assert nav.foreground == "EmailApp"
    assert nav.background_stack == ["CabApp"]
    with pytest.raises(NavigationNotAvailable):
        navigate(nav, "switch_app", "NoteApp")
    with pytest.raises(NavigationNotAvailable):
        navigate(nav, "switch_app", "HOME")


# ------------------------------------------------------------- notifications

def test_banner_keeps_header_verbatim_and_truncates_body():
    long_body = "x" * 500
    note = render_event_notification(make_event(
        {"sender": "a@b.example", "subject": "hello", "body": long_body}))
    assert "a@b.example" in note.user_rendering
    assert "hello" in note.user_rendering
    assert len(note.user_rendering) <= TRUNCATION_BUDGET
    assert "x" * (BODY_TRUNCATION + 1) not in note.user_rendering
    # the assistant rendering round-trips the full payload
    import json
    payload = json.loads(note.assistant_rendering)
    assert payload["args"]["body"] == long_body


def test_short_banner_not_padded_or_cut():
    note = render_event_notification(make_event({"sender": "a", "body": "hi"}))
    assert note.user_rendering == "[EmailApp] | sender: a | hi"


def test_user_action_line_format():
    line = serialize_user_action("EmailApp__open_email", {"email_id": "E001"}, "opened")
    assert line == '[user_action] EmailApp__open_email({"email_id": "E001"}) -> opened'


# ----------------------------------------------------------------- proposals

def test_single_pending_proposal_enforced():
    log = ProposalLog()
    log.post("do a thing", turn=1)
    with pytest.raises(ProposalAlreadyPending):
        log.post("another thing", turn=1)
    log.respond("accepted", turn=2)
    log.post("next", turn=3)


def test_respond_without_pending_raises():
    with pytest.raises(NoPendingProposal):
        ProposalLog().respond("accepted", turn=1)


def test_interim_user_actions_counted_and_truncation_finalizes():
    log = ProposalLog()
    log.post("task", turn=1)
    log.note_user_action()
    log.note_user_action()
    log.finalize(turn=5)
    p = log.proposals[0]
    assert p.status == "truncated"
    assert p.user_actions_while_pending == 2
    assert p.resolved_turn == 5
    log.note_user_action()  # nothing pending: no effect
    assert p.user_actions_while_pending == 2
