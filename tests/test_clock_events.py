import pytest

from phonesim.clock import SimClock, parse_start_time
from phonesim.database import canonical_json, digest
from phonesim.errors import SchemaError
from phonesim.events import Event, EventQueue
from phonesim.scenario import parse_scenario


def make_event(eid, at):
    return Event(id=eid, kind="environment", at=at,
                 app="EmailApp", tool="deliver_email", args={})


def test_clock_renders_minutes():
    clock = SimClock(parse_start_time("2025-06-01 09"))
    assert clock.render() == "2025-06-01 09:00"
    clock.advance()
    assert clock.now == 60
    assert clock.render() == "2025-06-01 09:01"


def test_clock_render_follows_now_and_stays_out_of_state():
    clock = SimClock(parse_start_time("2025-06-01 09"), tick=90)
    fresh = SimClock(parse_start_time("2025-06-01 09"), tick=90)
    assert clock.render() == clock.render() == "2025-06-01 09:00"
    clock.advance()
    assert clock.render() == "2025-06-01 09:01"
    clock.advance()
    assert clock.render() == "2025-06-01 09:03"
    clock.now = 86_400.0
    assert clock.render() == "2025-06-02 09:00"
    clock.now = 0.0
    assert clock.render() == "2025-06-01 09:00"
    # The rendered text is no part of the clock's state.
    assert clock == fresh and repr(clock) == repr(fresh)
    assert clock.to_dict() == fresh.to_dict() == {
        "start_time": "2025-06-01 09", "tick": 90, "now": 0.0}


def test_same_time_events_deliver_fifo():
    q = EventQueue()
    for eid in ("first", "second", "third"):
        q.schedule(make_event(eid, 60.0))
    popped = [event.id for _, event in q.pop_due(60)]
    assert popped == ["first", "second", "third"]


def test_pop_due_leaves_future_events():
    q = EventQueue()
    q.schedule(make_event("now", 60.0))
    q.schedule(make_event("later", 61.0))
    assert [e.id for _, e in q.pop_due(60)] == ["now"]
    assert len(q) == 1


def test_unknown_anchor_rejected():
    # Anchors resolve at load, in file order: an anchor that names a later
    # event, or no event at all, has no known time yet and is refused.
    def deliver(eid, **schedule):
        return {"id": eid, "kind": "environment", "app": "EmailApp",
                "tool": "deliver_email",
                "args": {"sender": "a", "subject": "s", "body": "b"}, **schedule}

    for anchor in ("later", "ghost"):
        doc = {"schema_version": 1, "id": "t", "apps": ["EmailApp"],
               "start_time": "2025-01-01 08",
               "events": [deliver("early", after={"anchor": anchor, "offset": 10}),
                          deliver("later", at=60)],
               "validation": []}
        with pytest.raises(SchemaError, match=r"events\[0\]\.after\.anchor"):
            parse_scenario(doc)


def test_queue_snapshot_roundtrip():
    """A queue's snapshot lists the pending events in delivery order, and the
    same schedule gives the same bytes."""
    def scheduled():
        q = EventQueue()
        for eid, at in (("b", 180.0), ("a", 60.0), ("a2", 60.0)):
            q.schedule(make_event(eid, at))
        return q

    q = scheduled()
    snapshot = q.to_dict()
    assert [(item["seq"], item["event"]["id"]) for item in snapshot["pending"]] == [
        (1, "a"), (2, "a2"), (0, "b")]
    assert canonical_json(snapshot) == canonical_json(scheduled().to_dict())
    assert digest(snapshot) == digest(scheduled().to_dict())
    assert [(t, e.id) for t, e in q.pop_due(300)] == [(60.0, "a"), (60.0, "a2"), (180.0, "b")]
    assert q.to_dict() == {"pending": [], "seq": 3}


def test_events_are_immutable_and_snapshot_every_field_in_order():
    event = Event("n1", "noise", 60.0, "EmailApp", "deliver_email", {"subject": "s"})
    assert event == Event(id="n1", kind="noise", at=60.0, app="EmailApp",
                          tool="deliver_email", args={"subject": "s"}, notify="both")
    with pytest.raises(AttributeError):
        event.at = 0.0
    q = EventQueue()
    q.schedule(event)
    [item] = q.to_dict()["pending"]
    assert list(item["event"].items()) == [
        ("id", "n1"), ("kind", "noise"), ("at", 60.0), ("app", "EmailApp"),
        ("tool", "deliver_email"), ("args", {"subject": "s"}), ("notify", "both")]
