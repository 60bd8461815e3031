"""Acceptance gate: one test per criterion, named in order.

Independent oracles (hand-computed values, brute-force recomputations) are
frozen inline; nothing here is derived from the implementation under test.
"""

import json
import math
import os
import random
import time
from importlib import resources
from pathlib import Path

import pytest

from phonesim import (
    StochasticConfig,
    World,
    canonical_json,
    load_scenario,
    run_episode,
    run_oracle,
    success_metrics,
    validate_state_machine,
)
from phonesim.apps import BUILDERS, build_app
from phonesim.database import plain_copy
from phonesim.errors import NoProposals, PhonesimError
from phonesim.events import Event
from phonesim.metrics import acceptance_rate, proposal_rate
from phonesim.policies import NOOP_ACTION, WAIT_ACTION, ScriptedPolicy, load_script
from phonesim.react import format_step
from phonesim.runner import build_world, evaluate_success
from phonesim.stochastic import maybe_fail_tool, noise_arrival_times
from phonesim.turnloop import Episode
from phonesim.world import AGENT_UI, SYSTEM_APP

DATA = Path(str(resources.files("phonesim").joinpath("data")))

# Frozen expected screen sets for the nine domain apps.
EXPECTED_STATES = {
    "CabApp": {"Home", "Options", "Quote", "Ride"},
    "NoteApp": {"Folders", "List", "Detail", "Edit"},
    "EmailApp": {"Mailbox", "Detail", "Compose"},
    "CalendarApp": {"Agenda", "Detail", "Edit"},
    "ContactsApp": {"List", "Detail", "Edit"},
    "ReminderApp": {"List", "Detail", "Edit"},
    "ShoppingApp": {"Home", "Product", "Variant", "Cart", "Orders", "OrderDetail"},
    "MessagingApp": {"List", "Opened"},
    "ApartmentApp": {"Home", "Search", "Saved", "Detail"},
}


def test_criterion_01_fsm_conformance_and_gate_fuzz():
    started = time.monotonic()
    assert set(BUILDERS) == set(EXPECTED_STATES)
    for app_id, expected in EXPECTED_STATES.items():
        machine = build_app(app_id)
        assert set(machine.states) == expected, app_id
        report = validate_state_machine(machine)
        assert report["valid"] and report["unreachable"] == [], app_id
    for app_id in EXPECTED_STATES:
        machine = build_app(app_id)
        table = {(t.state, t.tool.name) for t in machine.transitions}
        tools = sorted({t.tool.name for t in machine.transitions})
        rng = random.Random(f"fuzz:{app_id}")
        world = None
        for trial in range(10_000):
            if trial % 1000 == 0:
                world = World("2025-06-01 09")
                world.register_app(build_app(app_id))
                world.nav.foreground = app_id
            state = rng.choice(machine.states)
            tool = rng.choice(tools)
            world.sessions[app_id]["state"] = state
            try:
                world.invoke_user_tool(f"{app_id}__{tool}", {})
                accepted = True
            except PhonesimError as exc:
                # Only the availability gate counts as a refusal; argument
                # and guard errors mean the gate already accepted the pair.
                accepted = type(exc).__name__ not in (
                    "ToolNotAvailableInState", "UnknownState")
            if accepted:
                assert (state, tool) in table, (app_id, state, tool)
    assert time.monotonic() - started < 30


# ---------------------------------------------------------------------------

def _world_with(app_id, seed_stores=None):
    world = World("2025-06-01 09")
    world.register_app(build_app(app_id))
    for (store_app, store_name), records in (seed_stores or {}).items():
        for record in records:
            world.db.store(store_app, store_name).add(plain_copy(record))
    return world


def _user_path(world, app_id, calls):
    world.invoke_user_tool(f"{SYSTEM_APP}__open_app", {"app_name": app_id})
    for tool, args in calls:
        world.invoke_user_tool(f"{app_id}__{tool}", args)


def _email(folder="inbox"):
    return {"id": "E001", "folder": folder, "sender": "kim@x.example",
            "recipients": ["user"], "cc": [], "subject": "Lease", "body": "sign it",
            "attachments": [], "timestamp": "2025-06-01 08:00", "read": True}


EVENT = {"id": "CE001", "title": "standup", "start": "2025-06-02 09:00",
         "end": "2025-06-02 09:15", "tag": "work", "description": "", "location": "",
         "attendees": ["ana"]}
REMINDER = {"id": "R001", "title": "rent", "description": "", "due": "2025-06-03 09:00",
            "repetition": "none"}
NOTE = {"id": "N001", "title": "ideas", "content": "draft", "folder": "Notes",
        "attachments": []}
CONTACT = {"id": "C001", "name": "Ana", "email": "ana@x.example", "phone": "",
           "notes": ""}
LISTING = {"id": "A001", "name": "Canal House", "location": "Downtown", "rent": 1850,
           "bedrooms": 1}

# One entry per flat-API write: (app, seeded stores, screen path, API calls).
# Both sides start from the same seed and must leave the same database.
# Seeded emails are already read, because the screen's open_email marks an
# email read and the API's move_email does not.
EQUIVALENCE_FLOWS = [
    ("EmailApp", {},
     [("start_compose", {}), ("set_recipients", {"recipients": ["pat@x.example"]}),
      ("set_subject", {"subject": "hello"}), ("set_body", {"body": "see you"}),
      ("send_composed_email", {})],
     [("send_email", {"recipients": ["pat@x.example"], "subject": "hello",
                      "body": "see you"})]),
    ("EmailApp", {},
     [("start_compose", {}), ("set_recipients", {"recipients": ["pat@x.example"]}),
      ("set_cc", {"cc": ["lee@x.example"]}), ("set_subject", {"subject": "hello"}),
      ("set_body", {"body": "see you"}), ("send_composed_email", {})],
     [("send_email", {"recipients": ["pat@x.example"], "subject": "hello",
                      "body": "see you", "cc": ["lee@x.example"]})]),
    ("EmailApp", {("EmailApp", "emails"): [_email()]},
     [("open_email", {"email_id": "E001"}), ("move_email", {"folder": "archive"})],
     [("move_email", {"email_id": "E001", "folder": "archive"})]),
    ("EmailApp", {("EmailApp", "emails"): [_email()]},
     [("open_email", {"email_id": "E001"}), ("delete_email", {})],
     [("delete_email", {"email_id": "E001"})]),
    ("MessagingApp",
     {("MessagingApp", "conversations"): [
         {"id": "CV001", "title": "Sam", "participants": ["user", "Sam"],
          "messages": []}]},
     [("open_conversation", {"conversation_id": "CV001"}),
      ("send_message", {"message": "on my way"})],
     [("send_message", {"conversation_id": "CV001", "message": "on my way"})]),
    ("CalendarApp", {},
     [("start_create_event", {}), ("set_title", {"title": "dentist"}),
      ("set_time_range", {"start": "2025-06-02 10:00", "end": "2025-06-02 11:00"}),
      ("save", {})],
     [("add_event", {"title": "dentist", "start": "2025-06-02 10:00",
                     "end": "2025-06-02 11:00"})]),
    ("CalendarApp", {},
     [("start_create_event", {}), ("set_title", {"title": "offsite"}),
      ("set_time_range", {"start": "2025-06-04 10:00", "end": "2025-06-04 16:00"}),
      ("set_tag", {"tag": "work"}), ("set_description", {"description": "planning"}),
      ("set_location", {"location": "Harbor Hall"}),
      ("set_attendees", {"attendees": ["ana", "bo"]}), ("save", {})],
     [("add_event", {"title": "offsite", "start": "2025-06-04 10:00",
                     "end": "2025-06-04 16:00", "tag": "work", "description": "planning",
                     "location": "Harbor Hall", "attendees": ["ana", "bo"]})]),
    ("CalendarApp", {("CalendarApp", "events"): [EVENT]},
     [("open_event", {"event_id": "CE001"}), ("delete_event", {})],
     [("delete_event", {"event_id": "CE001"})]),
    ("ReminderApp", {},
     [("create_new", {}), ("set_title", {"title": "pay rent"}),
      ("set_description", {"description": "landlord"}),
      ("set_due_datetime", {"due": "2025-06-03 09:00"}),
      ("set_repetition", {"repetition": "monthly"}), ("save", {})],
     [("create_reminder", {"title": "pay rent", "description": "landlord",
                           "due": "2025-06-03 09:00", "repetition": "monthly"})]),
    ("ReminderApp", {("ReminderApp", "reminders"): [REMINDER]},
     [("open_reminder", {"reminder_id": "R001"}), ("edit", {}),
      ("set_title", {"title": "pay rent"}), ("set_due_datetime", {"due": "2025-06-04 09:00"}),
      ("save", {})],
     [("update_reminder", {"reminder_id": "R001", "title": "pay rent",
                           "due": "2025-06-04 09:00"})]),
    ("ReminderApp", {("ReminderApp", "reminders"): [REMINDER]},
     [("open_reminder", {"reminder_id": "R001"}), ("delete", {})],
     [("delete_reminder", {"reminder_id": "R001"})]),
    ("NoteApp", {},
     [("list_folders", {}), ("open_folder", {"folder": "Work"}), ("new_note", {}),
      ("set_title", {"title": "agenda"}), ("set_content", {"content": "budget"}),
      ("update_note", {})],
     [("create_note", {"title": "agenda", "content": "budget", "folder": "Work"})]),
    ("NoteApp", {("NoteApp", "notes"): [NOTE]},
     [("open_note", {"note_id": "N001"}), ("edit_note", {}),
      ("set_title", {"title": "plans"}), ("set_content", {"content": "final"}),
      ("update_note", {}), ("move_note", {"folder": "Work"})],
     [("update_note", {"note_id": "N001", "title": "plans", "content": "final",
                       "folder": "Work"})]),
    ("NoteApp", {("NoteApp", "notes"): [NOTE]},
     [("open_note", {"note_id": "N001"}), ("delete_note", {})],
     [("delete_note", {"note_id": "N001"})]),
    ("ContactsApp", {},
     [("create_contact", {"name": "Bo", "email": "bo@x.example", "phone": "555",
                          "notes": "neighbor"})],
     [("create_contact", {"name": "Bo", "email": "bo@x.example", "phone": "555",
                          "notes": "neighbor"})]),
    ("ContactsApp", {("ContactsApp", "contacts"): [CONTACT]},
     [("open_contact", {"contact_id": "C001"}), ("start_edit_contact", {}),
      ("update_contact", {"phone": "555-0101", "notes": "landlord"})],
     [("update_contact", {"contact_id": "C001", "phone": "555-0101",
                          "notes": "landlord"})]),
    ("ContactsApp", {("ContactsApp", "contacts"): [CONTACT]},
     [("open_contact", {"contact_id": "C001"}), ("delete_contact", {})],
     [("delete_contact", {"contact_id": "C001"})]),
    ("CabApp", {},
     [("list_rides", {}),
      ("get_quotation", {"pickup": "Home", "destination": "Airport", "service": "premium"}),
      ("order_ride", {})],
     [("order_ride", {"pickup": "Home", "destination": "Airport", "service": "premium"})]),
    ("CabApp",
     {("CabApp", "rides"): [
         {"id": "RD001", "status": "active", "pickup": "Home", "destination": "Airport",
          "service": "standard", "price": 1200, "timestamp": "2025-06-01 08:50"}]},
     [("open_current_ride", {}), ("cancel_ride", {})],
     [("cancel_ride", {"ride_id": "RD001"})]),
    ("ShoppingApp",
     {("ShoppingApp", "products"): [
         {"id": "P001", "name": "Shoes", "price": 8900,
          "variants": [{"id": "V001", "name": "size 9", "price": 8900}]}]},
     [("view_product", {"product_id": "P001"}),
      ("view_variant", {"variant_id": "V001"}), ("add_to_cart", {}),
      ("checkout", {})],
     [("add_to_cart", {"variant_id": "V001"}), ("checkout", {})]),
    ("ShoppingApp",
     {("ShoppingApp", "cart"): [
         {"id": "CI001", "variant_id": "V001", "product_id": "P001",
          "name": "Shoes (size 9)", "price": 8900, "quantity": 2}]},
     [("view_cart", {}), ("remove_item", {"item_id": "CI001"})],
     [("remove_from_cart", {"item_id": "CI001"})]),
    ("ApartmentApp", {("ApartmentApp", "apartments"): [LISTING]},
     [("view_apartment", {"apartment_id": "A001"}), ("save", {})],
     [("save_apartment", {"apartment_id": "A001"})]),
    ("ApartmentApp",
     {("ApartmentApp", "apartments"): [LISTING], ("ApartmentApp", "saved"): [LISTING]},
     [("view_apartment", {"apartment_id": "A001"}), ("unsave", {})],
     [("unsave_apartment", {"apartment_id": "A001"})]),
]


def test_criterion_02_path_api_equivalence():
    covered = set()
    for app_id, seed, fsm_calls, api_calls in EQUIVALENCE_FLOWS:
        a = _world_with(app_id, seed)
        b = _world_with(app_id, seed)
        b.assistant_mode = "execute"
        before = a.db_digest()
        _user_path(a, app_id, fsm_calls)
        for tool, args in api_calls:
            b.invoke_agent_tool(f"{app_id}__{tool}", args)
            covered.add((app_id, tool))
        assert a.db_digest() != before, (app_id, api_calls)
        assert a.db_digest() == b.db_digest(), (app_id, api_calls)
        # A screen that deleted its open record no longer has it open.
        open_id = a.sessions[app_id].get("open_id")
        assert open_id is None or any(
            open_id in store.records for store in a.db.app_stores(app_id).values())
    # Every API tool that writes has a screen path above, so a new write
    # without one fails here.
    writes = {(app_id, api.tool.name) for app_id in BUILDERS
              for api in build_app(app_id).agent_api_tools() if not api.tool.read_only}
    assert covered == writes
    assert len(writes) == 22


# ---------------------------------------------------------------------------

class FuzzUser:
    """Deterministically picks a random currently-available no-arg user tool."""

    def __init__(self, world, seed):
        self.world = world
        self.rng = random.Random(seed)

    def act(self, view, feedback=None):
        options = []
        for name, spec in self.world.user_tool_specs():
            required = [p for p in spec.params if p.required]
            if not required:
                options.append((name, {}))
            elif name.endswith("__open_app"):
                options.append((name, {"app_name": self.rng.choice(
                    sorted(self.world.apps))}))
        name, args = self.rng.choice(sorted(options))
        return format_step(name, args)


class FuzzReader:
    """Assistant that makes random read calls, never proposing."""

    def __init__(self, world, seed):
        self.world = world
        self.rng = random.Random(seed)

    def act(self, view, feedback=None):
        options = [f"{AGENT_UI}__wait"]
        for name, spec in self.world.agent_tool_specs():
            if spec.read_only and not any(p.required for p in spec.params):
                options.append(name)
        return format_step(self.rng.choice(sorted(options)))


def test_criterion_03_observation_asymmetry_audit():
    for i in range(100):
        world = World("2025-06-01 09")
        for app in ("EmailApp", "CabApp"):
            world.register_app(build_app(app))
        world.schedule_event(Event(
            id="e1", kind="environment", at=60,
            app="EmailApp", tool="deliver_email",
            args={"sender": "a@b.example", "subject": "s", "body": "x" * 200}))
        episode = Episode(world, FuzzUser(world, i), FuzzReader(world, 1000 + i),
                          max_turns=4)
        episode.run()

        assistant_tools = {s["action"] for s in episode.steps
                           if s["actor"] == "assistant" and s["action"]}
        user_views = [v for v in episode.view_trace if v["phase"] == "user"]
        for view in user_views:
            for note in view["notifications"]:
                assert '"tool":' not in note          # no raw payloads
                for tool in assistant_tools:
                    assert tool not in note           # no assistant actions

        # every successful user action appears, in order, in the agent feed
        expected = [entry["tool"] for entry in world.tool_log
                    if entry["actor"] == "user"]
        feed = []
        for view in episode.view_trace:
            feed.extend(view.get("user_actions", []))
        feed.extend(world.notifications.user_action_feed)   # undrained tail
        feed_tools = [line.split("] ", 1)[1].split("(", 1)[0]
                      for line in feed if line.startswith("[user_action]")]
        assert feed_tools == expected, i


# ---------------------------------------------------------------------------

ALLOWED_MODE_TRANSITIONS = {
    ("observe", "observe"), ("observe", "awaiting_confirmation"),
    ("awaiting_confirmation", "awaiting_confirmation"),
    ("awaiting_confirmation", "execute"), ("awaiting_confirmation", "observe"),
    ("execute", "execute"), ("execute", "observe"),
}


class RandomProposer:
    def __init__(self, rng):
        self.rng = rng

    def act(self, view, feedback=None):
        if view.mode == "execute":
            action = self.rng.choice([
                ("EmailApp__list_emails", {}),
                (f"{AGENT_UI}__send_message_to_user", {"message": "done"}),
                (f"{AGENT_UI}__wait", {}),
            ])
        else:
            action = self.rng.choice([
                (f"{AGENT_UI}__propose_task", {"task": "tidy the inbox"}),
                (f"{AGENT_UI}__wait", {}),
                ("EmailApp__list_emails", {}),
            ])
        return format_step(action[0], action[1])


class RandomResponder:
    def __init__(self, rng):
        self.rng = rng

    def act(self, view, feedback=None):
        if view.pending_proposal and self.rng.random() < 0.6:
            return format_step(f"{AGENT_UI}__" + self.rng.choice(
                ["accept_proposal", "reject_proposal"]))
        return format_step("noop")


class InstrumentedEpisode(Episode):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.mode_pairs = []
        self.max_pending = 0

    def _observe(self, fn, *args):
        before = self.world.assistant_mode
        result = fn(*args)
        self.mode_pairs.append((before, self.world.assistant_mode))
        pending = sum(1 for p in self.world.proposals.proposals
                      if p.status == "pending")
        self.max_pending = max(self.max_pending, pending)
        return result

    def _run_user_action(self, step):
        return self._observe(super()._run_user_action, step)

    def _run_agent_action(self, step):
        return self._observe(super()._run_agent_action, step)


def test_criterion_04_proposal_lifecycle_model_check():
    for i in range(100):
        world = World("2025-06-01 09")
        world.register_app(build_app("EmailApp"))
        rng_a, rng_u = random.Random(2 * i), random.Random(2 * i + 1)
        episode = InstrumentedEpisode(world, RandomResponder(rng_u),
                                      RandomProposer(rng_a),
                                      max_turns=8)
        episode.run()
        assert episode.max_pending <= 1, i
        for pair in episode.mode_pairs:
            assert pair in ALLOWED_MODE_TRANSITIONS, (i, pair)
        # a pending proposal at the end must have been truncated
        assert all(p.status != "pending" for p in world.proposals.proposals)


# ---------------------------------------------------------------------------

def _synthetic_records(rng):
    n_scen, k = rng.randint(1, 6), 4
    records = []
    for s in range(n_scen):
        for run in range(k):
            proposals = [{"turn": t + 1,
                          "status": rng.choice(["accepted", "rejected", "truncated"]),
                          "user_actions_while_pending": rng.randint(0, 3)}
                         for t in range(rng.randint(0, 3))]
            records.append({
                "scenario_id": f"s{s}", "run_index": run, "seed": run,
                "success": rng.random() < 0.5, "proposals": proposals,
                "read_actions_observe": rng.randint(0, 5),
                "read_actions_total": rng.randint(5, 15),
                "turns_used": rng.randint(1, 10),
            })
    return records, k


def test_criterion_05_metric_oracle_equivalence():
    rel = 1e-12
    for i in range(200):
        rng = random.Random(i)
        records, k = _synthetic_records(rng)

        # brute-force recomputation from the raw logs
        props = [p for r in records for p in r["proposals"]]
        groups = {}
        for r in records:
            groups.setdefault(r["scenario_id"], []).append(bool(r["success"]))
        bf_rate = sum(s for v in groups.values() for s in v) / sum(
            len(v) for v in groups.values())
        bf_at = sum(1 for v in groups.values() if any(v)) / len(groups)
        bf_pow = sum(1 for v in groups.values() if all(v)) / len(groups)
        bf_prop = len(props) / sum(r["turns_used"] for r in records)
        bf_reads = sum(r["read_actions_total"] for r in records) / len(records)

        m = success_metrics(records, k)
        assert math.isclose(m["success_rate"], bf_rate, rel_tol=rel)
        assert math.isclose(m["success_at_k"], bf_at, rel_tol=rel)
        assert math.isclose(m["success_pow_k"], bf_pow, rel_tol=rel)
        assert math.isclose(proposal_rate(records), bf_prop, rel_tol=rel)
        from phonesim.metrics import aggregate_report
        # The synthetic records hold no grouping field: all fall in one cell.
        cell = aggregate_report(records, k)["cells"][0]
        assert math.isclose(cell["read_actions_mean"] or bf_reads, bf_reads, rel_tol=rel)
        if props:
            bf_acc = sum(1 for p in props if p["status"] == "accepted") / len(props)
            assert math.isclose(acceptance_rate(records), bf_acc, rel_tol=rel)
        else:
            with pytest.raises(NoProposals):
                acceptance_rate(records)
        assert m["success_pow_k"] <= m["success_rate"] + rel
        assert m["success_rate"] <= m["success_at_k"] + rel


def test_criterion_06_worked_success_example():
    records = [{"scenario_id": "s", "run_index": i, "seed": i, "success": v,
                "proposals": [], "read_actions_observe": 0,
                "read_actions_total": 0, "turns_used": 1}
               for i, v in enumerate([True, False, False, True])]
    m = success_metrics(records, k=4)
    assert m["success_rate"] == 0.5
    assert m["success_at_k"] == 1.0
    assert m["success_pow_k"] == 0.0


def test_criterion_07_stochastic_calibration():
    counts = [len(noise_arrival_times(StochasticConfig(noise_rate=2, seed=s),
                                      horizon=1000 * 60)) for s in range(20)]
    mean = sum(counts) / len(counts)
    assert 1950 <= mean <= 2050  # expectation is rate * horizon_minutes = 2000
    assert noise_arrival_times(StochasticConfig(noise_rate=2, seed=42), 60_000) \
        == noise_arrival_times(StochasticConfig(noise_rate=2, seed=42), 60_000)
    cfg = StochasticConfig(failure_prob=0.4, seed=42)
    hits = sum(maybe_fail_tool(cfg, i) for i in range(10_000))
    assert 0.38 <= hits / 10_000 <= 0.42
    assert hits == sum(maybe_fail_tool(StochasticConfig(failure_prob=0.4, seed=42), i)
                       for i in range(10_000))


def _scripted_apartment_run(seed, noise_rate=0.0, failure_prob=0.0):
    scenario = load_scenario(DATA / "scenarios/apartment_budget.yaml")
    world = build_world(scenario, mode="policy", stochastic=StochasticConfig(
        noise_rate=noise_rate, failure_prob=failure_prob, seed=seed))
    episode = Episode(
        world,
        ScriptedPolicy(load_script(DATA / "scripts/apartment_user.yaml"), NOOP_ACTION),
        ScriptedPolicy(load_script(DATA / "scripts/apartment_assistant.yaml"), WAIT_ACTION),
        max_turns=scenario.max_turns)
    episode.run()
    return scenario, world, episode


def test_criterion_08_determinism_and_zero_rate_noop():
    _, w1, _ = _scripted_apartment_run(seed=11)
    _, w2, _ = _scripted_apartment_run(seed=11)
    assert w1.export_event_log() == w2.export_event_log()
    assert canonical_json(w1.checkpoint()) == canonical_json(w2.checkpoint())
    # with both rates zero, the seed changes nothing
    _, w3, _ = _scripted_apartment_run(seed=99)
    assert w3.export_event_log() == w1.export_event_log()
    assert w3.db_digest() == w1.db_digest()
    # a nonzero noise rate does change the event log
    _, w4, _ = _scripted_apartment_run(seed=11, noise_rate=4)
    assert w4.export_event_log() != w1.export_event_log()


def test_criterion_09_end_to_end_apartment_exemplar():
    started = time.monotonic()
    scenario, world, _ = _scripted_apartment_run(seed=0)
    verdict = evaluate_success(world, scenario)
    assert verdict["success"] is True
    saved = world.db.store("ApartmentApp", "saved").all()
    assert saved and all(r["rent"] <= 2000 for r in saved)
    proposals = world.proposals.proposals
    assert len(proposals) == 1 and proposals[0].status == "accepted"
    oracle = run_oracle(scenario)
    assert world.db_digest() == oracle.db_digest()
    assert time.monotonic() - started < 5


@pytest.mark.skipif(not os.environ.get("PHONESIM_LLM_BASE_URL"),
                    reason="no chat-completion endpoint configured")
def test_criterion_10_live_model_smoke():
    from phonesim.llm import LLMAssistantPolicy, LLMClient, LLMConfig
    config = LLMConfig(
        base_url=os.environ["PHONESIM_LLM_BASE_URL"],
        model=os.environ.get("PHONESIM_LLM_MODEL", "gpt-4o-mini"),
        api_key_env=os.environ.get("PHONESIM_LLM_KEY_ENV", "PHONESIM_API_KEY"))
    scenario = load_scenario(DATA / "scenarios/email_reply.yaml")
    assistant = LLMAssistantPolicy(LLMClient(config),
                                   {"AVAILABLE_APPS": "EmailApp",
                                    "APP_REFERENCE": "",
                                    "TASK_DESCRIPTION": scenario.assistant_instructions})
    record = run_episode(scenario, ScriptedPolicy([], NOOP_ACTION), assistant,
                         noise_rate=0.0, failure_prob=0.0, seed=1)
    for field in ("scenario_id", "run_index", "seed", "noise_rate", "failure_prob", "success",
                  "proposals", "read_actions_observe", "read_actions_total", "turns_used"):
        assert field in record
    assert "aborted_reason" not in record
    assert json.dumps(record)
