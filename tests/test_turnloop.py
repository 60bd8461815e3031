import hashlib
import json
from importlib import resources
from pathlib import Path

import phonesim.cli
import phonesim.policies
from phonesim.apps import build_app
from phonesim.policies import NOOP_ACTION, WAIT_ACTION, NoopPolicy, ScriptedPolicy, load_script
from phonesim.react import format_step
from phonesim.runner import build_world
from phonesim.scenario import load_scenario
from phonesim.stochastic import StochasticConfig, run_seed
from phonesim.turnloop import Episode
from phonesim.world import World

DATA = Path(str(resources.files("phonesim").joinpath("data")))


def make_world():
    world = World("2025-06-01 09")
    world.register_app(build_app("EmailApp"))
    return world


def run(user_steps, assistant_steps, max_turns=5, world=None):
    world = world or make_world()
    episode = Episode(world,
                      ScriptedPolicy(user_steps, NOOP_ACTION),
                      ScriptedPolicy(assistant_steps, WAIT_ACTION),
                      max_turns=max_turns)
    episode.run()
    return world, episode


PROPOSE = {"action": "AgentUserInterface__propose_task",
           "action_input": {"task": "archive the newsletter"}}


def test_accept_switches_to_execute_and_report_returns_to_observe():
    user = [{"action": "AgentUserInterface__accept_proposal", "when": "proposal_pending"}]
    assistant = [
        PROPOSE,
        {"action": "EmailApp__list_emails", "when": "mode:execute"},
        {"action": "AgentUserInterface__send_message_to_user",
         "action_input": {"message": "done"}, "when": "mode:execute"},
    ]
    world, episode = run(user, assistant)
    assert [p.status for p in world.proposals.proposals] == ["accepted"]
    assert world.assistant_mode == "observe"
    assert world.active_task is None
    assert episode.rewards == [{"turn": 2, "reward": 1, "reason": "proposal accepted"}]


def test_reject_returns_to_observe_without_execution():
    user = [{"action": "AgentUserInterface__reject_proposal", "when": "proposal_pending"}]
    world, episode = run(user, [PROPOSE])
    assert [p.status for p in world.proposals.proposals] == ["rejected"]
    assert world.assistant_mode == "observe"
    assert episode.rewards[0]["reward"] == -1


def test_assistant_idles_while_proposal_pending():
    # user never responds: the assistant phase is skipped while awaiting
    world, episode = run([], [PROPOSE, {"action": "EmailApp__list_emails"}],
                         max_turns=4)
    assert world.proposals.proposals[0].status == "truncated"
    agent_actions = [s["action"] for s in episode.steps if s["actor"] == "assistant"]
    assert agent_actions == ["AgentUserInterface__propose_task"]


def test_user_actions_while_pending_are_counted():
    user = [
        {"action": "SystemApp__open_app", "action_input": {"app_name": "EmailApp"},
         "when": "proposal_pending"},
        {"action": "EmailApp__list_emails", "when": "proposal_pending"},
        {"action": "AgentUserInterface__accept_proposal", "when": "proposal_pending"},
    ]
    assistant = [PROPOSE,
                 {"action": "AgentUserInterface__send_message_to_user",
                  "action_input": {"message": "ok"}, "when": "mode:execute"}]
    world, _ = run(user, assistant)
    proposal = world.proposals.proposals[0]
    assert proposal.status == "accepted"
    assert proposal.user_actions_while_pending == 2


def test_execute_budget_exhaustion_returns_to_observe():
    user = [{"action": "AgentUserInterface__accept_proposal", "when": "proposal_pending"}]
    assistant = [PROPOSE] + [
        {"action": "EmailApp__list_emails", "when": "mode:execute"}
        for _ in range(12)
    ]
    world, _ = run(user, assistant, max_turns=3)
    assert world.assistant_mode == "observe"
    assert world.active_task is None
    # exactly the execute budget was spent on reads
    assert world.read_actions_total == 10


def test_observe_budget_caps_iterations_per_turn():
    assistant = [{"action": "EmailApp__list_emails"} for _ in range(20)]
    world, episode = run([], assistant, max_turns=2)
    reads_turn1 = [s for s in episode.steps
                   if s["actor"] == "assistant" and s["turn"] == 1]
    assert len(reads_turn1) == 5


def test_malformed_assistant_output_consumes_retries_then_skips():
    class Garbage:
        def act(self, view, feedback=None):
            return "this is not a step"
    world = make_world()
    episode = Episode(world, NoopPolicy("noop"), Garbage(), max_turns=1)
    episode.run()
    errors = [s for s in episode.steps if s["phase"] == "parse-error"]
    assert len(errors) == 3 * 5  # (1 try + 2 retries) per observe iteration
    assert world.assistant_mode == "observe"


def test_completion_event_ends_episode_early():
    from phonesim.events import Event
    world = make_world()
    world.schedule_event(Event(id="end", kind="completion", at=120,
                               app="", tool="", args={}))
    episode = Episode(world, NoopPolicy("noop"), NoopPolicy(WAIT_ACTION),
                      max_turns=10)
    episode.run()
    assert world.completed
    assert world.turn == 2


# ---------------------------------------------------------------------------
# Frozen transcripts: what each actor did and saw, and the rewards, for the
# bundled pack under the apartment scripts and for two crafted episodes that
# reach every interface observation. A refactor of the turn loop or of the
# proposal lifecycle must leave the sha256 unchanged.

TRANSCRIPT_CELLS = ((0.0, 0.0), (0.0, 0.1), (2.0, 0.0), (2.0, 0.1))
TRANSCRIPTS_SHA256 = "15bddcc227fa7308cf6ccca2060e0eb46973bc01082bd05f0e3d7625c4ffffd4"


def _transcript(episode):
    return json.dumps({"steps": episode.steps, "view_trace": episode.view_trace,
                       "rewards": episode.rewards}, sort_keys=True)


def _pack_transcripts():
    user = load_script(DATA / "scripts/apartment_user.yaml")
    assistant = load_script(DATA / "scripts/apartment_assistant.yaml")
    for path in sorted((DATA / "scenarios").glob("*.yaml")):
        scenario = load_scenario(path)
        for noise_rate, failure_prob in TRANSCRIPT_CELLS:
            world = build_world(scenario, mode="policy", stochastic=StochasticConfig(
                noise_rate=noise_rate, failure_prob=failure_prob,
                seed=run_seed(7, scenario.id, 0)))
            episode = Episode(world, ScriptedPolicy(user, NOOP_ACTION),
                              ScriptedPolicy(assistant, WAIT_ACTION),
                              max_turns=scenario.max_turns)
            episode.run()
            yield _transcript(episode)
    accept = [{"action": "AgentUserInterface__accept_proposal", "when": "proposal_pending"}]
    reads = [{"action": "EmailApp__list_emails", "when": "mode:execute"}] * 12
    # The execute budget runs out before the assistant reports back.
    yield _transcript(run(accept, [PROPOSE] + reads, max_turns=3)[1])
    # Each refused interface action, then a propose made while executing.
    misuse = [
        {"action": "AgentUserInterface__send_message_to_user",
         "action_input": {"message": "too early"}},
        {"action": "AgentUserInterface__propose_task", "action_input": {"task": ""}},
        PROPOSE,
        {"action": "AgentUserInterface__propose_task",
         "action_input": {"task": "again"}, "when": "mode:execute"},
        {"action": "AgentUserInterface__send_message_to_user",
         "action_input": {"message": "done"}, "when": "mode:execute"},
    ]
    yield _transcript(run(accept, misuse, max_turns=4)[1])


def test_episode_transcripts_are_frozen():
    text = "\n".join(_pack_transcripts()) + "\n"
    for observation in ("proposal sent to the user", "message delivered; task closed",
                        "proposals can only be made while observing",
                        "propose_task requires a non-empty 'task'",
                        "send_message_to_user is only available while executing",
                        "The assistant ran out of steps before finishing the task."):
        assert observation in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRANSCRIPTS_SHA256


# -- a run renders each script step's text once, on first use

class _Recording:
    """A policy wrapper that keeps every text the policy returned."""

    def __init__(self, policy):
        self.policy = policy
        self.texts = []

    def act(self, view, feedback=None):
        self.texts.append(self.policy.act(view, feedback))
        return self.texts[-1]


def test_episodes_sharing_a_runs_step_texts_play_as_fresh_policies():
    """Two episodes run turn by turn in alternation, whose policies share one
    text list per script as a run's do, return the texts that fresh policies
    return and play the same episodes; every shared entry is `format_step`'s
    text for its step."""
    scenario = load_scenario(DATA / "scenarios/apartment_budget.yaml")
    scripts = {"user": load_script(DATA / "scripts/apartment_user.yaml"),
               "assistant": load_script(DATA / "scripts/apartment_assistant.yaml")}
    shared = {side: [None] * len(steps) for side, steps in scripts.items()}

    def episode(noise_rate, failure_prob, texts):
        world = build_world(scenario, stochastic=StochasticConfig(
            noise_rate=noise_rate, failure_prob=failure_prob, seed=3))
        return Episode(world,
                       _Recording(ScriptedPolicy(scripts["user"], NOOP_ACTION, texts["user"])),
                       _Recording(ScriptedPolicy(scripts["assistant"], WAIT_ACTION,
                                                 texts["assistant"])),
                       max_turns=scenario.max_turns)

    interleaved = [episode(*cell, shared) for cell in TRANSCRIPT_CELLS[1:3]]
    while not all(e.finished for e in interleaved):
        for e in interleaved:
            if not e.finished:
                e.run_turn()
    for e, cell in zip(interleaved, TRANSCRIPT_CELLS[1:3]):
        fresh = episode(*cell, {"user": None, "assistant": None})
        fresh.run()
        assert e.user_policy.texts == fresh.user_policy.texts
        assert e.assistant_policy.texts == fresh.assistant_policy.texts
        assert _transcript(e) == _transcript(fresh)
    for side, steps in scripts.items():
        assert shared[side][0] is not None
        for step, text in zip(steps, shared[side]):
            assert text in (None, format_step(step["action"], step.get("action_input"),
                                              step.get("thought", "")))


def test_a_scripted_spec_renders_no_step_until_an_episode_reaches_it(monkeypatch):
    rendered = []
    real = phonesim.policies.format_step
    monkeypatch.setattr(phonesim.policies, "format_step",
                        lambda *args, **kwargs: rendered.append(args) or real(*args, **kwargs))
    make, _ = phonesim.cli._policy(f"scripted:{DATA / 'scripts/apartment_user.yaml'}", "user")
    scenario = load_scenario(DATA / "scenarios/apartment_budget.yaml")
    first, second = make(scenario), make(scenario)
    assert rendered == []
    text = first.act(None)
    assert len(rendered) == 1 and second.act(None) is text and len(rendered) == 1
    assert NoopPolicy(NOOP_ACTION).act(None) is NoopPolicy(NOOP_ACTION).act(None)
