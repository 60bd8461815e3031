from phonesim.apps import build_app
from phonesim.policies import (
    WAIT_ACTION,
    NoopPolicy,
    ScriptedPolicy,
    scripted_assistant_policy,
    scripted_user_policy,
)
from phonesim.turnloop import Episode
from phonesim.world import World


def make_world():
    world = World("2025-06-01 09")
    world.register_app(build_app("EmailApp"))
    return world


def run(user_steps, assistant_steps, max_turns=5, world=None):
    world = world or make_world()
    episode = Episode(world,
                      scripted_user_policy(user_steps),
                      scripted_assistant_policy(assistant_steps),
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
