"""The turn loop: user first, then the assistant, under per-phase budgets.

Each turn: deliver due events, give the user their single action, then run
the assistant phase that its current mode allows. While a proposal awaits
the user's decision, the assistant does nothing. In execute mode the
assistant works until it reports back to the user or runs out of steps.

The loop sequences phases and records what each side saw and did. Every
action runs through the `World`, which alone changes and checks the
assistant's mode and task; the loop changes only the turn counter.
"""

from __future__ import annotations

from .errors import EpisodeFinished, MalformedAction, PhonesimError
from .policies import NOOP_ACTION, WAIT_ACTION, Policy
from .react import Step, parse_step
from .world import World

OBSERVE_STEPS = 5      # assistant steps per turn while observing
EXECUTE_STEPS = 10     # assistant steps per turn while executing a task
RETRY_LIMIT = 2        # re-asks of a policy whose reply does not parse


class _PolicyFailed(Exception):
    """A policy's `act` raised a `PhonesimError` (an `llm:` endpoint that is
    down, say). Like a failing event, it ends the episode with no further
    phase, and the episode is scored with an `aborted_reason`."""


class Episode:
    def __init__(self, world: World, user_policy: Policy, assistant_policy: Policy,
                 max_turns: int = 10):
        self.world = world
        self.user_policy = user_policy
        self.assistant_policy = assistant_policy
        self.max_turns = max_turns
        self.steps: list[dict] = []        # every policy step, both actors
        self.view_trace: list[dict] = []   # what each side was shown, per phase
        self.rewards: list[dict] = []      # proposal outcomes as step rewards
        self.finished = False
        self.aborted_reason: str | None = None
        self._last_user_feedback: str | None = None
        self._last_agent_feedback: str | None = None

    # ------------------------------------------------------------------

    def run(self) -> None:
        while not self.finished:
            self.run_turn()

    def run_turn(self) -> None:
        if self.finished:
            raise EpisodeFinished("episode already finished")
        world = self.world
        world.turn += 1
        try:
            world.resolve_due_events()
        except PhonesimError as exc:
            self._finish(f"bad event payload: {exc}")
            return
        try:
            self._user_phase()
            if world.assistant_mode == "observe":
                self._assistant_phase("observe", OBSERVE_STEPS)
            elif world.assistant_mode == "execute":
                self._assistant_phase("execute", EXECUTE_STEPS)
            # awaiting_confirmation: the assistant holds still until the user decides
        except _PolicyFailed as exc:
            self._finish(str(exc))
            return
        if world.completed or world.turn >= self.max_turns:
            self._finish()

    # ------------------------------------------------------------------

    def _user_phase(self) -> None:
        """The user's one action of the turn."""
        world = self.world
        view = world.compose_user_view()
        self.view_trace.append({
            "turn": world.turn,
            "phase": "user",
            "notifications": list(view.notifications),
            "pending_proposal": view.pending_proposal,
            "tool_names": list(view.tool_names),
        })
        step = self._policy_step(self.user_policy, view,
                                 self._last_user_feedback, actor="user")
        if step is None:
            return
        observation = self._run_user_action(step)
        self._last_user_feedback = observation
        self._record(actor="user", phase="user", step=step,
                     observation=observation)

    def _run_user_action(self, step: Step) -> str:
        world = self.world
        if step.action == NOOP_ACTION:
            return "did nothing"
        try:
            outcome = world.invoke_user_tool(step.action, step.action_input)
        except PhonesimError as exc:
            return f"Error: {exc}"
        if step.action.endswith("__accept_proposal"):
            self._reward(+1, "proposal accepted")
        elif step.action.endswith("__reject_proposal"):
            self._reward(-1, "proposal rejected")
        return outcome

    # ------------------------------------------------------------------

    def _assistant_phase(self, mode: str, iterations: int) -> None:
        world = self.world
        for i in range(iterations):
            view = world.compose_agent_view()
            self.view_trace.append({
                "turn": world.turn,
                "phase": f"assistant-{mode}",
                "notifications": list(view.notifications),
                "user_actions": list(view.user_actions),
            })
            step = self._policy_step(self.assistant_policy, view,
                                     self._last_agent_feedback, actor="assistant")
            if step is None:
                continue
            idle = step.action in (WAIT_ACTION, NOOP_ACTION)
            observation = "waiting" if idle else self._run_agent_action(step)
            self._last_agent_feedback = observation
            self._record(actor="assistant", phase=f"assistant-{mode}", step=step,
                         observation=observation)
            # A proposal or a report ends the phase by changing the mode.
            if idle or world.assistant_mode != mode:
                return
        if mode == "execute":
            world.close_task("The assistant ran out of steps before finishing the task.")

    def _run_agent_action(self, step: Step) -> str:
        try:
            return self.world.invoke_agent_tool(step.action, step.action_input)
        except PhonesimError as exc:
            return f"Error: {exc}"

    # ------------------------------------------------------------------

    def _policy_step(self, policy: Policy, view, feedback: str | None,
                     actor: str) -> Step | None:
        for attempt in range(RETRY_LIMIT + 1):
            try:
                raw = policy.act(view, feedback)
            except PhonesimError as exc:
                raise _PolicyFailed(f"{actor} policy failed: {exc}") from exc
            try:
                return parse_step(raw)
            except MalformedAction as exc:
                feedback = f"Error: {exc}"
                self.steps.append({
                    "turn": self.world.turn,
                    "actor": actor,
                    "phase": "parse-error",
                    "raw": raw,
                    "action": None,
                    "observation": feedback,
                })
        return None

    def _record(self, actor: str, phase: str, step: Step, observation: str) -> None:
        self.steps.append({
            "turn": self.world.turn,
            "actor": actor,
            "phase": phase,
            "thought": step.thought,
            "action": step.action,
            "action_input": step.action_input,
            "observation": observation,
        })

    def _reward(self, value: int, reason: str) -> None:
        self.rewards.append({"turn": self.world.turn, "reward": value, "reason": reason})

    def _finish(self, aborted_reason: str | None = None) -> None:
        self.aborted_reason = aborted_reason
        self.world.proposals.finalize(self.world.turn)
        self.finished = True
