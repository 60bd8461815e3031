"""Policies produce step-protocol text; the turn loop parses and executes it.

A policy is anything with `act(view, feedback) -> str`. Scripted policies
replay a fixed list of steps (with optional gating on the current mode or on
a pending proposal) and then idle forever, which makes episodes fully
deterministic for replay and oracle comparison.
"""

from __future__ import annotations

from typing import Protocol

from .errors import ScenarioParseError
from .react import format_step
from .yamlfile import load_yaml

WAIT_ACTION = "AgentUserInterface__wait"
NOOP_ACTION = "noop"


class Policy(Protocol):
    def act(self, view, feedback: str | None = None) -> str: ...


class NoopPolicy:
    """Idles every step. The idle action differs per side."""

    def __init__(self, idle_action: str = NOOP_ACTION):
        self.idle_action = idle_action

    def act(self, view, feedback: str | None = None) -> str:
        return format_step(self.idle_action, thought="Nothing to do.")


class ScriptedPolicy:
    """Replays steps in order, then idles.

    Each step is a dict with `action`, optional `action_input`, optional
    `thought`, and an optional `when` gate:
      - "proposal_pending": consume only while a proposal awaits the user
      - "mode:<m>":         consume only while the assistant is in mode <m>
    A gated step that does not apply yields the idle action without being
    consumed, so scripts stay aligned with the episode's phase structure.
    """

    def __init__(self, steps: list[dict], idle_action: str = NOOP_ACTION):
        self.steps = [dict(s) for s in steps]
        self.idle_action = idle_action
        self.cursor = 0

    def _applies(self, step: dict, view) -> bool:
        when = step.get("when")
        if when is None:
            return True
        if when == "proposal_pending":
            return getattr(view, "pending_proposal", None) is not None
        if when.startswith("mode:"):
            return getattr(view, "mode", None) == when.split(":", 1)[1]
        raise ScenarioParseError(f"unknown step gate {when!r}")

    def act(self, view, feedback: str | None = None) -> str:
        while self.cursor < len(self.steps):
            step = self.steps[self.cursor]
            if not self._applies(step, view):
                return format_step(self.idle_action, thought="Waiting for my cue.")
            self.cursor += 1
            return format_step(step["action"], step.get("action_input", {}),
                               thought=step.get("thought", ""))
        return format_step(self.idle_action, thought="Script finished.")


def load_script(path) -> list[dict]:
    data = load_yaml(path)
    if isinstance(data, dict):
        data = data.get("steps")
    if not isinstance(data, list):
        raise ScenarioParseError(f"{path}: expected a list of steps (or {{steps: [...]}})")
    for i, step in enumerate(data):
        if not isinstance(step, dict) or "action" not in step:
            raise ScenarioParseError(f"{path}: step {i} must be a dict with an 'action'")
    return data


def scripted_user_policy(steps: list[dict]) -> ScriptedPolicy:
    return ScriptedPolicy(steps, idle_action=NOOP_ACTION)


def scripted_assistant_policy(steps: list[dict]) -> ScriptedPolicy:
    return ScriptedPolicy(steps, idle_action=WAIT_ACTION)
