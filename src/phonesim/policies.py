"""Policies produce step-protocol text; the turn loop parses and executes it.

A policy is anything with `act(view, feedback) -> str`. Scripted policies
replay a fixed list of steps (with optional gating on the current mode or on
a pending proposal) and then idle forever, which makes episodes fully
deterministic for replay and oracle comparison.
"""

from __future__ import annotations

import functools
from typing import Protocol

from .errors import ScenarioParseError, SchemaError
from .react import format_step
from .shapes import REQUIRED, check
from .yamlfile import read_yaml

WAIT_ACTION = "AgentUserInterface__wait"
NOOP_ACTION = "noop"
GATES = ("proposal_pending", "mode:observe", "mode:execute")
STEP = {"action": ("str", REQUIRED), "action_input": ("dict", {}), "thought": ("str", ""),
        "when": (GATES, None)}
SCRIPT = {"steps": ([STEP], REQUIRED)}


class Policy(Protocol):
    def act(self, view, feedback: str | None = None) -> str: ...


@functools.cache
def idle_text(action: str, thought: str) -> str:
    """An idle step's text, rendered once per (action, thought) pair."""
    return format_step(action, thought=thought)


class NoopPolicy:
    """Idles every step. The idle action differs per side."""

    def __init__(self, idle_action: str = NOOP_ACTION):
        self.idle_action = idle_action

    def act(self, view, feedback: str | None = None) -> str:
        return idle_text(self.idle_action, "Nothing to do.")


class ScriptedPolicy:
    """Replays steps in order, then idles.

    Each step is a dict with `action`, optional `action_input`, optional
    `thought`, and an optional `when` gate:
      - "proposal_pending": consume only while a proposal awaits the user
      - "mode:observe", "mode:execute": consume only while the assistant is
        in that mode
    `load_script` refuses any other gate, and any other key. A gated step
    that does not apply yields the idle action without being consumed, so
    scripts stay aligned with the episode's phase structure.

    Step texts are rendered once per run, on first use: `texts` is a list
    with one entry per step, None until some episode first reaches that
    step. A run passes one list to every episode's policy of one script;
    without one, the policy renders into its own. Two threads that render
    the same entry at once store the same text. The steps are shared too,
    and no one changes them.
    """

    def __init__(self, steps: list[dict], idle_action: str = NOOP_ACTION,
                 texts: list[str | None] | None = None):
        self.steps = steps
        self.texts = [None] * len(steps) if texts is None else texts
        self.idle_action = idle_action
        self.cursor = 0

    def _applies(self, step: dict, view) -> bool:
        when = step.get("when")
        if when is None:
            return True
        if when == "proposal_pending":
            return getattr(view, "pending_proposal", None) is not None
        if when in GATES:
            return getattr(view, "mode", None) == when.removeprefix("mode:")
        raise ScenarioParseError(f"unknown step gate {when!r}")

    def act(self, view, feedback: str | None = None) -> str:
        i = self.cursor
        if i >= len(self.steps):
            return idle_text(self.idle_action, "Script finished.")
        step = self.steps[i]
        if not self._applies(step, view):
            return idle_text(self.idle_action, "Waiting for my cue.")
        self.cursor += 1
        text = self.texts[i]
        if text is None:
            text = self.texts[i] = format_step(step["action"], step.get("action_input", {}),
                                               thought=step.get("thought", ""))
        return text


def load_script(path) -> list[dict]:
    """The steps of a script file: a list of steps, or a mapping whose only
    key is `steps:`. A malformed step is refused here, naming its index, so
    that `run` fails before it writes anything."""
    data = read_yaml(path)
    steps = check({"steps": data} if isinstance(data, list) else data, SCRIPT, str(path))["steps"]
    for i, step in enumerate(steps):
        if not step["action"]:
            raise SchemaError(f"{path}.steps[{i}].action: expected a non-empty str")
    return steps
