"""Step protocol for policies: free-text reasoning followed by exactly one
JSON tool action and a terminator sentinel."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import MalformedAction

END_ACTION = "<end_action>"
_DECODER = json.JSONDecoder()   # stateless between calls, like json.loads's own


@dataclass(frozen=True)
class Step:
    thought: str
    action: str
    action_input: dict = field(default_factory=dict)


def format_step(action: str, action_input: dict | None = None,
                thought: str = "") -> str:
    payload = {"action": action, "action_input": action_input or {}}
    return (f"Thought: {thought}\nAction:\n"
            f"{json.dumps(payload, indent=2, sort_keys=True)}\n{END_ACTION}")


def parse_step(text: str) -> Step:
    """Extract the single action from a policy's raw output.

    Raises MalformedAction when the terminator is missing, no action object is
    found, more than one action object appears, or the object is malformed.
    """
    if END_ACTION not in text:
        raise MalformedAction(
            f"output must end with {END_ACTION!r} after exactly one action")
    body = text.split(END_ACTION, 1)[0]

    found: list[tuple[int, dict]] = []
    idx = 0
    while True:
        start = body.find("{", idx)
        if start == -1:
            break
        try:
            obj, end = _DECODER.raw_decode(body, start)
        except ValueError:
            idx = start + 1
            continue
        if isinstance(obj, dict) and "action" in obj:
            found.append((start, obj))
        idx = end

    if not found:
        raise MalformedAction(
            'no action found; emit a JSON object {"action": ..., "action_input": {...}}')
    if len(found) > 1:
        raise MalformedAction("emit exactly one action per step, not several")

    start, obj = found[0]
    action = obj.get("action")
    action_input = obj.get("action_input", {})
    if not isinstance(action, str) or not action:
        raise MalformedAction('"action" must be a non-empty string')
    if not isinstance(action_input, dict):
        raise MalformedAction('"action_input" must be a JSON object')
    extra = set(obj) - {"action", "action_input"}
    if extra:
        raise MalformedAction(f"unexpected keys in action object: {sorted(extra)}")

    thought = body[:start]
    for label in ("Action:", "Action"):
        if thought.rstrip().endswith(label):
            thought = thought.rstrip()[: -len(label)]
            break
    thought = thought.strip()
    if thought.startswith("Thought:"):
        thought = thought[len("Thought:"):].strip()
    return Step(thought=thought, action=action, action_input=dict(action_input))
