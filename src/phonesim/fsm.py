"""App state machines: screens, tool-labeled transitions, and the flat API.

Each app is a set of named screens. A screen exposes exactly the tools of its
outgoing transitions; the assistant-facing flat API is state-independent.
Handlers receive a ToolContext and return observation text; they may pick one
of the transition's declared target states via ctx.go().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import ArgumentInvalid, InvalidMachine, UnknownState

PARAM_TYPES = {
    "str": str,
    "int": int,
    "float": (int, float),
    "bool": bool,
    "list": list,
    "dict": dict,
}


@dataclass(frozen=True)
class Param:
    name: str
    type: str = "str"
    required: bool = True


@dataclass(frozen=True)
class ToolSpec:
    name: str
    params: tuple[Param, ...] = ()
    read_only: bool = False
    description: str = ""
    # Environment-only tools deposit what the outside world sends (incoming
    # mail, messages). Scripted events and noise use them; the assistant may
    # not, or it could forge what the user receives.
    environment_only: bool = False

    def qualified(self, app_id: str) -> str:
        return f"{app_id}__{self.name}"

    def validate_args(self, args: dict) -> dict:
        known = {p.name: p for p in self.params}
        for key in args:
            if key not in known:
                raise ArgumentInvalid(f"unexpected argument {key!r} for {self.name}")
        out = {}
        for param in self.params:
            if param.name not in args:
                if param.required:
                    raise ArgumentInvalid(f"missing required argument {param.name!r} for {self.name}")
                continue
            value = args[param.name]
            expected = PARAM_TYPES[param.type]
            if param.type == "float" and isinstance(value, bool):
                raise ArgumentInvalid(f"argument {param.name!r} of {self.name} must be a number")
            if not isinstance(value, expected) or (param.type == "int" and isinstance(value, bool)):
                raise ArgumentInvalid(
                    f"argument {param.name!r} of {self.name} must be of type {param.type}"
                )
            out[param.name] = value
        return out


class ToolContext:
    """Handler-facing bundle: store access, per-app screen context, and clock."""

    def __init__(self, db, app_id: str, clock, session: dict, args: dict, current_user: str):
        self.db = db
        self.app_id = app_id
        self.clock = clock
        self.session = session        # mutable per-app context (open ids, drafts, ...)
        self.args = args
        self.current_user = current_user
        self.next_state: str | None = None

    def store(self, name: str):
        return self.db.store(self.app_id, name)

    def go(self, state: str) -> None:
        self.next_state = state


Handler = Callable[[ToolContext], str]


@dataclass(frozen=True)
class Transition:
    state: str
    tool: ToolSpec
    handler: Handler
    next_states: tuple[str, ...] = ()   # empty = stays on the same screen

    def default_target(self) -> str | None:
        return self.next_states[0] if self.next_states else None


@dataclass(frozen=True)
class ApiTool:
    tool: ToolSpec
    handler: Handler


@dataclass
class AppStateMachine:
    app_id: str
    states: tuple[str, ...]
    initial_state: str
    transitions: tuple[Transition, ...]
    api_tools: tuple[ApiTool, ...] = ()
    stores: tuple[tuple[str, str], ...] = ()   # (store name, id prefix)
    description: str = ""
    _table: dict[tuple[str, str], Transition] = field(init=False, repr=False)
    _api: dict[str, ApiTool] = field(init=False, repr=False)

    def __post_init__(self):
        self._table = {(t.state, t.tool.name): t for t in self.transitions}
        self._api = {a.tool.name: a for a in self.api_tools}

    def user_tools(self, state: str) -> list[ToolSpec]:
        if state not in self.states:
            raise UnknownState(f"{self.app_id} has no state {state!r}")
        return [t.tool for t in self.transitions if t.state == state]

    def transition(self, state: str, tool_name: str) -> Transition | None:
        return self._table.get((state, tool_name))

    def api_tool(self, tool_name: str) -> ApiTool | None:
        return self._api.get(tool_name)

    def agent_api_tools(self) -> list[ApiTool]:
        """The flat API the assistant may call: every API tool that is not
        environment-only."""
        return [a for a in self.api_tools if not a.tool.environment_only]

    def fresh_session(self) -> dict:
        return {"state": self.initial_state, "ctx": {}}


def validate_state_machine(machine: AppStateMachine) -> dict:
    """Static checks: reachability, dead ends, duplicate (state, tool) pairs,
    and transitions targeting undefined states. Report-producing."""
    states = set(machine.states)
    errors: list[str] = []
    warnings: list[str] = []

    if machine.initial_state not in states:
        errors.append(f"initial state {machine.initial_state!r} not in states")

    seen: set[tuple[str, str]] = set()
    for t in machine.transitions:
        if t.state not in states:
            errors.append(f"transition {t.tool.name!r} starts at undefined state {t.state!r}")
        for target in t.next_states:
            if target not in states:
                errors.append(f"transition {t.tool.name!r} targets undefined state {target!r}")
        key = (t.state, t.tool.name)
        if key in seen:
            errors.append(f"duplicate (state, tool) pair {key!r}")
        seen.add(key)

    adjacency: dict[str, set[str]] = {s: set() for s in states}
    for t in machine.transitions:
        if t.state in adjacency:
            adjacency[t.state].update(x for x in t.next_states if x in states)

    reachable = set()
    frontier = [machine.initial_state] if machine.initial_state in states else []
    while frontier:
        s = frontier.pop()
        if s in reachable:
            continue
        reachable.add(s)
        frontier.extend(adjacency.get(s, ()))
    unreachable = sorted(states - reachable)
    for s in unreachable:
        errors.append(f"state {s!r} unreachable from {machine.initial_state!r}")

    has_outgoing = {t.state for t in machine.transitions if t.next_states}
    dead_ends = sorted(s for s in states if s not in has_outgoing)
    for s in dead_ends:
        warnings.append(f"state {s!r} has no outgoing transitions (exit only via navigation)")

    return {
        "app_id": machine.app_id,
        "valid": not errors,
        "state_count": len(states),
        "errors": errors,
        "warnings": warnings,
        "unreachable": unreachable,
        "dead_ends": dead_ends,
    }


def require_valid(machine: AppStateMachine) -> None:
    report = validate_state_machine(machine)
    if not report["valid"]:
        raise InvalidMachine(f"{machine.app_id}: " + "; ".join(report["errors"]))


def render_tools_block(app_id: str, tools: list[ToolSpec]) -> str:
    """Prompt-facing tool listing, one line per tool."""
    lines = []
    for tool in tools:
        params = ", ".join(
            p.name + ("" if p.required else "?") + f": {p.type}" for p in tool.params
        )
        lines.append(f"- {tool.qualified(app_id)}({params}): {tool.description}")
    return "\n".join(lines)


def render_app_reference(machines: list[AppStateMachine]) -> str:
    """Per-app state/transition/tool reference with parameter schemas."""
    blocks = []
    for m in machines:
        lines = [f"# {m.app_id}", m.description, "", f"States: {', '.join(m.states)}",
                 f"Initial: {m.initial_state}", "", "## Screen tools"]
        for t in m.transitions:
            target = " -> " + "/".join(t.next_states) if t.next_states else ""
            params = ", ".join(
                p.name + ("" if p.required else "?") + f": {p.type}" for p in t.tool.params
            )
            ro = " [read-only]" if t.tool.read_only else ""
            lines.append(f"- [{t.state}] {t.tool.name}({params}){target}{ro}: {t.tool.description}")
        lines.append("")
        lines.append("## Flat API")
        lines.append(render_tools_block(m.app_id, [a.tool for a in m.agent_api_tools()]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
