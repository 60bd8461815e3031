"""Scenario files: initial stores, an event script, goals, and validation.

A scenario is a YAML document. Validation criteria are machine-checkable
predicates over the final database and the action log, grouped into goals;
an episode succeeds when every goal holds. Loading performs field-level
checks and verifies statically that every event payload names a tool that
actually exists on a declared app.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .apps import BUILDERS, build_app
from .errors import ScenarioParseError, SchemaError
from .events import EVENT_KINDS, Event, EventSchedule
from .fsm import AppStateMachine
from .yamlfile import load_yaml

SCHEMA_VERSION = 1

SCRIPT_KINDS = ("environment", "oracle_user", "oracle_agent", "completion")
OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "contains": lambda a, b: b in a if a is not None else False,
}
CHECKS = ("count", "all", "any", "none")
ACTORS = ("user", "assistant", "environment", "any")


@dataclass(frozen=True)
class Criterion:
    kind: str                        # db_predicate | action_required | action_forbidden
    goal: str = "main"
    # db_predicate
    app: str = ""
    store: str = ""
    where: dict = field(default_factory=dict)
    check: str = "count"
    field_name: str = ""
    op: str = "=="
    value: object = None
    # action_required / action_forbidden
    tool: str = ""
    actor: str = "any"
    args_subset: dict = field(default_factory=dict)
    count_at_least: int = 1


@dataclass
class Scenario:
    id: str
    title: str
    apps: list[str]
    start_time: str
    events: list[Event]
    validation: list[Criterion]
    init: dict = field(default_factory=dict)
    user_goal: str = ""
    assistant_instructions: str = ""
    max_turns: int = 10
    tick_seconds: int = 60
    stochastic: dict = field(default_factory=dict)
    # One machine per app id, built when the scenario is parsed and shared,
    # never mutated, by every world and thread that runs the scenario.
    machines: dict[str, AppStateMachine] = field(
        default_factory=dict, compare=False, repr=False)

    def goals(self) -> list[str]:
        seen: list[str] = []
        for c in self.validation:
            if c.goal not in seen:
                seen.append(c.goal)
        return seen


def _req(data: dict, key: str, kind, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing required field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_event(data: dict, index: int, known_ids: set[str]) -> Event:
    where = f"events[{index}]"
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a mapping")
    event_id = _req(data, "id", str, where)
    if event_id in known_ids:
        raise SchemaError(f"{where}.id: duplicate event id {event_id!r}")
    kind = _req(data, "kind", str, where)
    if kind not in SCRIPT_KINDS:
        raise SchemaError(
            f"{where}.kind: {kind!r} not one of {SCRIPT_KINDS} "
            f"(noise is generated, not scripted)")
    if ("at" in data) == ("after" in data):
        raise SchemaError(f"{where}: give exactly one of 'at' or 'after'")
    if "at" in data:
        if not isinstance(data["at"], (int, float)) or isinstance(data["at"], bool):
            raise SchemaError(f"{where}.at: expected seconds as a number")
        schedule = EventSchedule.absolute(data["at"])
    else:
        after = _req(data, "after", dict, where)
        anchor = _req(after, "anchor", str, f"{where}.after")
        if anchor not in known_ids:
            raise SchemaError(
                f"{where}.after.anchor: {anchor!r} must name an earlier event")
        offset = after.get("offset", 0)
        if not isinstance(offset, (int, float)) or isinstance(offset, bool):
            raise SchemaError(f"{where}.after.offset: expected seconds as a number")
        schedule = EventSchedule.relative(anchor, offset)
    app = data.get("app", "")
    tool = data.get("tool", "")
    if kind != "completion":
        if not app or not tool:
            raise SchemaError(f"{where}: non-completion events need 'app' and 'tool'")
    args = data.get("args", {})
    if not isinstance(args, dict):
        raise SchemaError(f"{where}.args: expected a mapping")
    notify = data.get("notify", "both")
    if notify not in ("both", "user", "assistant", "none"):
        raise SchemaError(f"{where}.notify: {notify!r} invalid")
    return Event(id=event_id, kind=kind, schedule=schedule,
                 app=app, tool=tool, args=args, notify=notify)


def _parse_criterion(data: dict, index: int) -> Criterion:
    where = f"validation[{index}]"
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a mapping")
    kind = _req(data, "kind", str, where)
    goal = data.get("goal", "main")
    if kind == "db_predicate":
        check = data.get("check", "count")
        if check not in CHECKS:
            raise SchemaError(f"{where}.check: {check!r} not one of {CHECKS}")
        op = data.get("op", "==")
        if op not in OPS:
            raise SchemaError(f"{where}.op: {op!r} not one of {sorted(OPS)}")
        if check != "count" and not data.get("field"):
            raise SchemaError(f"{where}: check {check!r} needs a 'field'")
        if "value" not in data:
            raise SchemaError(f"{where}: missing 'value'")
        return Criterion(
            kind=kind, goal=goal,
            app=_req(data, "app", str, where),
            store=_req(data, "store", str, where),
            where=data.get("where", {}),
            check=check, field_name=data.get("field", ""),
            op=op, value=data["value"],
        )
    if kind in ("action_required", "action_forbidden"):
        actor = data.get("actor", "any")
        if actor not in ACTORS:
            raise SchemaError(f"{where}.actor: {actor!r} not one of {ACTORS}")
        count = data.get("count_at_least", 1)
        if not isinstance(count, int) or count < 1:
            raise SchemaError(f"{where}.count_at_least: expected a positive integer")
        return Criterion(
            kind=kind, goal=goal,
            tool=_req(data, "tool", str, where),
            actor=actor,
            args_subset=data.get("args_subset", {}),
            count_at_least=count,
        )
    raise SchemaError(f"{where}.kind: unknown criterion kind {kind!r}")


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: document must be a mapping")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{source}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    apps = _req(data, "apps", list, source)
    for i, app in enumerate(apps):
        if app not in BUILDERS:
            raise SchemaError(
                f"{source}.apps[{i}]: unknown app {app!r}; known: {sorted(BUILDERS)}")

    known_ids: set[str] = set()
    events = []
    for i, item in enumerate(data.get("events", [])):
        event = _parse_event(item, i, known_ids)
        known_ids.add(event.id)
        events.append(event)

    validation_raw = data.get("validation", [])
    if not validation_raw:
        raise SchemaError(f"{source}.validation: at least one criterion is required")
    validation = [_parse_criterion(item, i) for i, item in enumerate(validation_raw)]

    scenario = Scenario(
        id=_req(data, "id", str, source),
        title=data.get("title", ""),
        apps=list(apps),
        start_time=_req(data, "start_time", str, source),
        events=events,
        validation=validation,
        init=data.get("init", {}),
        user_goal=data.get("user_goal", ""),
        assistant_instructions=data.get("assistant_instructions", ""),
        max_turns=int(data.get("max_turns", 10)),
        tick_seconds=int(data.get("tick_seconds", 60)),
        stochastic=dict(data.get("stochastic", {})),
        machines={app: build_app(app) for app in apps},
    )
    _check_payloads(scenario, source)
    _check_init(scenario, source)
    return scenario


def _check_payloads(scenario: Scenario, source: str) -> None:
    for event in scenario.events:
        if event.kind == "completion":
            continue
        machine = scenario.machines.get(event.app)
        if machine is None:
            raise SchemaError(
                f"{source}: event {event.id!r} targets app {event.app!r} "
                f"not in the scenario's app list")
        api = machine.api_tool(event.tool)
        if api is None:
            names = sorted(a.tool.name for a in machine.api_tools)
            raise SchemaError(
                f"{source}: event {event.id!r} targets unknown tool "
                f"{event.app}__{event.tool}; available: {names}")


def _check_init(scenario: Scenario, source: str) -> None:
    for app, stores in scenario.init.items():
        if app not in scenario.machines:
            raise SchemaError(f"{source}.init: app {app!r} not in the scenario's app list")
        declared = {name for name, _ in scenario.machines[app].stores}
        if not isinstance(stores, dict):
            raise SchemaError(f"{source}.init.{app}: expected a mapping of store -> records")
        for store, records in stores.items():
            if store not in declared:
                raise SchemaError(
                    f"{source}.init.{app}: unknown store {store!r}; declared: {sorted(declared)}")
            if not isinstance(records, list):
                raise SchemaError(f"{source}.init.{app}.{store}: expected a list of records")
            for i, rec in enumerate(records):
                if not isinstance(rec, dict):
                    raise SchemaError(
                        f"{source}.init.{app}.{store}[{i}]: expected a record mapping")


def load_scenario(path) -> Scenario:
    try:
        data = load_yaml(path)
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"{path}: invalid YAML: {exc}") from exc
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return parse_scenario(data, source=str(path))
