"""Scenario files: initial stores, an event script, goals, and validation.

A scenario is a YAML document. Validation criteria are machine-checkable
predicates over the final database and the action log, grouped into goals;
an episode succeeds when every goal holds. Loading refuses unknown keys,
checks each field, and verifies statically that every event payload names a
tool on a declared app, and that every db_predicate names a store that one
of the scenario's apps declares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .apps import BUILDERS, build_app
from .clock import TIME_FORMAT, parse_start_time
from .errors import ArgumentInvalid, SchemaError
from .events import Event
from .fsm import AppStateMachine
from .shapes import REQUIRED, check
from .yamlfile import read_yaml

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
# The shape of each mapping a scenario holds; the parser refuses any other key.
EVENT = {
    "id": ("str", REQUIRED),
    "kind": (SCRIPT_KINDS, REQUIRED),
    "at": ("float", None),
    "after": ({"anchor": ("str", REQUIRED), "offset": ("float", 0)}, None),
    "app": ("str", ""),
    "tool": ("str", ""),
    "args": ("dict", {}),
    "notify": (("both", "user", "assistant", "none"), "both"),
}
CRITERION_KIND = (("db_predicate", "action_required", "action_forbidden"), REQUIRED)
ACTION = {"kind": CRITERION_KIND, "goal": ("str", "main"), "tool": ("str", REQUIRED),
          "actor": (ACTORS, "any"), "args_subset": ("dict", {}),
          "count_at_least": ("count", 1)}
CRITERIA = {
    "db_predicate": {"kind": CRITERION_KIND, "goal": ("str", "main"),
                     "app": ("str", REQUIRED), "store": ("str", REQUIRED),
                     "where": ("dict", {}), "check": (CHECKS, "count"), "field": ("str", ""),
                     "op": (tuple(OPS), "=="), "value": ("any", REQUIRED)},
    "action_required": ACTION,
    "action_forbidden": ACTION,
}
SCENARIO = {
    "schema_version": ("int", REQUIRED),
    "id": ("str", REQUIRED),
    "title": ("str", ""),
    "apps": ([tuple(sorted(BUILDERS))], REQUIRED),
    "start_time": ("str", REQUIRED),
    "max_turns": ("count", 10),
    "tick_seconds": ("count", 60),
    "user_goal": ("str", ""),
    "assistant_instructions": ("str", ""),
    "init": ("dict", {}),
    "events": ([EVENT], []),
    "validation": ("list", []),    # each criterion is checked by its kind's shape
}


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
    # One machine per app id, built when the scenario is parsed and shared,
    # never mutated, by every world and thread that runs the scenario.
    machines: dict[str, AppStateMachine] = field(
        default_factory=dict, compare=False, repr=False)
    # The event-payload memo (`World._payload`) that `build_world` hands to
    # every world it builds from the scenario, so each payload is looked up,
    # checked, digested and rendered once per run, not once per episode.
    # Safe to share between worlds and threads: an entry depends only on its
    # payload and on `machines`, and holds its args, so no id in a key is
    # reused.
    payloads: dict = field(default_factory=dict, compare=False, repr=False)

    def goals(self) -> list[str]:
        seen: list[str] = []
        for c in self.validation:
            if c.goal not in seen:
                seen.append(c.goal)
        return seen


def _parse_event(event: dict, where: str, times: dict[str, float]) -> Event:
    """`times` maps each earlier event id to its firing time; an `after`
    schedule is resolved against it here, once."""
    if event["id"] in times:
        raise SchemaError(f"{where}.id: duplicate event id {event['id']!r}")
    if (event["at"] is None) == (event["after"] is None):
        raise SchemaError(f"{where}: give exactly one of 'at' or 'after'")
    if event["after"] is None:
        at = float(event["at"])
    else:
        anchor = event["after"]["anchor"]
        if anchor not in times:
            raise SchemaError(
                f"{where}.after.anchor: {anchor!r} must name an earlier event")
        offset = float(event["after"]["offset"])
        if offset < 0:
            raise SchemaError(
                f"{where}.after.offset: {offset:g} would fire before anchor {anchor!r}")
        at = times[anchor] + offset
    if event["kind"] != "completion" and not (event["app"] and event["tool"]):
        raise SchemaError(f"{where}: non-completion events need 'app' and 'tool'")
    return Event(id=event["id"], kind=event["kind"], at=at, app=event["app"],
                 tool=event["tool"], args=event["args"], notify=event["notify"])


def _parse_criterion(data, where: str) -> Criterion:
    kind = data.get("kind") if isinstance(data, dict) else None
    known = isinstance(kind, str) and kind in CRITERIA
    # An unknown or missing kind is refused by a shape that holds the kind alone.
    c = check(data, CRITERIA[kind] if known else {"kind": CRITERION_KIND}, where)
    if kind != "db_predicate":
        return Criterion(**c)
    if c["check"] != "count" and not c["field"]:
        raise SchemaError(f"{where}: check {c['check']!r} needs a 'field'")
    if c["check"] == "count" and (c["op"] == "contains" or type(c["value"]) not in (int, float)):
        raise SchemaError(f"{where}: check 'count' compares the number of matches with a "
                          f"number, not with {c['op']!r} {c['value']!r}")
    if not all(isinstance(key, str) for key in c["where"]):
        raise SchemaError(f"{where}.where: field names must be strings, got {list(c['where'])}")
    return Criterion(field_name=c.pop("field"), **c)


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    if isinstance(data, dict) and "stochastic" in data:
        raise SchemaError(
            f"{source}.stochastic: a scenario sets no noise, failures or seed; "
            f"give them to phonesim run as --noise-rate, --failure-prob and --seed")
    doc = check(data, SCENARIO, source)
    version = doc.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{source}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    try:
        parse_start_time(doc["start_time"])
    except ValueError:
        raise SchemaError(f"{source}.start_time: expected a time as {TIME_FORMAT!r}, "
                          f"got {doc['start_time']!r}") from None

    apps = doc["apps"]
    for i, app in enumerate(apps):
        if app in apps[:i]:
            raise SchemaError(f"{source}.apps[{i}]: app {app!r} is listed twice")

    times: dict[str, float] = {}
    events = []
    for i, item in enumerate(doc["events"]):
        event = _parse_event(item, f"{source}.events[{i}]", times)
        times[event.id] = event.at
        events.append(event)

    validation = [_parse_criterion(item, f"{source}.validation[{i}]")
                  for i, item in enumerate(doc["validation"])]
    if not validation:
        raise SchemaError(f"{source}.validation: at least one criterion is required")

    scenario = Scenario(**dict(doc, events=events, validation=validation),
                        machines={app: build_app(app) for app in apps})
    _check_payloads(scenario, source)
    _check_init(scenario, source)
    _check_criteria(scenario, source)
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
        try:
            api.tool.validate_args(event.args)
        except ArgumentInvalid as exc:
            raise SchemaError(f"{source}: event {event.id!r}: {exc}") from exc


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


def _check_criteria(scenario: Scenario, source: str) -> None:
    for i, criterion in enumerate(scenario.validation):
        if criterion.kind != "db_predicate":
            continue
        where = f"{source}.validation[{i}]"
        machine = scenario.machines.get(criterion.app)
        if machine is None:
            raise SchemaError(
                f"{where}.app: {criterion.app!r} not in the scenario's app list")
        declared = sorted(name for name, _ in machine.stores)
        if criterion.store not in declared:
            raise SchemaError(
                f"{where}.store: {criterion.app} has no store {criterion.store!r}; "
                f"declared: {declared}")


def load_scenario(path) -> Scenario:
    return parse_scenario(read_yaml(path), source=str(path))
