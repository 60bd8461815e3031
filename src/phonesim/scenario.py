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
from .errors import ArgumentInvalid, SchemaError
from .events import Event
from .fsm import AppStateMachine
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
# The keys each mapping may hold; the parser refuses any other.
TOP_KEYS = {"schema_version", "id", "title", "apps", "start_time", "max_turns", "tick_seconds",
            "user_goal", "assistant_instructions", "init", "events", "validation"}
EVENT_KEYS = {"id", "kind", "at", "after", "app", "tool", "args", "notify"}
AFTER_KEYS = {"anchor", "offset"}
ACTION_KEYS = {"kind", "goal", "tool", "actor", "args_subset", "count_at_least"}
CRITERION_KEYS = {
    "db_predicate": {"kind", "goal", "app", "store", "where", "check", "field", "op", "value"},
    "action_required": ACTION_KEYS,
    "action_forbidden": ACTION_KEYS,
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


def _get(data: dict, key: str, kind, where: str, default=...):
    """`data[key]` if it is a `kind`; a missing key is an error unless it has a default."""
    if key not in data:
        if default is ...:
            raise SchemaError(f"{where}: missing required field {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _only(data: dict, keys: set, where: str) -> None:
    """Refuse any key that the parser does not read, such as a misspelt one."""
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}; allowed: {sorted(keys)}")


def _count(data: dict, key: str, default: int, where: str) -> int:
    """An optional whole number of at least 1, such as `max_turns`."""
    value = data.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SchemaError(f"{where}.{key}: expected an integer of at least 1, got {value!r}")
    return value


def _seconds(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise SchemaError(f"{where}: expected seconds as a number")
    return float(value)


def _parse_event(data: dict, where: str, times: dict[str, float]) -> Event:
    """`times` maps each earlier event id to its firing time; an `after`
    schedule is resolved against it here, once."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a mapping")
    _only(data, EVENT_KEYS, where)
    event_id = _get(data, "id", str, where)
    if event_id in times:
        raise SchemaError(f"{where}.id: duplicate event id {event_id!r}")
    kind = _get(data, "kind", str, where)
    if kind not in SCRIPT_KINDS:
        raise SchemaError(
            f"{where}.kind: {kind!r} not one of {SCRIPT_KINDS} "
            f"(noise is generated, not scripted)")
    if ("at" in data) == ("after" in data):
        raise SchemaError(f"{where}: give exactly one of 'at' or 'after'")
    if "at" in data:
        at = _seconds(data["at"], f"{where}.at")
    else:
        after = _get(data, "after", dict, where)
        _only(after, AFTER_KEYS, f"{where}.after")
        anchor = _get(after, "anchor", str, f"{where}.after")
        if anchor not in times:
            raise SchemaError(
                f"{where}.after.anchor: {anchor!r} must name an earlier event")
        offset = _seconds(after.get("offset", 0), f"{where}.after.offset")
        if offset < 0:
            raise SchemaError(
                f"{where}.after.offset: {offset:g} would fire before anchor {anchor!r}")
        at = times[anchor] + offset
    app = data.get("app", "")
    tool = data.get("tool", "")
    if kind != "completion" and not (app and tool):
        raise SchemaError(f"{where}: non-completion events need 'app' and 'tool'")
    notify = data.get("notify", "both")
    if notify not in ("both", "user", "assistant", "none"):
        raise SchemaError(f"{where}.notify: {notify!r} invalid")
    return Event(id=event_id, kind=kind, at=at, app=app, tool=tool,
                 args=_get(data, "args", dict, where, {}), notify=notify)


def _parse_criterion(data: dict, where: str) -> Criterion:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a mapping")
    kind = _get(data, "kind", str, where)
    if kind not in CRITERION_KEYS:
        raise SchemaError(f"{where}.kind: unknown criterion kind {kind!r}")
    _only(data, CRITERION_KEYS[kind], where)
    goal = _get(data, "goal", str, where, "main")
    if kind == "db_predicate":
        check = data.get("check", "count")
        if check not in CHECKS:
            raise SchemaError(f"{where}.check: {check!r} not one of {CHECKS}")
        op = _get(data, "op", str, where, "==")
        if op not in OPS:
            raise SchemaError(f"{where}.op: {op!r} not one of {sorted(OPS)}")
        field_name = _get(data, "field", str, where, "")
        if check != "count" and not field_name:
            raise SchemaError(f"{where}: check {check!r} needs a 'field'")
        value = _get(data, "value", object, where)
        if check == "count" and (op == "contains" or type(value) not in (int, float)):
            raise SchemaError(f"{where}: check 'count' compares the number of matches with a "
                              f"number, not with {op!r} {value!r}")
        match = _get(data, "where", dict, where, {})
        if not all(isinstance(key, str) for key in match):
            raise SchemaError(f"{where}.where: field names must be strings, got {list(match)}")
        return Criterion(
            kind=kind, goal=goal,
            app=_get(data, "app", str, where),
            store=_get(data, "store", str, where),
            where=match,
            check=check, field_name=field_name, op=op, value=value,
        )
    actor = data.get("actor", "any")
    if actor not in ACTORS:
        raise SchemaError(f"{where}.actor: {actor!r} not one of {ACTORS}")
    return Criterion(
        kind=kind, goal=goal,
        tool=_get(data, "tool", str, where),
        actor=actor,
        args_subset=_get(data, "args_subset", dict, where, {}),
        count_at_least=_count(data, "count_at_least", 1, where),
    )


def parse_scenario(data: dict, source: str = "<scenario>") -> Scenario:
    if not isinstance(data, dict):
        raise SchemaError(f"{source}: document must be a mapping")
    if "stochastic" in data:
        raise SchemaError(
            f"{source}.stochastic: a scenario sets no noise, failures or seed; "
            f"give them to phonesim run as --noise-rate, --failure-prob and --seed")
    _only(data, TOP_KEYS, source)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{source}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    apps = _get(data, "apps", list, source)
    for i, app in enumerate(apps):
        if app not in BUILDERS:
            raise SchemaError(
                f"{source}.apps[{i}]: unknown app {app!r}; known: {sorted(BUILDERS)}")
        if app in apps[:i]:
            raise SchemaError(f"{source}.apps[{i}]: app {app!r} is listed twice")

    times: dict[str, float] = {}
    events = []
    for i, item in enumerate(_get(data, "events", list, source, [])):
        event = _parse_event(item, f"{source}.events[{i}]", times)
        times[event.id] = event.at
        events.append(event)

    validation = [_parse_criterion(item, f"{source}.validation[{i}]")
                  for i, item in enumerate(_get(data, "validation", list, source, []))]
    if not validation:
        raise SchemaError(f"{source}.validation: at least one criterion is required")

    scenario = Scenario(
        id=_get(data, "id", str, source),
        title=_get(data, "title", str, source, ""),
        apps=list(apps),
        start_time=_get(data, "start_time", str, source),
        events=events,
        validation=validation,
        init=_get(data, "init", dict, source, {}),
        user_goal=_get(data, "user_goal", str, source, ""),
        assistant_instructions=_get(data, "assistant_instructions", str, source, ""),
        max_turns=_count(data, "max_turns", 10, source),
        tick_seconds=_count(data, "tick_seconds", 60, source),
        machines={app: build_app(app) for app in apps},
    )
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
