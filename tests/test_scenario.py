import copy
import gc
from importlib import resources
from pathlib import Path

import pytest
import yaml

from phonesim.errors import SchemaError
from phonesim.runner import build_world, evaluate_success, run_oracle
from phonesim.scenario import load_scenario, parse_scenario
from phonesim.yamlfile import load_yaml

DATA = Path(str(resources.files("phonesim").joinpath("data")))


def base_doc():
    return {
        "schema_version": 1,
        "id": "t",
        "apps": ["EmailApp"],
        "start_time": "2025-01-01 08",
        "events": [
            {"id": "e1", "kind": "environment", "at": 60, "app": "EmailApp",
             "tool": "deliver_email",
             "args": {"sender": "a", "subject": "s", "body": "b"}},
        ],
        "validation": [
            {"kind": "db_predicate", "app": "EmailApp", "store": "emails",
             "check": "count", "op": ">=", "value": 1},
        ],
    }


def messaging_doc():
    """One seeded conversation and one incoming message into it."""
    return {
        "schema_version": 1,
        "id": "shared_init",
        "apps": ["MessagingApp"],
        "start_time": "2025-01-01 08",
        "max_turns": 3,
        "init": {"MessagingApp": {"conversations": [
            {"title": "Ana", "participants": ["ana", "user"],
             "messages": [{"sender": "ana", "content": "hello",
                           "timestamp": "2025-01-01 07:00"}]}]}},
        "events": [
            {"id": "e1", "kind": "environment", "at": 60, "app": "MessagingApp",
             "tool": "receive_message",
             "args": {"sender": "ana", "message": "again", "conversation_id": "CV001"}},
        ],
        "validation": [
            {"kind": "db_predicate", "app": "MessagingApp", "store": "conversations",
             "check": "count", "op": "==", "value": 1},
        ],
    }


@pytest.mark.parametrize("block", [None, 4, {"noise_rate": -1}, {"failure_prob": 2},
                                   {"seed": "x"}, {"noise": 4}, {"failure_prob": "0.5"},
                                   {"seed": 1.9}, {"noise_rate": float("inf")},
                                   {"noise_rate": float("nan")},
                                   {"noise_rate": 4, "failure_prob": 0.2, "seed": 1}],
                         ids=["null", "number", "negative_noise", "failure_above_one",
                              "text_seed", "misspelt_key", "text_failure", "fractional_seed",
                              "infinite_noise", "nan_noise", "well_formed"])
def test_bad_stochastic_block_is_a_schema_error(block):
    """Noise, failures and seeds come only from the command line, so every
    `stochastic:` block, well formed or not, is refused and names the flags."""
    doc = dict(base_doc(), stochastic=block)
    with pytest.raises(SchemaError, match=r"^<scenario>\.stochastic: ") as caught:
        parse_scenario(doc)
    for flag in ("--noise-rate", "--failure-prob", "--seed"):
        assert flag in str(caught.value)


def _doc_with(part, key, value):
    """`base_doc` plus an `after` event and an action criterion, with `key`
    set to `value` in one of its mappings."""
    doc = base_doc()
    doc["events"].append({"id": "done", "kind": "completion", "after": {"anchor": "e1"}})
    doc["validation"].append({"kind": "action_forbidden", "tool": "EmailApp__delete_email"})
    target = {"top": doc, "event": doc["events"][0], "completion": doc["events"][1],
              "after": doc["events"][1]["after"], "predicate": doc["validation"][0],
              "action": doc["validation"][1]}[part]
    target[key] = value
    return doc


BAD_FIELDS = [
    ("top", "max_turn", 5, r"<scenario>: unknown keys \['max_turn'\]"),
    ("top", "init", [1], r"<scenario>\.init: expected dict"),
    ("top", "events", 5, r"<scenario>\.events: expected list"),
    ("top", "validation", {"kind": "db_predicate"}, r"<scenario>\.validation: expected list"),
    ("top", "title", ["t"], r"<scenario>\.title: expected str"),
    ("event", "notfy", "user", r"<scenario>\.events\[0\]: unknown keys \['notfy'\]"),
    ("event", "args", [1], r"<scenario>\.events\[0\]\.args: expected dict"),
    ("after", "ofset", 60, r"<scenario>\.events\[1\]\.after: unknown keys \['ofset'\]"),
    ("predicate", "goal", ["a"], r"<scenario>\.validation\[0\]\.goal: expected str"),
    ("predicate", "where", 5, r"<scenario>\.validation\[0\]\.where: expected dict"),
    ("predicate", "where", {1: "x"}, r"<scenario>\.validation\[0\]\.where: field names"),
    ("predicate", "op", ["=="], r"<scenario>\.validation\[0\]\.op: \['=='\] not one of"),
    ("predicate", "field", ["f"], r"<scenario>\.validation\[0\]\.field: expected str"),
    ("predicate", "value", "1", r"<scenario>\.validation\[0\]: check 'count' compares"),
    ("predicate", "op", "contains", r"<scenario>\.validation\[0\]: check 'count' compares"),
    ("predicate", "tool", "x", r"<scenario>\.validation\[0\]: unknown keys \['tool'\]"),
    ("action", "args_subset", 5, r"<scenario>\.validation\[1\]\.args_subset: expected dict"),
    ("action", "count_at_least", True, r"<scenario>\.validation\[1\]\.count_at_least: "),
    ("action", "count_atleast", 2,
     r"<scenario>\.validation\[1\]: unknown keys \['count_atleast'\]"),
    ("action", "kind", "action_wanted",
     r"<scenario>\.validation\[1\]\.kind: 'action_wanted' not one of"),
    ("action", "kind", ["action_required"],
     r"<scenario>\.validation\[1\]\.kind: \['action_required'\] not one of"),
    ("top", "start_time", "garbage", r"<scenario>\.start_time: expected a time as '%Y-%m-%d %H'"),
    ("top", "apps", [["EmailApp"]], r"<scenario>\.apps\[0\]: \['EmailApp'\] not one of"),
    ("event", "tool", ["deliver_email"], r"<scenario>\.events\[0\]\.tool: expected str"),
    ("event", "at", True, r"<scenario>\.events\[0\]\.at: expected float, got bool"),
    ("completion", "id", "e1", r"<scenario>\.events\[1\]\.id: duplicate event id 'e1'"),
    ("completion", "kind", "environment",
     r"<scenario>\.events\[1\]: non-completion events need 'app' and 'tool'"),
    ("predicate", "check", "all", r"<scenario>\.validation\[0\]: check 'all' needs a 'field'"),
    ("event", "app", "MessagingApp",
     r"<scenario>: event 'e1' targets app 'MessagingApp' not in the scenario's app list"),
    ("top", "init", {"MessagingApp": {}},
     r"<scenario>\.init: app 'MessagingApp' not in the scenario's app list"),
    ("top", "init", {"EmailApp": [1]},
     r"<scenario>\.init\.EmailApp: expected a mapping of store -> records"),
    ("top", "init", {"EmailApp": {"mails": []}},
     r"<scenario>\.init\.EmailApp: unknown store 'mails'; declared: \['emails'\]"),
    ("top", "init", {"EmailApp": {"emails": {}}},
     r"<scenario>\.init\.EmailApp\.emails: expected a list of records"),
    ("top", "init", {"EmailApp": {"emails": ["x"]}},
     r"<scenario>\.init\.EmailApp\.emails\[0\]: expected a record mapping"),
]


@pytest.mark.parametrize("part,key,value,where", BAD_FIELDS,
                         ids=[f"{part}.{key}={value!r}" for part, key, value, _ in BAD_FIELDS])
def test_bad_field_is_a_schema_error_not_a_traceback(part, key, value, where):
    """Each field is refused at load, before an oracle run or a verdict could
    end in a `TypeError` or an `AttributeError`, or drop a misspelt key."""
    assert parse_scenario(_doc_with("top", "title", "unchanged otherwise")).validation
    with pytest.raises(SchemaError, match="^" + where):
        scenario = parse_scenario(_doc_with(part, key, value))
        evaluate_success(run_oracle(scenario), scenario)


@pytest.mark.parametrize("key,value", [
    ("max_turns", "abc"), ("max_turns", 0), ("max_turns", -2), ("max_turns", True),
    ("max_turns", 2.0), ("tick_seconds", 1.9), ("tick_seconds", 0), ("tick_seconds", "x"),
    ("tick_seconds", None)])
def test_turn_budget_and_tick_must_be_integers_of_at_least_one(key, value):
    with pytest.raises(SchemaError, match=rf"^<scenario>\.{key}: "):
        parse_scenario(dict(base_doc(), **{key: value}))
    assert getattr(parse_scenario(dict(base_doc(), **{key: 1})), key) == 1


def test_worlds_do_not_share_init_records():
    scenario = parse_scenario(messaging_doc())
    init = copy.deepcopy(scenario.init)
    digests = []
    for _ in range(3):
        world = build_world(scenario)
        for _ in range(3):
            world.resolve_due_events()
        conv = world.db.store("MessagingApp", "conversations").get("CV001")
        assert [m["content"] for m in conv["messages"]] == ["hello", "again"]
        digests.append(world.db_digest())
    assert len(set(digests)) == 1
    assert scenario.init == init


def test_yaml_reader_matches_the_pure_python_safe_loader():
    paths = sorted((DATA / "scenarios").glob("*.yaml")) + sorted((DATA / "scripts").glob("*.yaml"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert load_yaml(path) == yaml.load(fh, Loader=yaml.SafeLoader), path


def _flow_records_doc(path, n):
    """A scenario-like document whose `init` holds `n` flow-style emails."""
    lines = ["id: big", "init:", "  EmailApp:", "    emails:"]
    lines += [f"      - {{folder: inbox, sender: s{i % 97}@x.example, subject: note {i}, "
              f"body: plain text {i * 7}, read: {str(i % 2 == 0).lower()}}}"
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    return path


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("text, broken", [("id: [1, 2, {a: b}]", False),
                                          ("id: [unclosed", True)])
def test_load_yaml_leaves_the_collector_as_it_found_it(tmp_path, enabled, text, broken):
    path = tmp_path / "doc.yaml"
    path.write_text(text, "utf-8")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if broken:
            with pytest.raises(yaml.YAMLError):
                load_yaml(path)
        else:
            assert load_yaml(path) == {"id": [1, 2, {"a": "b"}]}
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_load_yaml_starts_no_collection_on_a_large_document(tmp_path):
    path = _flow_records_doc(tmp_path / "big.yaml", 5000)
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        with open(path, encoding="utf-8") as fh:
            yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert gc.isenabled() and starts, "the plain parse should set off collections"
        starts.clear()
        doc = load_yaml(path)
        assert starts == []
    finally:
        gc.callbacks.remove(hook)
    assert len(doc["init"]["EmailApp"]["emails"]) == 5000


def _safe_load(path):
    with open(path, encoding="utf-8") as fh:
        return yaml.load(fh, Loader=yaml.SafeLoader)


def test_large_documents_dates_and_aliases_load_as_the_pure_python_loader_does(tmp_path):
    big = _flow_records_doc(tmp_path / "big.yaml", 5000)
    assert load_yaml(big) == _safe_load(big)
    odd = tmp_path / "odd.yaml"
    odd.write_text("day: 2025-06-01\n"
                   "base: &who {name: Ana, tags: [a, b]}\n"
                   "copies: [*who, *who]\n", "utf-8")
    doc = load_yaml(odd)
    assert doc == _safe_load(odd)
    assert str(doc["day"]) == "2025-06-01" and doc["copies"][1]["tags"] == ["a", "b"]


def test_bundled_scenarios_load_and_solve_in_oracle_mode():
    paths = sorted((DATA / "scenarios").glob("*.yaml"))
    assert len(paths) >= 6
    for path in paths:
        scenario = load_scenario(path)
        verdict = evaluate_success(run_oracle(scenario), scenario)
        assert verdict["success"], f"{scenario.id}: {verdict['criteria']}"


def test_empty_validation_rejected():
    doc = base_doc()
    doc["validation"] = []
    with pytest.raises(SchemaError, match="validation"):
        parse_scenario(doc)


def test_unknown_app_and_tool_diagnosed_with_location():
    doc = base_doc()
    doc["apps"] = ["NoSuchApp"]
    with pytest.raises(SchemaError, match=r"apps\[0\]"):
        parse_scenario(doc)
    doc = base_doc()
    doc["events"][0]["tool"] = "nonexistent"
    with pytest.raises(SchemaError, match="nonexistent"):
        parse_scenario(doc)
    doc = base_doc()
    doc["events"][0]["args"]["colour"] = "red"
    with pytest.raises(SchemaError, match="'e1'.*colour"):
        parse_scenario(doc)


def test_app_listed_twice_is_a_schema_error():
    doc = base_doc()
    doc["apps"] = ["EmailApp", "EmailApp"]
    with pytest.raises(SchemaError, match=r"^<scenario>\.apps\[1\]: app 'EmailApp' is listed"):
        parse_scenario(doc)


def test_anchor_must_name_earlier_event():
    doc = base_doc()
    doc["events"].append({"id": "e2", "kind": "environment",
                          "after": {"anchor": "ghost", "offset": 60},
                          "app": "EmailApp", "tool": "deliver_email",
                          "args": {"sender": "a", "subject": "s", "body": "b"}})
    with pytest.raises(SchemaError, match="anchor"):
        parse_scenario(doc)


def deliver(event_id, **schedule):
    return {"id": event_id, "kind": "environment", "app": "EmailApp",
            "tool": "deliver_email", "args": {"sender": "a", "subject": "s", "body": "b"},
            **schedule}


def test_relative_chain_resolves_to_known_times():
    # Oracle, by hand: base fires at 60; +120 puts the second at 180;
    # +60 after that puts the third at 240.
    doc = base_doc()
    doc["events"] = [deliver("a", at=60),
                     deliver("b", after={"anchor": "a", "offset": 120}),
                     deliver("c", after={"anchor": "b", "offset": 60})]
    scenario = parse_scenario(doc)
    assert [(e.id, e.at) for e in scenario.events] == [("a", 60), ("b", 180), ("c", 240)]


def test_self_anchor_and_negative_offset_rejected():
    doc = base_doc()
    doc["events"].append(deliver("e2", after={"anchor": "e2", "offset": 5}))
    with pytest.raises(SchemaError, match=r"events\[1\]\.after\.anchor"):
        parse_scenario(doc)
    doc = base_doc()
    doc["events"].append(deliver("e2", after={"anchor": "e1", "offset": -1}))
    with pytest.raises(SchemaError, match=r"events\[1\]\.after\.offset"):
        parse_scenario(doc)


def test_at_and_after_are_mutually_exclusive():
    doc = base_doc()
    doc["events"][0]["after"] = {"anchor": "x", "offset": 1}
    with pytest.raises(SchemaError, match="exactly one"):
        parse_scenario(doc)


def test_noise_kind_cannot_be_scripted():
    doc = base_doc()
    doc["events"][0]["kind"] = "noise"
    with pytest.raises(SchemaError, match="noise"):
        parse_scenario(doc)


def test_init_store_names_checked():
    doc = base_doc()
    doc["init"] = {"EmailApp": {"nonexistent_store": []}}
    with pytest.raises(SchemaError, match="nonexistent_store"):
        parse_scenario(doc)


def test_db_predicate_store_checked_at_load():
    doc = base_doc()
    doc["validation"][0]["store"] = "sent"
    with pytest.raises(SchemaError, match=r"validation\[0\]\.store.*'sent'"):
        parse_scenario(doc)
    doc = base_doc()
    doc["validation"].append({"kind": "db_predicate", "app": "CalendarApp",
                              "store": "events", "check": "count", "value": 0})
    with pytest.raises(SchemaError, match=r"validation\[1\]\.app.*CalendarApp"):
        parse_scenario(doc)


def test_schema_version_required():
    doc = base_doc()
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="schema_version"):
        parse_scenario(doc)


def test_yaml_error_becomes_parse_error(tmp_path):
    from phonesim.errors import ScenarioParseError
    bad = tmp_path / "bad.yaml"
    bad.write_text("id: [unclosed", "utf-8")
    with pytest.raises(ScenarioParseError):
        load_scenario(bad)


def test_goal_grouping():
    doc = base_doc()
    doc["validation"].append({"kind": "action_forbidden", "goal": "g2",
                              "tool": "EmailApp__delete_email"})
    scenario = parse_scenario(doc)
    assert scenario.goals() == ["main", "g2"]
