from importlib import resources
from pathlib import Path

import pytest
import yaml

from phonesim.errors import SchemaError
from phonesim.runner import evaluate_success, run_oracle
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


def test_yaml_reader_matches_the_pure_python_safe_loader():
    paths = sorted((DATA / "scenarios").glob("*.yaml")) + sorted((DATA / "scripts").glob("*.yaml"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            assert load_yaml(path) == yaml.load(fh, Loader=yaml.SafeLoader), path


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


def test_anchor_must_name_earlier_event():
    doc = base_doc()
    doc["events"].append({"id": "e2", "kind": "environment",
                          "after": {"anchor": "ghost", "offset": 60},
                          "app": "EmailApp", "tool": "deliver_email",
                          "args": {"sender": "a", "subject": "s", "body": "b"}})
    with pytest.raises(SchemaError, match="anchor"):
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
