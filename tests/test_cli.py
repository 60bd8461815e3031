import copy
import hashlib
import json
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

import phonesim.cli
import phonesim.llm
from phonesim.cli import build_parser, main
from phonesim.metrics import RECORD
from phonesim.policies import WAIT_ACTION, load_script
from phonesim.react import format_step
from phonesim.scenario import load_scenario
from phonesim.shapes import check
from test_scenario import base_doc

DATA = Path(str(resources.files("phonesim").joinpath("data")))
SCENARIOS = DATA / "scenarios"
SCRIPTS = DATA / "scripts"
README = Path(__file__).resolve().parent.parent / "README.md"
# Every file that the pack sweep below and its report write, in path order.
PACK_RUN_SHA256 = "560ee4b36ae3297a1105a5ea566c43650007bef976fdd6ff21a2bbf75e13c6ae"


def test_validate_pack_exits_zero(capsys):
    assert main(["validate", "--scenarios", str(SCENARIOS)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_validate_broken_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nid: bad\napps: [EmailApp]\n"
                   "start_time: '2025-01-01 08'\nvalidation: []\n", "utf-8")
    assert main(["validate", "--scenarios", str(bad)]) == 1


def test_run_and_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run",
        "--scenarios", str(SCENARIOS / "apartment_budget.yaml"),
        "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
        "--assistant-policy", f"scripted:{SCRIPTS / 'apartment_assistant.yaml'}",
        "--runs", "4", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    records_path = next(out.rglob("records.jsonl"))
    records = [json.loads(line) for line in records_path.read_text().splitlines()]
    assert len(records) == 4
    assert all(r["success"] for r in records)
    assert {r["run_index"] for r in records} == {0, 1, 2, 3}
    manifest = json.loads((records_path.parent / "manifest.json").read_text())
    assert manifest["runs"] == 4

    assert main(["report", "--records", str(out), "--runs", "4"]) == 0
    report = json.loads((out / "report.json").read_text())
    cell = report["cells"][0]
    assert cell["success_rate"] == 1.0
    assert cell["acceptance_rate"] == 1.0
    assert (out / "report.txt").exists() and (out / "report.csv").exists()


def test_run_is_deterministic_across_invocations(tmp_path):
    """The whole pack over a noise x failure sweep writes the same manifest
    and record bytes in every cell, on one thread, two, three or eight. The
    threads switch every few microseconds, so several fill one run's shared
    step texts and payload memos at once."""
    outs = []
    interval = sys.getswitchinterval()
    for jobs in ("1", "2", "3", "8"):
        out = tmp_path / f"jobs{jobs}"
        sys.setswitchinterval(1e-5)
        try:
            main(["run",
                  "--scenarios", str(SCENARIOS),
                  "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
                  "--assistant-policy", f"scripted:{SCRIPTS / 'apartment_assistant.yaml'}",
                  "--runs", "2", "--seed", "5", "--noise-rate", "0,2",
                  "--failure-prob", "0,0.1", "--jobs", jobs, "--out", str(out)])
        finally:
            sys.setswitchinterval(interval)
        outs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(outs[0]) == 8
    assert {"cell_noise2_fail0.1/manifest.json", "cell_noise2_fail0.1/records.jsonl"} <= set(outs[0])
    assert outs[0] == outs[1] == outs[2] == outs[3]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_pack_run_output_is_frozen(tmp_path, monkeypatch, jobs):
    """The pack sweep with the apartment scripts, run through the CLI, and its
    report write the same bytes on one thread or two, and the same as when
    this hash was taken. Paths are relative to the data directory, so the
    manifests and records that name the policy specs do not depend on where
    the package is installed."""
    monkeypatch.chdir(DATA)
    out = tmp_path / "out"
    assert main(["run", "--scenarios", "scenarios",
                 "--user-policy", "scripted:scripts/apartment_user.yaml",
                 "--assistant-policy", "scripted:scripts/apartment_assistant.yaml",
                 "--runs", "2", "--seed", "5", "--noise-rate", "0,2",
                 "--failure-prob", "0,0.1", "--jobs", jobs, "--out", str(out)]) == 0
    assert main(["report", "--records", str(out), "--runs", "2"]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(out).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PACK_RUN_SHA256


def test_no_shape_is_stricter_than_what_the_program_writes_or_ships(tmp_path, monkeypatch):
    """Every record of the pack sweep passes the record shape unchanged; every
    input file each benchmark workload generates loads, with the LLM config
    that `bench/run.py` writes; and every bundled scenario and script loads."""
    monkeypatch.chdir(DATA)
    out = tmp_path / "out"
    assert main(["run", "--scenarios", "scenarios",
                 "--user-policy", "scripted:scripts/apartment_user.yaml",
                 "--assistant-policy", "scripted:scripts/apartment_assistant.yaml",
                 "--runs", "2", "--seed", "5", "--noise-rate", "0,2",
                 "--failure-prob", "0,0.1", "--out", str(out)]) == 0
    lines = [line for path in sorted(out.rglob("records.jsonl"))
             for line in path.read_text("utf-8").splitlines()]
    assert len(lines) == 48
    for number, line in enumerate(lines, 1):
        record = json.loads(line)
        checked = check(record, RECORD, f"record {number}")
        assert {key: checked[key] for key in record} == record

    monkeypatch.chdir(README.parent)
    monkeypatch.syspath_prepend(str(README.parent / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave bench/ as it is
    from workloads import WORKLOADS
    for name, make in WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        workload = make(inputs, 1)
        if workload.llm_config:        # the text bench/run.py writes
            workload.llm_config.write_text("base_url: http://127.0.0.1:9/v1\n"
                                           "model: fake-apartment\ntimeout: 30\nretries: 1\n",
                                           "utf-8")
        args = build_parser().parse_args(workload.run_argv + ["--out", str(tmp_path / "x")])
        for path in phonesim.cli._collect_scenarios(args.scenarios):
            load_scenario(path)
        phonesim.cli._policy(args.user_policy, "user")
        phonesim.cli._policy(args.assistant_policy, "assistant")

    for path in sorted(SCENARIOS.glob("*.yaml")):
        load_scenario(path)
    for path in sorted(SCRIPTS.glob("*.yaml")):
        load_script(path)


def test_runs_of_one_scenario_do_not_share_init(tmp_path):
    """Every run starts from the scenario's own init, so each sees one
    incoming message, on one thread, on two, and on eight that switch every
    microsecond: the worlds share the init's lists, and none changes them."""
    scenario = tmp_path / "shared_init.yaml"
    scenario.write_text(
        "schema_version: 1\nid: shared_init\napps: [MessagingApp]\n"
        "start_time: '2025-01-01 08'\nmax_turns: 3\n"
        "init:\n  MessagingApp:\n    conversations:\n"
        "      - {title: Ana, participants: [ana, user],\n"
        "         messages: [{sender: ana, content: hello, timestamp: '2025-01-01 07:00'}]}\n"
        "events:\n"
        "  - {id: e1, kind: environment, at: 60, app: MessagingApp, tool: receive_message,\n"
        "     args: {sender: ana, message: again, conversation_id: CV001}}\n"
        "validation:\n"
        "  - {kind: db_predicate, app: MessagingApp, store: conversations,\n"
        "     where: {id: CV001}, check: all, field: messages, op: '==',\n"
        "     value: [{sender: ana, content: hello, timestamp: '2025-01-01 07:00'},\n"
        "             {sender: ana, content: again, timestamp: '2025-01-01 08:01'}]}\n",
        "utf-8")
    outs = []
    interval = sys.getswitchinterval()
    try:
        for jobs in ("1", "2", "8"):
            if jobs == "8":
                sys.setswitchinterval(1e-6)
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--scenarios", str(scenario), "--runs", "16",
                         "--jobs", jobs, "--out", str(out)]) == 0
            outs.append((out / "cell_noise0_fail0" / "records.jsonl").read_bytes())
    finally:
        sys.setswitchinterval(interval)
    assert outs[0] == outs[1] == outs[2]
    records = [json.loads(line) for line in outs[0].decode().splitlines()]
    assert len(records) == 16 and all(r["success"] for r in records)


def test_run_reads_each_script_once_per_scenario(tmp_path, monkeypatch):
    """A run reads each script file once, whatever the number of scenarios,
    and its policies leave the shared steps as they were read."""
    loaded = []
    real = phonesim.cli.load_script

    def counting(path):
        steps = real(path)
        loaded.append((str(path), steps, copy.deepcopy(steps)))
        return steps

    monkeypatch.setattr(phonesim.cli, "load_script", counting)
    code = main(["run",
                 "--scenarios", str(SCENARIOS / "apartment_budget.yaml"),
                 str(SCENARIOS / "email_reply.yaml"),
                 "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
                 "--assistant-policy", f"scripted:{SCRIPTS / 'apartment_assistant.yaml'}",
                 "--runs", "3", "--jobs", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    records = (tmp_path / "out" / "cell_noise0_fail0" / "records.jsonl").read_text()
    assert len(records.splitlines()) == 6
    assert sorted(path for path, _, _ in loaded) == [
        str(SCRIPTS / "apartment_assistant.yaml"), str(SCRIPTS / "apartment_user.yaml")]
    assert all(steps == as_read for _, steps, as_read in loaded)


def test_llm_records_name_the_configs_model(tmp_path, monkeypatch):
    """An `llm:` assistant's records name its config's model, and a mode-split
    spec is named by the spec itself. Each spec reads its config once a run."""
    config = tmp_path / "llm.yaml"
    config.write_text("base_url: http://127.0.0.1:9\nmodel: fake-model\n", "utf-8")
    monkeypatch.setattr(phonesim.llm.LLMClient, "complete",
                        lambda self, messages: format_step(WAIT_ACTION))
    loaded = []
    real = phonesim.llm.load_llm_config
    monkeypatch.setattr(phonesim.llm, "load_llm_config",
                        lambda path: loaded.append(path) or real(path))
    for spec, model in ((f"llm:{config}", "fake-model"),
                        (f"observe=llm:{config}", f"observe=llm:{config}")):
        out = tmp_path / str(len(loaded))
        assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                     str(SCENARIOS / "reject_path.yaml"), "--assistant-policy", spec,
                     "--runs", "2", "--out", str(out)]) == 0
        records = (out / "cell_noise0_fail0" / "records.jsonl").read_text().splitlines()
        assert [json.loads(line)["model"] for line in records] == [model] * 4
    assert loaded == [str(config)] * 2


def test_readme_commands_parse():
    text = README.read_text("utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("phonesim "):
                commands.append(shlex.split(line))
    assert len(commands) >= 4
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_importing_cli_leaves_the_http_modules_unloaded():
    # A fresh interpreter, so no other test's imports can hide the regression.
    # `LLMClient.complete` imports them on its first call: about 30 ms that a
    # run without an llm: policy need not pay.
    src = Path(phonesim.__file__).resolve().parent.parent
    code = ("import sys, phonesim.cli; "
            "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_creates_one_directory_per_cell(tmp_path):
    out = tmp_path / "sweep"
    code = main(["run",
                 "--scenarios", str(SCENARIOS / "reject_path.yaml"),
                 "--user-policy", "noop", "--assistant-policy", "noop",
                 "--runs", "1", "--noise-rate", "0,2", "--failure-prob", "0,0.1",
                 "--jobs", "2", "--out", str(out)])
    assert code == 0
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == ["cell_noise0_fail0", "cell_noise0_fail0.1",
                     "cell_noise2_fail0", "cell_noise2_fail0.1"]
    for cell in cells:
        records = [json.loads(line) for line in
                   (out / cell / "records.jsonl").read_text().splitlines()]
        assert records[0]["noise_rate"] in (0.0, 2.0)
        assert records[0]["failure_prob"] in (0.0, 0.1)


def test_oracle_run_writes_event_logs(tmp_path):
    out = tmp_path / "oracle"
    code = main(["run", "--oracle",
                 "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                 "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in
               (out / "oracle_records.jsonl").read_text().splitlines()]
    assert records[0]["success"] is True
    assert (out / "oracle_email_reply.eventlog.jsonl").exists()


def test_report_uneven_counts_exits_one(tmp_path, capsys):
    out = tmp_path / "r"
    out.mkdir()
    with open(out / "records.jsonl", "w") as fh:
        for i, sid in enumerate(["a", "a", "b"]):
            fh.write(json.dumps({
                "scenario_id": sid, "run_index": i % 2, "seed": 0, "success": True,
                "proposals": [], "read_actions_observe": 0, "read_actions_total": 0,
                "turns_used": 1, "model": "m", "noise_rate": 0, "failure_prob": 0,
            }) + "\n")
    assert main(["report", "--records", str(out), "--runs", "2"]) == 1


# A record with every key the program writes; the rows below break one.
FULL_RECORD = json.dumps({
    "scenario_id": "a", "run_index": 0, "seed": 0, "noise_rate": 0.0, "failure_prob": 0.0,
    "model": "noop", "success": True, "goals": {"main": True}, "proposals": [],
    "read_actions_observe": 0, "read_actions_total": 0, "turns_used": 1})


@pytest.mark.parametrize("bad, message", [
    ("{not json", "not JSON (Expecting property name enclosed in double quotes at column 2)"),
    ('{"scenario_id": "a", "success": true}', "record: missing required field 'run_index'"),
    ("[1, 2]", "record: expected dict, got list"),
    (FULL_RECORD.replace('"proposals": []', '"proposals": [{"turn": 1}]'),
     "record.proposals[0]: missing required field 'status'"),
    (FULL_RECORD.replace('"proposals": []', '"proposals": {"status": "accepted"}'),
     "record.proposals: expected list, got dict"),
    (FULL_RECORD.replace('"turns_used": 1', '"turns_used": "3"'),
     "record.turns_used: expected int, got str"),
    (FULL_RECORD.replace('"proposals": []', '"proposals": [{"turn": 1, "status": "pending"}]'),
     "record.proposals[0].status: 'pending' not one of ('accepted', 'rejected', 'truncated')"),
], ids=["not-json", "no-run-index", "not-an-object", "proposal-without-status",
        "proposals-not-a-list", "text-turns", "unknown-status"])
def test_report_refuses_a_bad_record_line_in_one_line(tmp_path, capsys, bad, message):
    good = json.dumps({"scenario_id": "a", "run_index": 0, "success": True, "turns_used": 1,
                       "read_actions_total": 0, "read_actions_observe": 0})
    cell = tmp_path / "r" / "cell"
    cell.mkdir(parents=True)
    (cell / "records.jsonl").write_text(f"{good}\n\n{bad}\n", "utf-8")
    assert main(["report", "--records", str(tmp_path / "r"), "--runs", "1"]) == 1
    assert capsys.readouterr().err == f"error: {cell / 'records.jsonl'}:3: {message}\n"
    assert sorted(p.name for p in cell.parent.rglob("*")) == ["cell", "records.jsonl"]


def test_failing_event_aborts_only_its_own_episode(tmp_path):
    broken = tmp_path / "broken_move.yaml"
    broken.write_text(
        "schema_version: 1\nid: broken_move\napps: [EmailApp]\n"
        "start_time: '2025-01-01 08'\nmax_turns: 4\n"
        "events:\n"
        "  - {id: e-move, kind: environment, at: 60, app: EmailApp,\n"
        "     tool: move_email, args: {email_id: E999, folder: archive}}\n"
        "validation:\n"
        "  - {kind: db_predicate, app: EmailApp, store: emails, check: count,\n"
        "     op: '>=', value: 0}\n", "utf-8")
    out = tmp_path / "out"
    code = main(["run", "--scenarios", str(broken), str(SCENARIOS / "email_reply.yaml"),
                 "--runs", "2", "--jobs", "2", "--out", str(out)])
    assert code == 2
    records = [json.loads(line) for line in
               (out / "cell_noise0_fail0" / "records.jsonl").read_text().splitlines()]
    by_id = {}
    for record in records:
        by_id.setdefault(record["scenario_id"], []).append(record)
    assert sorted(by_id) == ["broken_move", "email_reply"] and len(records) == 4
    for record in by_id["broken_move"]:
        assert "E999" in record["aborted_reason"] and record["turns_used"] == 1
    assert not any("aborted_reason" in r for r in by_id["email_reply"])


def test_run_searches_fields_that_are_missing_or_not_strings(tmp_path):
    """An init email whose subject is a number and which has no body, and a
    conversation with a numeric title and participant, are searched as text:
    the run writes its record instead of ending in a traceback."""
    scenario = tmp_path / "odd_fields.yaml"
    scenario.write_text(
        "schema_version: 1\nid: odd_fields\napps: [EmailApp, MessagingApp]\n"
        "start_time: '2025-01-01 08'\nmax_turns: 2\n"
        "init:\n  EmailApp:\n    emails:\n      - {folder: inbox, subject: 2024}\n"
        "  MessagingApp:\n    conversations:\n"
        "      - {title: 7, participants: [ana, 12], messages: []}\n"
        "validation:\n"
        "  - {kind: action_required, tool: EmailApp__search_emails, actor: assistant}\n"
        "  - {kind: action_required, tool: MessagingApp__search_conversations}\n", "utf-8")
    user = tmp_path / "user.yaml"
    user.write_text(
        "- {action: SystemApp__open_app, action_input: {app_name: MessagingApp}}\n"
        "- {action: MessagingApp__search_conversations, action_input: {query: '12'}}\n",
        "utf-8")
    assistant = tmp_path / "assistant.yaml"
    assistant.write_text(
        "- {action: EmailApp__search_emails, action_input: {query: '2024'}}\n", "utf-8")
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(scenario), "--user-policy", f"scripted:{user}",
                 "--assistant-policy", f"scripted:{assistant}", "--out", str(out)]) == 0
    [record] = [json.loads(line) for line in
                (out / "cell_noise0_fail0" / "records.jsonl").read_text().splitlines()]
    assert record["success"] and "aborted_reason" not in record


def _run_fails_with_one_line(capsys, argv):
    """`phonesim run` ends with exit code 1 and one `error:` line, no traceback."""
    assert main(["run", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("check, op", [("all", ">="), ("any", "contains")])
def test_criterion_that_cannot_compare_its_field_fails_in_one_line(tmp_path, capsys,
                                                                   check, op):
    """A criterion whose `value` cannot be compared with the record field is
    one FAIL line from `validate`, and in `run` the reason its episode
    aborted, naming the scenario, the goal, the op and both types."""
    doc = base_doc()
    doc["validation"].append({"kind": "db_predicate", "goal": "subject-check",
                              "app": "EmailApp", "store": "emails", "check": check,
                              "field": "subject", "op": op, "value": 3})
    scenario = tmp_path / "mismatch.yaml"
    scenario.write_text(yaml.safe_dump(doc), "utf-8")
    message = (f"t: criterion 'subject-check': op '{op}' cannot compare the field "
               f"'subject' (str) with the value 3 (int)")
    assert main(["validate", "--scenarios", str(scenario)]) == 1
    assert capsys.readouterr().out == f"FAIL {scenario}: {message}\n"
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(scenario), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    [record] = [json.loads(line) for line in
                (out / "cell_noise0_fail0" / "records.jsonl").read_text().splitlines()]
    assert record["aborted_reason"] == f"scoring failed: {message}"
    assert record["success"] is False
    assert record["goals"] == dict.fromkeys(["main", "subject-check"], False)


def test_a_criterion_that_cannot_score_aborts_only_its_own_episodes(tmp_path):
    """A copy of `email_reply` with a criterion that cannot compare its field,
    run beside the original: every record is written, the copy's episodes
    abort, and `email_reply`'s records are those of a run without the copy."""
    doc = yaml.safe_load((SCENARIOS / "email_reply.yaml").read_text("utf-8"))
    doc["id"] = "email_reply_mismatch"
    doc["validation"].append({"kind": "db_predicate", "app": "EmailApp", "store": "emails",
                              "check": "all", "field": "subject", "op": ">=", "value": 3})
    broken = tmp_path / "email_reply_mismatch.yaml"
    broken.write_text(yaml.safe_dump(doc), "utf-8")
    runs = {}
    for name, scenarios, code in (("alone", [], 0), ("beside", [str(broken)], 2)):
        out = tmp_path / name
        assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"), *scenarios,
                     "--runs", "2", "--jobs", "2", "--out", str(out)]) == code
        runs[name] = [json.loads(line) for line in
                      (out / "cell_noise0_fail0" / "records.jsonl").read_text().splitlines()]
    assert len(runs["beside"]) == 4
    assert [r for r in runs["beside"] if r["scenario_id"] == "email_reply"] == runs["alone"]
    for record in runs["beside"][2:]:
        assert record["scenario_id"] == "email_reply_mismatch"
        assert record["aborted_reason"].startswith(
            "scoring failed: email_reply_mismatch: criterion 'main': op '>='")
        assert record["success"] is False and not any(record["goals"].values())


def test_run_reports_a_scenario_that_fails_its_schema(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nid: bad\napps: [EmailApp]\n"
                   "start_time: '2025-01-01 08'\nvalidation: []\n", "utf-8")
    err = _run_fails_with_one_line(capsys, ["--scenarios", str(bad),
                                            "--out", str(tmp_path / "out")])
    assert "validation: at least one criterion is required" in err


def test_run_reports_missing_or_broken_policy_files(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text("steps: [unclosed\n", "utf-8")
    not_config = tmp_path / "not_config.yaml"
    not_config.write_text("model: m\ncolour: blue\n", "utf-8")
    # LLM configs with one field of the wrong type or out of range.
    bad_fields = []
    for key, value in (("base_url", 5), ("base_url", "http//x"), ("api_key_env", 5),
                       ("timeout", "soon"), ("timeout", -1), ("timeout", float("inf")),
                       ("model", ["m"]), ("temperature", "hot")):
        bad_fields.append(tmp_path / f"bad_{len(bad_fields)}.yaml")
        bad_fields[-1].write_text(yaml.safe_dump(
            {"base_url": "http://127.0.0.1:9/v1", "model": "m", "retries": 1, key: value}), "utf-8")
    scenario = str(SCENARIOS / "email_reply.yaml")
    for spec in (f"scripted:{tmp_path / 'missing.yaml'}", f"scripted:{broken}",
                 f"llm:{tmp_path / 'missing.yaml'}", f"llm:{broken}", f"llm:{not_config}",
                 *(f"llm:{path}" for path in bad_fields)):
        side = "--assistant-policy" if spec.startswith("llm:") else "--user-policy"
        err = _run_fails_with_one_line(capsys, ["--scenarios", scenario, side, spec,
                                                "--out", str(tmp_path / "out")])
        assert spec.partition(":")[2] in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("- {action: noop, when: bogus}", ".steps[0].when: 'bogus' not one of ('proposal_pending', "),
    ("- {action: noop}\n- {action: SystemApp__open_app, action_imput: {app_name: EmailApp}}",
     ".steps[1]: unknown keys ['action_imput']; allowed: ['action', 'action_input', "),
    ("steps: [{action: noop}]\nstep: []", ": unknown keys ['step']; allowed: ['steps']"),
    ("- {thought: no action}", ".steps[0]: missing required field 'action'"),
    ("- {action: ''}", ".steps[0].action: expected a non-empty str"),
    ("- {action: [noop]}", ".steps[0].action: expected str, got list"),
    ("- {action: noop, action_input: [1]}", ".steps[0].action_input: expected dict, got list"),
    ("- {action: noop, action_input: null}",
     ".steps[0].action_input: expected dict, got NoneType"),
    ("- {action: noop, thought: [a, b]}", ".steps[0].thought: expected str, got list"),
    ("- noop", ".steps[0]: expected dict, got str"),
], ids=["unknown-gate", "misspelt-key", "top-level-key", "no-action", "empty-action",
        "list-action", "list-input", "null-input", "list-thought", "bare-string"])
def test_run_refuses_a_bad_script_before_writing(tmp_path, capsys, text, message):
    """`load_script` names the script and the step, and `run` stops before
    it writes anything; at run time such a step would be a parse error that
    uses up the next step, or run with empty input."""
    script = tmp_path / "bad.yaml"
    script.write_text(text + "\n", "utf-8")
    err = _run_fails_with_one_line(capsys, ["--scenarios", str(SCENARIOS / "email_reply.yaml"),
                                            "--user-policy", f"scripted:{script}",
                                            "--noise-rate", "0,2", "--out", str(tmp_path / "out")])
    assert err.startswith(f"error: {script}{message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_directory_with_no_scenarios_fails(tmp_path, capsys, command):
    extra = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert main([command, "--scenarios", str(tmp_path), *extra]) == 1
    assert capsys.readouterr().err == f"error: no scenarios found in {tmp_path}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [("--max-turns", "0"), ("--max-turns", "-1"),
                                        ("--jobs", "0"), ("--runs", "-1"),
                                        ("--jobs", "two")])
def test_run_rejects_out_of_range_counts(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--scenarios", "s", "--out", "o", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer of at least" in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ("execute=noop", "observe=SPEC is required"),
    ("observe=noop,bad", "use observe=SPEC[,execute=SPEC]"),
    ("observe=noop,observe=noop", "use observe=SPEC[,execute=SPEC]"),
    ("observe=noop,report=noop", "use observe=SPEC[,execute=SPEC]"),
    ("observe=", "use observe=SPEC[,execute=SPEC]"),
    ("bogus", "unknown policy spec 'bogus'"),
    ("report=noop", "unknown policy spec 'report=noop'"),
    ("observe=bogus", "unknown policy spec 'bogus'"),
])
def test_run_reports_a_bad_policy_spec_in_one_line(tmp_path, capsys, spec, message):
    err = _run_fails_with_one_line(capsys, ["--scenarios", str(SCENARIOS / "email_reply.yaml"),
                                            "--assistant-policy", spec,
                                            "--out", str(tmp_path / "out")])
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--noise-rate", "0,abc", "could not convert string to float: 'abc'; got '0,abc'"),
    ("--noise-rate", "", "expected a comma list of numbers, got ''"),
    ("--noise-rate", " , ", "expected a comma list of numbers"),
    ("--noise-rate", "0,-1", "noise_rate must be finite and >= 0; got '0,-1'"),
    ("--noise-rate", "inf", "noise_rate must be finite and >= 0"),
    ("--noise-rate", "nan", "noise_rate must be finite and >= 0"),
    ("--failure-prob", "2", "failure_prob must be in [0, 1]; got '2'"),
    ("--failure-prob", "-0.1", "failure_prob must be in [0, 1]"),
    ("--failure-prob", "nan", "failure_prob must be in [0, 1]"),
])
def test_run_rejects_bad_sweep_values(flag, value, message, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--scenarios", "s", "--out", "o", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,name", [
    ("--noise-rate", "0,0", "noise_rate 0"),
    ("--noise-rate", "2,2.0", "noise_rate 2"),
    ("--noise-rate", "0.1234567,0.1234568", "noise_rate 0.123457"),
    ("--failure-prob", "0.1,0,.1", "failure_prob 0.1"),
])
def test_run_refuses_two_values_with_one_cell_name(tmp_path, capsys, flag, value, name):
    """Values that print alike under `:g` would write two records for one run
    into one cell, so argparse refuses them before anything is written."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"), "--runs", "1",
              flag, value, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {flag}: two values name the cell {name}; got {value!r}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_scenario_given_twice(tmp_path, capsys):
    """The same path twice, or two files with one id, is refused with one
    line before any cell is written."""
    scenario = SCENARIOS / "email_reply.yaml"
    copy_dir = tmp_path / "copies"
    copy_dir.mkdir()
    (copy_dir / "renamed.yaml").write_bytes(scenario.read_bytes())
    for paths in ([scenario, scenario], [scenario, copy_dir]):
        err = _run_fails_with_one_line(capsys, ["--scenarios", *map(str, paths), "--runs", "1",
                                                "--out", str(tmp_path / "out")])
        assert "two scenarios have the id 'email_reply'" in err
    assert not (tmp_path / "out").exists()


def test_oracle_run_refuses_a_scenario_given_twice(tmp_path, capsys):
    """The check runs before the oracle branch, whose event log per id one
    scenario would overwrite with another's."""
    scenario = str(SCENARIOS / "email_reply.yaml")
    err = _run_fails_with_one_line(capsys, ["--oracle", "--scenarios", scenario, scenario,
                                            "--out", str(tmp_path / "out")])
    assert "two scenarios have the id 'email_reply'" in err
    assert not (tmp_path / "out").exists()


def test_run_with_a_bad_sweep_value_writes_nothing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
              "--failure-prob", "0,2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_run_parses_sweep_lists():
    args = build_parser().parse_args(["run", "--scenarios", "s", "--out", "o",
                                      "--noise-rate", "0, 2.5,", "--failure-prob", "1"])
    assert (args.noise_rate, args.failure_prob) == ([0.0, 2.5], [1.0])
    args = build_parser().parse_args(["run", "--scenarios", "s", "--out", "o"])
    assert (args.noise_rate, args.failure_prob) == ([0.0], [0.0])


def test_run_accepts_the_smallest_counts():
    args = build_parser().parse_args(["run", "--scenarios", "s", "--out", "o", "--runs", "0",
                                      "--max-turns", "1", "--jobs", "1"])
    assert (args.runs, args.max_turns, args.jobs) == (0, 1, 1)


def test_run_with_no_runs_writes_an_empty_records_file_per_cell(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenarios", str(SCENARIOS / "email_reply.yaml"),
                 "--runs", "0", "--noise-rate", "0,2", "--out", str(out)]) == 0
    assert f"wrote 0 run records across 2 cells under {out}" in capsys.readouterr().out
    cells = sorted(p.name for p in out.iterdir())
    assert cells == ["cell_noise0_fail0", "cell_noise2_fail0"]
    for cell in cells:
        assert sorted(p.name for p in (out / cell).iterdir()) == ["manifest.json",
                                                                   "records.jsonl"]
        assert (out / cell / "records.jsonl").read_bytes() == b""


def test_mode_split_assistant_spec_matches_the_unsplit_script(tmp_path):
    """`observe=SPEC,execute=SPEC` from the README: the apartment script, cut
    into its ungated steps and its `mode:execute` steps, writes the same
    records as the whole script."""
    steps = load_script(SCRIPTS / "apartment_assistant.yaml")
    execute = [s for s in steps if s.get("when") == "mode:execute"]
    assert execute and len(execute) < len(steps)
    for name, part in (("observe", [s for s in steps if s not in execute]),
                       ("execute", execute)):
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump({"steps": part}), "utf-8")
    split = (f"observe=scripted:{tmp_path / 'observe.yaml'},"
             f"execute=scripted:{tmp_path / 'execute.yaml'}")
    # A path with "=" in it names one script, not a split.
    whole = tmp_path / "whole=script.yaml"
    whole.write_text(yaml.safe_dump(steps), "utf-8")
    records = []
    for spec in (f"scripted:{whole}", split):
        out = tmp_path / str(len(records))
        assert main(["run", "--scenarios", str(SCENARIOS / "apartment_budget.yaml"),
                     "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
                     "--assistant-policy", spec, "--runs", "3", "--seed", "4",
                     "--noise-rate", "0,2", "--out", str(out)]) == 0
        cells = sorted(out.glob("*/records.jsonl"))
        assert len(cells) == 2
        # The records name the policy spec as the model; all else must match.
        records.append([{**json.loads(line), "model": None}
                        for path in cells for line in path.read_text().splitlines()])
    assert len(records[0]) == 6 and all(r["success"] for r in records[0])
    assert records[0] == records[1]
