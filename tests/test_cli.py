import json
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import phonesim.cli
from phonesim.cli import build_parser, main

DATA = Path(str(resources.files("phonesim").joinpath("data")))
SCENARIOS = DATA / "scenarios"
SCRIPTS = DATA / "scripts"
README = Path(__file__).resolve().parent.parent / "README.md"


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
    """The whole pack over a noise x failure sweep writes the same bytes in
    every cell, whether the episodes run on one thread or two."""
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        main(["run",
              "--scenarios", str(SCENARIOS),
              "--user-policy", f"scripted:{SCRIPTS / 'apartment_user.yaml'}",
              "--assistant-policy", f"scripted:{SCRIPTS / 'apartment_assistant.yaml'}",
              "--runs", "2", "--seed", "5", "--noise-rate", "0,2",
              "--failure-prob", "0,0.1", "--jobs", jobs, "--out", str(out)])
        outs.append({p.parent.name: p.read_bytes()
                     for p in sorted(out.glob("*/records.jsonl"))})
    assert len(outs[0]) == 4
    assert outs[0] == outs[1]


def test_run_reads_each_script_once_per_scenario(tmp_path, monkeypatch):
    calls = []
    real = phonesim.cli.load_script

    def counting(path):
        calls.append(str(path))
        return real(path)

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
    assert len(calls) <= 4         # one per (policy spec, scenario)


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


def test_importing_cli_leaves_requests_unloaded():
    # A fresh interpreter, so no other test's imports can hide the regression.
    src = Path(phonesim.__file__).resolve().parent.parent
    code = "import sys, phonesim.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"


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
