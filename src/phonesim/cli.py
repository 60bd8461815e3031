"""Command-line entry point: validate scenario packs, run benchmark sweeps,
and aggregate reports.

Exit codes: 0 success; 1 input, validation or metric error; 2 aborted runs
present (a failing event, a failing policy call or a criterion that cannot
be scored aborts only its own episode), or a usage error that argparse
reports before anything runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import llm as llm_mod
from .errors import PhonesimError
from .fsm import render_app_reference
from .metrics import RECORD, aggregate_report
from .policies import NOOP_ACTION, WAIT_ACTION, NoopPolicy, ScriptedPolicy, load_script
from .report import render_csv, render_json, render_table
from .runner import evaluate_success, run_episode, run_oracle
from .scenario import Scenario, load_scenario
from .shapes import check
from .stochastic import StochasticConfig, run_seed


def _collect_scenarios(path_args: list[str]) -> list[Path]:
    paths: list[Path] = []
    for arg in path_args:
        p = Path(arg)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.yaml")) + sorted(p.glob("*.yml")))
        else:
            paths.append(p)
    if not paths:
        raise PhonesimError(f"no scenarios found in {' '.join(path_args)}")
    return paths


# ----------------------------------------------------------------------
# Policy construction

def _policy(spec: str, side: str):
    """Parse a policy spec once per run: 'noop' | 'scripted:<path>' |
    'llm:<config path>', and for the assistant 'observe=SPEC[,execute=SPEC]'
    for a mode-split policy. Files are read here. Returns `(make, model)`:
    `make(scenario)` builds one episode's fresh policy, and `model` names the
    policy in run records (an `llm:` config's model, else the spec)."""
    if side == "assistant" and spec.partition("=")[0] in ("observe", "execute"):
        parts: dict[str, str] = {}
        for item in spec.split(","):
            key, eq, value = item.partition("=")
            if not (eq and value) or key not in ("observe", "execute") or key in parts:
                raise PhonesimError(
                    f"bad assistant policy {spec!r}: use observe=SPEC[,execute=SPEC]")
            parts[key] = value
        if "observe" not in parts:
            raise PhonesimError(f"bad assistant policy {spec!r}: observe=SPEC is required")
        observe = _one_policy(parts["observe"], side)[0]
        execute = _one_policy(parts["execute"], side)[0] if "execute" in parts else observe
        return (lambda scenario: _ModeSplitPolicy(observe(scenario), execute(scenario))), spec
    return _one_policy(spec, side)


def _one_policy(spec: str, side: str):
    idle = WAIT_ACTION if side == "assistant" else NOOP_ACTION
    kind, _, arg = spec.partition(":")
    if kind == "noop":
        return (lambda scenario: NoopPolicy(idle)), spec
    if kind == "scripted":
        steps = load_script(arg)
        texts = [None] * len(steps)   # each step's text, rendered on first use
        return (lambda scenario: ScriptedPolicy(steps, idle, texts)), spec
    if kind == "llm":
        config = llm_mod.load_llm_config(arg)

        def make(scenario: Scenario):
            context = {
                "AVAILABLE_APPS": ", ".join(scenario.apps),
                "APP_REFERENCE": render_app_reference(
                    [scenario.machines[app] for app in scenario.apps]),
                "START_TIME": scenario.start_time,
                "TASK_DESCRIPTION": scenario.assistant_instructions,
            }
            client = llm_mod.LLMClient(config)
            if side == "assistant":
                return llm_mod.LLMAssistantPolicy(client, context)
            return llm_mod.LLMUserPolicy(client, goal=scenario.user_goal, context=context)
        return make, config.model
    raise PhonesimError(f"unknown policy spec {spec!r} (use noop | scripted:PATH | llm:CONFIG)")


class _ModeSplitPolicy:
    def __init__(self, observe, execute):
        self.observe = observe
        self.execute = execute

    def act(self, view, feedback=None):
        policy = self.execute if getattr(view, "mode", "") == "execute" else self.observe
        return policy.act(view, feedback)


# ----------------------------------------------------------------------
# Subcommands

def cmd_validate(args) -> int:
    status = 0
    for path in _collect_scenarios(args.scenarios):
        try:
            scenario = load_scenario(path)
            world = run_oracle(scenario, seed=args.seed)
            verdict = evaluate_success(world, scenario)
        except PhonesimError as exc:
            print(f"FAIL {path}: {exc}")
            status = 1
            continue
        for i, item in enumerate(verdict["criteria"]):
            mark = "pass" if item["passed"] else "FAIL"
            print(f"{mark} {scenario.id} criterion[{i}] "
                  f"({item['kind']}, goal={item['goal']})")
        if not verdict["success"]:
            status = 1
    return status


def cmd_run(args) -> int:
    out = Path(args.out)
    scenarios = [load_scenario(p) for p in _collect_scenarios(args.scenarios)]
    ids = [s.id for s in scenarios]
    repeated = next((i for i in ids if ids.count(i) > 1), None)
    if repeated is not None:
        raise PhonesimError(f"two scenarios have the id {repeated!r}; a run takes each once")
    if args.oracle:
        return _run_oracle_mode(args, scenarios, out)

    make_user, _ = _policy(args.user_policy, "user")
    make_assistant, model = _policy(args.assistant_policy, "assistant")

    # Tasks in the order records are written: cell, scenario id, run index.
    cells, tasks = [], []
    for noise in args.noise_rate:
        for fail in args.failure_prob:
            cell = out / f"cell_noise{noise:g}_fail{fail:g}"
            cell.mkdir(parents=True, exist_ok=True)
            cells.append(cell)
            manifest = {
                "scenarios": ids,
                "user_policy": args.user_policy,
                "assistant_policy": args.assistant_policy,
                "runs": args.runs, "seed": args.seed,
                "noise_rate": noise, "failure_prob": fail,
                "max_turns": args.max_turns,
            }
            (cell / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
            for scenario in sorted(scenarios, key=lambda s: s.id):
                for run_index in range(args.runs):
                    tasks.append((scenario, run_index, noise, fail))

    def execute(task):
        scenario, run_index, noise, fail = task
        record = run_episode(scenario, make_user(scenario), make_assistant(scenario),
                             noise_rate=noise, failure_prob=fail, run_index=run_index,
                             seed=run_seed(args.seed, scenario.id, run_index),
                             max_turns=args.max_turns)
        return {**record, "model": model}

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        records = list(pool.map(execute, tasks))
    # `map` keeps the task order, so each cell's records are one slice; with
    # `--runs 0` every slice is empty and each cell gets an empty file.
    per_cell = len(scenarios) * args.runs
    for i, cell in enumerate(cells):
        with open(cell / "records.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record, sort_keys=True) + "\n"
                          for record in records[i * per_cell:(i + 1) * per_cell])
    print(f"wrote {len(records)} run records across {len(cells)} cells under {out}")
    return 2 if any(record.get("aborted_reason") for record in records) else 0


def _run_oracle_mode(args, scenarios, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    records = []
    for scenario in scenarios:
        try:
            world = run_oracle(scenario, seed=args.seed)
            verdict = evaluate_success(world, scenario)
        except PhonesimError as exc:
            print(f"FAIL {scenario.id}: {exc}")
            status = 1
            continue
        records.append({"scenario_id": scenario.id, "mode": "oracle",
                        "success": verdict["success"], "goals": verdict["goals"],
                        "db_digest": world.db_digest()})
        (out / f"oracle_{scenario.id}.eventlog.jsonl").write_text(
            world.export_event_log() + "\n", "utf-8")
        if not verdict["success"]:
            status = 1
    with open(out / "oracle_records.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return status


def _read_records(path: Path) -> list[dict]:
    """The records of one records.jsonl. A line that is not JSON, or not a
    record of the `RECORD` shape, is one error naming the line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise PhonesimError(
                    f"{path}:{number}: not JSON ({exc.msg} at column {exc.colno})") from None
            records.append(check(record, RECORD, f"{path}:{number}: record"))
    return records


def cmd_report(args) -> int:
    root = Path(args.records)
    records = []
    for path in sorted(root.rglob("records.jsonl")):
        records.extend(_read_records(path))
    if not records:
        print(f"no records found under {root}", file=sys.stderr)
        return 1
    report = aggregate_report(records, k=args.runs)
    out = Path(args.out) if args.out else root
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(render_json(report), "utf-8")
    (out / "report.txt").write_text(render_table(report), "utf-8")
    (out / "report.csv").write_text(render_csv(report), "utf-8")
    print(render_table(report))
    return 0


# ----------------------------------------------------------------------

def _at_least(low: int):
    """An argparse type: an integer of at least `low`."""
    def integer(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {text!r}")
        return int(text)
    return integer


def _levels(field: str):
    """An argparse type: a non-empty comma list of sweep values, each checked
    by building a `StochasticConfig` with it as `field`. A value names its
    cell as `{value:g}`, so no two values may share that name."""
    def levels(text: str) -> list[float]:
        try:
            values = [float(x) for x in text.split(",") if x.strip()]
            for value in values:
                StochasticConfig(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{exc}; got {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}")
        names = [f"{value:g}" for value in values]
        repeated = next((name for name in names if names.count(name) > 1), None)
        if repeated is not None:
            raise argparse.ArgumentTypeError(
                f"two values name the cell {field} {repeated}; got {text!r}")
        return values
    return levels


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phonesim",
        description="Deterministic phone-environment benchmark for proactive assistants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="load scenarios and check them in oracle mode")
    p_val.add_argument("--scenarios", nargs="+", required=True)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="execute policy episodes and write run records")
    p_run.add_argument("--scenarios", nargs="+", required=True)
    p_run.add_argument("--user-policy", default="noop")
    p_run.add_argument("--assistant-policy", default="noop")
    p_run.add_argument("--runs", type=_at_least(0), default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--noise-rate", type=_levels("noise_rate"), default="0",
                       help="events per simulated minute; comma list sweeps cells")
    p_run.add_argument("--failure-prob", type=_levels("failure_prob"), default="0",
                       help="per-call failure probability; comma list sweeps cells")
    p_run.add_argument("--max-turns", type=_at_least(1), default=None)
    p_run.add_argument("--jobs", type=_at_least(1), default=1)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--oracle", action="store_true",
                       help="play the authored solution instead of policies")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="aggregate run records into report tables")
    p_rep.add_argument("--records", required=True)
    p_rep.add_argument("--runs", type=int, required=True, help="k runs per scenario")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A simulator error it does not report itself, such
    as an input file that does not load, ends it with one `error:` line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PhonesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
