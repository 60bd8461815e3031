"""Command-line entry point: validate scenario packs, run benchmark sweeps,
and aggregate reports.

Exit codes: 0 success, 1 validation or metric error, 2 aborted runs present.
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
from .metrics import aggregate_report
from .policies import (
    NoopPolicy,
    load_script,
    scripted_assistant_policy,
    scripted_user_policy,
)
from .report import render_csv, render_json, render_table
from .runner import evaluate_success, run_episode, run_oracle
from .scenario import Scenario, load_scenario
from .stochastic import run_seed
from .turnloop import WAIT


def _collect_scenarios(path_args: list[str]) -> list[Path]:
    paths: list[Path] = []
    for arg in path_args:
        p = Path(arg)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.yaml")) + sorted(p.glob("*.yml")))
        else:
            paths.append(p)
    return paths


# ----------------------------------------------------------------------
# Policy construction

def _policy_factory(spec: str, side: str, scenario: Scenario):
    """spec: 'noop' | 'scripted:<path>' | 'llm:<config path>'.
    For the assistant, 'observe=SPEC,execute=SPEC' builds a mode-split policy.
    Returns a zero-arg factory producing a fresh policy per episode; files are
    read here, once, so the factory itself only creates per-episode state."""
    if side == "assistant" and "=" in spec:
        parts = dict(item.split("=", 1) for item in spec.split(","))
        observe = _policy_factory(parts["observe"], side, scenario)
        execute = _policy_factory(parts.get("execute", parts["observe"]), side, scenario)
        return lambda: _ModeSplitPolicy(observe(), execute())

    kind, _, arg = spec.partition(":")
    if kind == "noop":
        idle = WAIT if side == "assistant" else "noop"
        return lambda: NoopPolicy(idle)
    if kind == "scripted":
        steps = load_script(arg)
        if side == "assistant":
            return lambda: scripted_assistant_policy(steps)
        return lambda: scripted_user_policy(steps)
    if kind == "llm":
        config = llm_mod.load_llm_config(arg)
        context = {
            "AVAILABLE_APPS": ", ".join(scenario.apps),
            "APP_REFERENCE": render_app_reference(
                [scenario.machines[app] for app in scenario.apps]),
            "START_TIME": scenario.start_time,
            "TASK_DESCRIPTION": scenario.assistant_instructions,
        }
        if side == "assistant":
            return lambda: llm_mod.LLMAssistantPolicy(llm_mod.LLMClient(config), context)
        return lambda: llm_mod.LLMUserPolicy(llm_mod.LLMClient(config),
                                             goal=scenario.user_goal, context=context)
    raise SystemExit(f"unknown policy spec {spec!r} (use noop | scripted:PATH | llm:CONFIG)")


class _ModeSplitPolicy:
    def __init__(self, observe, execute):
        self.observe = observe
        self.execute = execute

    def act(self, view, feedback=None):
        policy = self.execute if getattr(view, "mode", "") == "execute" else self.observe
        return policy.act(view, feedback)


def _policy_label(spec: str) -> str:
    if spec.startswith("llm:"):
        try:
            return llm_mod.load_llm_config(spec.partition(":")[2]).model
        except Exception:
            return spec
    return spec


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


def _parse_sweep(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _cell_dir(out: Path, noise: float, fail: float) -> Path:
    return out / f"cell_noise{noise:g}_fail{fail:g}"


def cmd_run(args) -> int:
    out = Path(args.out)
    scenarios = [load_scenario(p) for p in _collect_scenarios(args.scenarios)]
    if not scenarios:
        print("no scenarios found", file=sys.stderr)
        return 1
    if args.oracle:
        return _run_oracle_mode(args, scenarios, out)

    noise_levels = _parse_sweep(args.noise_rate)
    fail_levels = _parse_sweep(args.failure_prob)
    model_label = _policy_label(args.assistant_policy)
    # One pair of factories per scenario, built before any episode runs.
    # Paired by position, not by id: two files may share a scenario id.
    plans = [(scenario,
              _policy_factory(args.user_policy, "user", scenario),
              _policy_factory(args.assistant_policy, "assistant", scenario))
             for scenario in scenarios]

    tasks = []
    for noise in noise_levels:
        for fail in fail_levels:
            cell = _cell_dir(out, noise, fail)
            cell.mkdir(parents=True, exist_ok=True)
            manifest = {
                "scenarios": [s.id for s in scenarios],
                "user_policy": args.user_policy,
                "assistant_policy": args.assistant_policy,
                "runs": args.runs, "seed": args.seed,
                "noise_rate": noise, "failure_prob": fail,
                "max_turns": args.max_turns,
            }
            (cell / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n", "utf-8")
            for plan in plans:
                for run_index in range(args.runs):
                    tasks.append((cell, plan, run_index, noise, fail))

    def execute(task):
        cell, (scenario, make_user, make_assistant), run_index, noise, fail = task
        user = make_user()
        assistant = make_assistant()
        seed = run_seed(args.seed, scenario.id, run_index)
        record = run_episode(scenario, user, assistant, run_index=run_index,
                             seed=seed, noise_rate=noise, failure_prob=fail,
                             max_turns=args.max_turns)
        record.update({"model": model_label, "noise_rate": noise, "failure_prob": fail})
        return cell, record

    results = []
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(execute, tasks))
    else:
        results = [execute(t) for t in tasks]

    by_cell: dict[Path, list[dict]] = {}
    for cell, record in results:
        by_cell.setdefault(cell, []).append(record)
    aborted = 0
    for cell, records in by_cell.items():
        records.sort(key=lambda r: (r["scenario_id"], r["run_index"]))
        with open(cell / "records.jsonl", "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        aborted += sum(1 for r in records if r.get("aborted_reason"))
    print(f"wrote {sum(len(v) for v in by_cell.values())} run records "
          f"across {len(by_cell)} cells under {out}")
    return 2 if aborted else 0


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


def cmd_report(args) -> int:
    root = Path(args.records)
    records = []
    for path in sorted(root.rglob("records.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    if not records:
        print(f"no records found under {root}", file=sys.stderr)
        return 1
    try:
        report = aggregate_report(records, k=args.runs)
    except PhonesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else root
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(render_json(report), "utf-8")
    (out / "report.txt").write_text(render_table(report), "utf-8")
    (out / "report.csv").write_text(render_csv(report), "utf-8")
    print(render_table(report))
    return 0


# ----------------------------------------------------------------------

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
    p_run.add_argument("--runs", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--noise-rate", default="0",
                       help="events per simulated minute; comma list sweeps cells")
    p_run.add_argument("--failure-prob", default="0",
                       help="per-call failure probability; comma list sweeps cells")
    p_run.add_argument("--max-turns", type=int, default=None)
    p_run.add_argument("--jobs", type=int, default=1)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
