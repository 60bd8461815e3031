"""Outside-in tracing of phonesim for the benchmark's traced run.

Nothing in the program is changed. Each traced function is replaced, for the
length of one run, by a wrapper installed under the name its caller looks
it up by (`phonesim.cli.load_script`, not `phonesim.policies.load_script`,
because the CLI imported the name). A wrapper records one span per call:
name, start, end, parent span and episode id. Spans stay in memory and are
written out when the run ends; `layer_metrics` turns them into the
per-layer metrics.

A function that no longer exists under its name is skipped, and the metrics
that depend on it are left out of the result instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _agent_tool_kind(world, qualified: str) -> str:
    """'read' or 'write', from the tool's public `read_only` flag, decided
    before the call. Unknown tools count as writes; they fail either way."""
    if qualified == "SystemApp__current_time":
        return "read"
    app_id, _, tool_name = qualified.partition("__")
    machine = world.apps.get(app_id)
    api = machine.api_tool(tool_name) if machine else None
    return "read" if api is not None and api.tool.read_only else "write"


def _largest_store(world) -> int:
    return max((len(store) for app in world.apps
                for store in world.db.app_stores(app).values()), default=0)


# What a span notes about its call, read before and after it. A hook that
# no longer fits the program notes nothing instead of breaking the run.
BEFORE = {
    "world.invoke_agent_tool": lambda args: {"kind": _agent_tool_kind(args[0], args[1])},
    "policies.load_script": lambda args: {"file": str(args[0])},
    "apps.build_app": lambda args: {"app": args[0]},
    "runner.build_world": lambda args: {"scenario": args[0].id},
    "runner.evaluate_success": lambda args: {"records": _largest_store(args[0])},
    "database.Store.all": lambda args: {"records": len(args[0].records)},
}
AFTER = {
    "world.resolve_due_events": lambda result: {"resolved": len(result)},
    "stochastic.maybe_fail_tool": lambda result: {"injected": bool(result)},
    "scenario.load_scenario": lambda result: {"scenario": result.id},
}


def _note(hook, value) -> dict:
    try:
        return hook(value)
    except Exception:
        return {}


# (span name, module, attribute path). Several targets may share one span
# name when more than one caller imported the same function.
TARGETS = (
    ("scenario.load_scenario", "phonesim.cli", "load_scenario"),
    ("policies.load_script", "phonesim.cli", "load_script"),
    ("apps.build_app", "phonesim.runner", "build_app"),
    ("apps.build_app", "phonesim.scenario", "build_app"),
    ("apps.build_app", "phonesim.apps", "build_app"),
    ("fsm.require_valid", "phonesim.world", "require_valid"),
    ("runner.run_episode", "phonesim.cli", "run_episode"),
    ("runner.build_world", "phonesim.runner", "build_world"),
    ("runner.evaluate_success", "phonesim.runner", "evaluate_success"),
    ("runner.evaluate_success", "phonesim.cli", "evaluate_success"),
    ("turnloop.run_turn", "phonesim.turnloop", "Episode.run_turn"),
    ("world.resolve_due_events", "phonesim.world", "World.resolve_due_events"),
    ("events.sample_noise_events", "phonesim.runner", "sample_noise_events"),
    ("events.load_distractor_catalog", "phonesim.events", "load_distractor_catalog"),
    ("world.compose_user_view", "phonesim.world", "World.compose_user_view"),
    ("world.compose_agent_view", "phonesim.world", "World.compose_agent_view"),
    ("policies.act", "phonesim.policies", "ScriptedPolicy.act"),
    ("policies.act", "phonesim.policies", "NoopPolicy.act"),
    ("policies.act", "phonesim.llm", "LLMUserPolicy.act"),
    ("policies.act", "phonesim.llm", "LLMAssistantPolicy.act"),
    ("react.parse_step", "phonesim.turnloop", "parse_step"),
    ("world.invoke_user_tool", "phonesim.world", "World.invoke_user_tool"),
    ("world.invoke_agent_tool", "phonesim.world", "World.invoke_agent_tool"),
    ("database.Store.all", "phonesim.database", "Store.all"),
    ("database.copy_app", "phonesim.database", "WorldDatabase.copy_app"),
    ("database.restore_app", "phonesim.database", "WorldDatabase.restore_app"),
    ("stochastic.maybe_fail_tool", "phonesim.world", "maybe_fail_tool"),
    ("llm.complete", "phonesim.llm", "LLMClient.complete"),
    ("llm.load_prompt", "phonesim.llm", "load_prompt"),
    ("metrics.aggregate_report", "phonesim.cli", "aggregate_report"),
)


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            span = {"id": next(tracer._ids), "name": name,
                    "parent": stack[-1] if stack else None,
                    "episode": getattr(local, "episode", None)}
            if name == "runner.run_episode":
                # Spans of one episode share the id of its run_episode span.
                local.episode = span["episode"] = span["id"]
            if name in BEFORE:
                span.update(_note(BEFORE[name], args))
                if "kind" in span:
                    span["name"] = f"{name}.{span.pop('kind')}"
            stack.append(span["id"])
            span["start"] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = _clock()
                stack.pop()
                if name == "runner.run_episode":
                    local.episode = None
                tracer.spans.append(span)
            if name in AFTER:
                span.update(_note(AFTER[name], result))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


# ----------------------------------------------------------------------
# Span analysis

def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _growth(turns: list[float]) -> float:
    """Median of the last 20 turns over the median of the first 20 (halves of
    shorter episodes)."""
    n = min(20, len(turns) // 2)
    if n == 0:
        return 1.0
    return _ratio(statistics.median(turns[-n:]), statistics.median(turns[:n]))


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    `calls` counts spans, `busy_s` sums self time (span time minus the time
    its child spans cover), `ms_pXX` are percentiles of whole-span time.
    A metric is left out when every function behind a span it reads is gone.
    """
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    groups: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        groups[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    targets: dict[str, list[str]] = defaultdict(list)
    for name, module, path in TARGETS:
        targets[name].append(f"{module}.{path}")
    gone = {name for name, where in targets.items()
            if all(w in trace["missing"] for w in where)}
    used: set[str] = set()

    def group(name):
        used.add(name)
        return groups[name]

    def calls(name):
        return len(group(name))

    def busy(name):
        return sum(dur[s["id"]] - child_time[s["id"]] for s in group(name))

    def ms(name, q):
        return _quantile([dur[s["id"]] * 1e3 for s in group(name)], q)

    def error_frac(name):
        return _ratio(sum(1 for s in group(name) if s.get("error")), calls(name))

    def scenario_of(span):
        while span is not None and "scenario" not in span:
            span = by_id.get(span["parent"])
        return span["scenario"] if span else None

    def build_app_useful():
        builds = group("apps.build_app")
        return _ratio(len({(scenario_of(s), s.get("app")) for s in builds}), len(builds))

    def turn_growth():
        episodes: dict[int, list[float]] = defaultdict(list)
        for s in sorted(group("turnloop.run_turn"), key=lambda s: s["start"]):
            episodes[s["episode"]].append(dur[s["id"]] * 1e3)
        return statistics.median([_growth(t) for t in episodes.values()] or [1.0])

    def max_records():
        samples = group("runner.evaluate_success") + group("database.Store.all")
        return max((s.get("records", 0) for s in samples), default=0)

    def unattributed():
        return wall_s - _union([(s["start"], s["end"]) for s in spans if s["parent"] is None])

    read, write = "world.invoke_agent_tool.read", "world.invoke_agent_tool.write"
    spec = {
        "policies.load_script.calls": lambda: calls("policies.load_script"),
        "policies.load_script.busy_s": lambda: busy("policies.load_script"),
        "policies.load_script.useful_frac": lambda: _ratio(
            len({s.get("file") for s in group("policies.load_script")}),
            calls("policies.load_script")),
        "scenario.load_scenario.calls": lambda: calls("scenario.load_scenario"),
        "scenario.load_scenario.busy_s": lambda: busy("scenario.load_scenario"),
        "apps.build_app.calls": lambda: calls("apps.build_app"),
        "apps.build_app.useful_frac": build_app_useful,
        "fsm.require_valid.calls": lambda: calls("fsm.require_valid"),
        "fsm.require_valid.busy_s": lambda: busy("fsm.require_valid"),
        "runner.build_world.busy_s": lambda: busy("runner.build_world"),
        "runner.evaluate_success.busy_s": lambda: busy("runner.evaluate_success"),
        "runner.run_episode.calls": lambda: calls("runner.run_episode"),
        "runner.run_episode.ms_p50": lambda: ms("runner.run_episode", 0.5),
        "runner.run_episode.ms_p90": lambda: ms("runner.run_episode", 0.9),
        "runner.run_episode.concurrency": lambda: _ratio(
            sum(dur[s["id"]] for s in group("runner.run_episode")), wall_s),
        "turnloop.run_turn.calls": lambda: calls("turnloop.run_turn"),
        "turnloop.run_turn.ms_p50": lambda: ms("turnloop.run_turn", 0.5),
        "turnloop.run_turn.ms_p99": lambda: ms("turnloop.run_turn", 0.99),
        "turnloop.run_turn.growth": turn_growth,
        "world.resolve_due_events.busy_s": lambda: busy("world.resolve_due_events"),
        "events.resolved": lambda: sum(
            s.get("resolved", 0) for s in group("world.resolve_due_events")),
        "events.sample_noise_events.busy_s": lambda: busy("events.sample_noise_events"),
        "events.load_distractor_catalog.calls": lambda: calls("events.load_distractor_catalog"),
        "world.compose_user_view.busy_s": lambda: busy("world.compose_user_view"),
        "world.compose_agent_view.busy_s": lambda: busy("world.compose_agent_view"),
        "policies.act.busy_s": lambda: busy("policies.act"),
        "react.parse_step.busy_s": lambda: busy("react.parse_step"),
        "world.invoke_user_tool.calls": lambda: calls("world.invoke_user_tool"),
        "world.invoke_user_tool.busy_s": lambda: busy("world.invoke_user_tool"),
        "world.invoke_user_tool.error_frac": lambda: error_frac("world.invoke_user_tool"),
        f"{read}.calls": lambda: calls(read),
        f"{read}.busy_s": lambda: busy(read),
        f"{read}.ms_p50": lambda: ms(read, 0.5),
        "database.Store.all.calls": lambda: calls("database.Store.all"),
        "database.Store.all.busy_s": lambda: busy("database.Store.all"),
        f"{write}.calls": lambda: calls(write),
        f"{write}.busy_s": lambda: busy(write),
        f"{write}.ms_p50": lambda: ms(write, 0.5),
        f"{write}.error_frac": lambda: error_frac(write),
        "database.copy_app.calls": lambda: calls("database.copy_app"),
        "database.copy_app.busy_s": lambda: busy("database.copy_app"),
        "database.copy_app.useful_frac": lambda: _ratio(calls("database.restore_app"),
                                                        calls("database.copy_app")),
        "database.restore_app.calls": lambda: calls("database.restore_app"),
        "database.max_records": max_records,
        "stochastic.maybe_fail_tool.calls": lambda: calls("stochastic.maybe_fail_tool"),
        "stochastic.injected_frac": lambda: _ratio(
            sum(1 for s in group("stochastic.maybe_fail_tool") if s.get("injected")),
            calls("stochastic.maybe_fail_tool")),
        "llm.complete.calls": lambda: calls("llm.complete"),
        "llm.complete.ms_p50": lambda: ms("llm.complete", 0.5),
        "llm.complete.ms_p90": lambda: ms("llm.complete", 0.9),
        "llm.complete.busy_s": lambda: busy("llm.complete"),
        "llm.load_prompt.calls": lambda: calls("llm.load_prompt"),
        "metrics.aggregate_report.busy_s": lambda: busy("metrics.aggregate_report"),
        "cli.unattributed_s": unattributed,
    }
    metrics = {}
    for key, compute in spec.items():
        used.clear()
        value = compute()
        if not any(u == g or u.startswith(g + ".") for u in used for g in gone):
            metrics[key] = value
    return metrics
