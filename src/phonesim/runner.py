"""World construction from scenarios, oracle playback, success evaluation,
and single-episode execution producing a run record."""

from __future__ import annotations

from .errors import OracleExecutionError, SchemaError
from .events import Event, EventSchedule, sample_noise_events
from .scenario import OPS, Criterion, Scenario
from .stochastic import StochasticConfig
from .turnloop import Episode, TurnBudget
from .world import World

POLICY_KINDS = ("environment", "completion")
ORACLE_KINDS = ("environment", "oracle_user", "oracle_agent", "completion")


def _resolve_times(events: list[Event]) -> dict[str, float]:
    """Static firing times, so filtering kinds never breaks anchors."""
    resolved: dict[str, float] = {}
    for event in events:
        sched = event.schedule
        if sched.mode == "absolute":
            resolved[event.id] = float(sched.at)
        else:
            if sched.anchor not in resolved:
                raise SchemaError(f"event {event.id!r} anchors on unknown {sched.anchor!r}")
            resolved[event.id] = resolved[sched.anchor] + sched.offset
    return resolved


def build_world(scenario: Scenario, mode: str = "policy",
                stochastic: StochasticConfig | None = None) -> World:
    """mode="policy": scripted environment plus sampled noise, no oracle
    steps. mode="oracle": the full scripted solution, no noise, no failures."""
    assert mode in ("policy", "oracle")
    if stochastic is None:
        stochastic = StochasticConfig.from_dict(scenario.stochastic)
    if mode == "oracle":
        stochastic = StochasticConfig(seed=stochastic.seed)

    world = World(start_time=scenario.start_time,
                  tick_seconds=scenario.tick_seconds,
                  stochastic=stochastic)
    for app_id in scenario.apps:
        world.register_app(scenario.machines[app_id])

    for app_id, stores in scenario.init.items():
        for store_name, records in stores.items():
            store = world.db.store(app_id, store_name)
            for record in records:
                rid = store.add(record)
                suffix = rid[len(store.prefix):]
                if rid.startswith(store.prefix) and suffix.isdigit():
                    store.counter = max(store.counter, int(suffix))

    kinds = ORACLE_KINDS if mode == "oracle" else POLICY_KINDS
    times = _resolve_times(scenario.events)
    for event in scenario.events:
        if event.kind not in kinds:
            continue
        world.schedule_event(Event(
            id=event.id, kind=event.kind,
            schedule=EventSchedule.absolute(times[event.id]),
            app=event.app, tool=event.tool, args=dict(event.args),
            notify=event.notify,
        ))

    if mode == "policy" and stochastic.noise_rate > 0:
        horizon = scenario.max_turns * scenario.tick_seconds
        for noise in sample_noise_events(stochastic, horizon, set(scenario.apps)):
            world.schedule_event(noise)
    return world


def run_oracle(scenario: Scenario, seed: int = 0) -> World:
    """Drain the full event script (including oracle steps) and return the
    final world; this is the reference solution for a scenario."""
    world = build_world(scenario, mode="oracle",
                        stochastic=StochasticConfig(seed=seed))
    guard = 0
    while len(world.queue):
        world.turn += 1
        try:
            world.resolve_due_events()
        except Exception as exc:
            raise OracleExecutionError(
                f"{scenario.id}: oracle playback failed at turn {world.turn}: {exc}"
            ) from exc
        guard += 1
        if guard > 100000:
            raise OracleExecutionError(f"{scenario.id}: oracle playback never drained")
    return world


def _match_records(world: World, criterion: Criterion) -> list[dict]:
    store = world.db.store(criterion.app, criterion.store)
    return store.find(**criterion.where) if criterion.where else store.all()


def _check_criterion(world: World, criterion: Criterion) -> bool:
    if criterion.kind == "db_predicate":
        records = _match_records(world, criterion)
        op = OPS[criterion.op]
        if criterion.check == "count":
            return op(len(records), criterion.value)
        hits = [op(rec.get(criterion.field_name), criterion.value) for rec in records]
        if criterion.check == "all":
            return bool(hits) and all(hits)
        if criterion.check == "any":
            return any(hits)
        return not any(hits)     # "none" holds vacuously on empty matches

    matches = 0
    for entry in world.tool_log:
        if entry["tool"] != criterion.tool:
            continue
        if criterion.actor == "any":
            if entry["actor"] not in ("user", "assistant"):
                continue
        elif entry["actor"] != criterion.actor:
            continue
        if any(entry["args"].get(k) != v for k, v in criterion.args_subset.items()):
            continue
        matches += 1
    if criterion.kind == "action_required":
        return matches >= criterion.count_at_least
    return matches == 0          # action_forbidden


def evaluate_success(world: World, scenario: Scenario) -> dict:
    results = []
    goals: dict[str, bool] = {}
    for criterion in scenario.validation:
        ok = _check_criterion(world, criterion)
        results.append({"kind": criterion.kind, "goal": criterion.goal, "passed": ok})
        goals[criterion.goal] = goals.get(criterion.goal, True) and ok
    return {
        "success": all(goals.values()),
        "goals": goals,
        "criteria": results,
    }


def run_episode(scenario: Scenario, user_policy, assistant_policy,
                run_index: int = 0, seed: int = 0,
                noise_rate: float | None = None,
                failure_prob: float | None = None,
                max_turns: int | None = None) -> dict:
    base = StochasticConfig.from_dict(scenario.stochastic)
    stochastic = StochasticConfig(
        noise_rate=base.noise_rate if noise_rate is None else noise_rate,
        failure_prob=base.failure_prob if failure_prob is None else failure_prob,
        seed=seed,
    )
    world = build_world(scenario, mode="policy", stochastic=stochastic)
    budget = TurnBudget(max_turns=max_turns or scenario.max_turns)
    episode = Episode(world, user_policy, assistant_policy, budget)
    episode.run()
    verdict = evaluate_success(world, scenario)

    record = {
        "scenario_id": scenario.id,
        "run_index": run_index,
        "seed": seed,
        "success": verdict["success"],
        "goals": verdict["goals"],
        "proposals": [
            {"turn": p.created_turn, "status": p.status,
             "user_actions_while_pending": p.user_actions_while_pending}
            for p in world.proposals.proposals
        ],
        "read_actions_observe": world.read_actions_observe,
        "read_actions_total": world.read_actions_total,
        "turns_used": world.turn,
    }
    if episode.aborted_reason is not None:
        record["aborted_reason"] = episode.aborted_reason
    return record
