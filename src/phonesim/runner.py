"""World construction from scenarios, oracle playback, success evaluation,
and single-episode execution producing a run record."""

from __future__ import annotations

from .database import plain_copy
from .errors import OracleExecutionError, PhonesimError
from .events import sample_noise_events
from .scenario import OPS, Criterion, Scenario
from .stochastic import StochasticConfig
from .turnloop import Episode
from .world import World

POLICY_KINDS = ("environment", "completion")
ORACLE_KINDS = ("environment", "oracle_user", "oracle_agent", "completion")


def build_world(scenario: Scenario, mode: str = "policy",
                stochastic: StochasticConfig | None = None) -> World:
    """mode="policy": scripted environment plus sampled noise, no oracle
    steps. mode="oracle": the full scripted solution, no noise, and no
    assistant call to fail. With no `stochastic`, no noise and no failures."""
    assert mode in ("policy", "oracle")
    world = World(start_time=scenario.start_time,
                  tick_seconds=scenario.tick_seconds,
                  stochastic=stochastic)
    for app_id in scenario.apps:
        world.register_app(scenario.machines[app_id])

    for app_id, stores in scenario.init.items():
        for store_name, records in stores.items():
            store = world.db.store(app_id, store_name)
            for record in records:
                # A copy: worlds built from one scenario share its init.
                rid = store.add(plain_copy(record))
                suffix = rid[len(store.prefix):]
                if rid.startswith(store.prefix) and suffix.isdigit():
                    store.counter = max(store.counter, int(suffix))

    kinds = ORACLE_KINDS if mode == "oracle" else POLICY_KINDS
    for event in scenario.events:
        if event.kind in kinds:
            world.schedule_event(event)

    if mode == "policy" and world.stochastic.noise_rate > 0:
        horizon = scenario.max_turns * scenario.tick_seconds
        for noise in sample_noise_events(world.stochastic, horizon, set(scenario.apps)):
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
        hits = []
        for rec in records:
            actual = rec.get(criterion.field_name)
            try:
                hits.append(op(actual, criterion.value))
            except TypeError:
                raise TypeError(
                    f"op {criterion.op!r} cannot compare the field {criterion.field_name!r} "
                    f"({type(actual).__name__}) with the value {criterion.value!r} "
                    f"({type(criterion.value).__name__})") from None
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
        try:
            ok = _check_criterion(world, criterion)
        except TypeError as exc:
            raise PhonesimError(f"{scenario.id}: criterion {criterion.goal!r}: {exc}") from exc
        results.append({"kind": criterion.kind, "goal": criterion.goal, "passed": ok})
        goals[criterion.goal] = goals.get(criterion.goal, True) and ok
    return {
        "success": all(goals.values()),
        "goals": goals,
        "criteria": results,
    }


def run_episode(scenario: Scenario, user_policy, assistant_policy, *,
                noise_rate: float, failure_prob: float, run_index: int = 0,
                seed: int = 0, max_turns: int | None = None) -> dict:
    """Play one policy episode and return its run record."""
    world = build_world(scenario, mode="policy", stochastic=StochasticConfig(
        noise_rate=noise_rate, failure_prob=failure_prob, seed=seed))
    episode = Episode(world, user_policy, assistant_policy,
                      max_turns=scenario.max_turns if max_turns is None else max_turns)
    episode.run()
    verdict = evaluate_success(world, scenario)

    record = {
        "scenario_id": scenario.id,
        "run_index": run_index,
        "seed": seed,
        "noise_rate": noise_rate,
        "failure_prob": failure_prob,
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
