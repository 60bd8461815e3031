"""Central simulation engine.

Owns the clock, the record stores, the event queue, the registered app
machines with their per-app sessions, navigation, notification routing, and
the proposal log. Every state change flows through `invoke_user_tool`,
`invoke_agent_tool`, or `resolve_due_events`, so a JSON snapshot of this
object replays identically.
"""

from __future__ import annotations

import copy
import json

from .clock import SimClock, parse_start_time
from .database import WorldDatabase, canonical_json, digest
from .errors import (
    ArgumentInvalid,
    DuplicateAppId,
    GuardFailed,
    IncompatibleSnapshot,
    PayloadToolMissing,
    ToolNotAvailableInState,
    WriteInObserveMode,
)
from .events import Event, EventQueue
from .fsm import AppStateMachine, Param, ToolContext, ToolSpec, require_valid
from .interfaces import (
    HOME,
    AgentView,
    NavigationState,
    NotificationCenter,
    ProposalLog,
    UserView,
    navigate,
    serialize_user_action,
)
from .stochastic import StochasticConfig, maybe_fail_tool

SNAPSHOT_VERSION = 1

SYSTEM_APP = "SystemApp"
AGENT_UI = "AgentUserInterface"

NAV_TOOLS = {
    "open_app": ToolSpec("open_app", (Param("app_name"),),
                         description="Launch an app from the home screen."),
    "go_home": ToolSpec("go_home",
                        description="Return to the home screen; the current app keeps its state."),
    "switch_app": ToolSpec("switch_app", (Param("app_name"),),
                           description="Bring an already-opened background app to the foreground."),
    "current_time": ToolSpec("current_time", read_only=True,
                             description="Read the current simulated date and time."),
}

RESPONSE_TOOLS = {
    "accept_proposal": ToolSpec("accept_proposal",
                                description="Approve the assistant's pending proposal."),
    "reject_proposal": ToolSpec("reject_proposal",
                                description="Decline the assistant's pending proposal."),
}

FAILURE_OBSERVATION = "Error: the tool call failed transiently; you may retry."


class World:
    def __init__(self, start_time: str, tick_seconds: int = 60,
                 stochastic: StochasticConfig | None = None,
                 current_user: str = "user"):
        self.clock = SimClock(parse_start_time(start_time), tick=tick_seconds)
        self.db = WorldDatabase()
        self.queue = EventQueue()
        self.stochastic = stochastic or StochasticConfig()
        self.current_user = current_user

        self.apps: dict[str, AppStateMachine] = {}
        self.sessions: dict[str, dict] = {}
        self.nav = NavigationState()
        self.notifications = NotificationCenter()
        self.proposals = ProposalLog()

        self.assistant_mode = "observe"       # observe | awaiting_confirmation | execute
        self.active_task: str | None = None
        self.turn = 0
        self.completed = False

        # Monotone call-site counter for failure injection (assistant calls only).
        self.invocation_counter = 0
        self.read_actions_observe = 0
        self.read_actions_total = 0

        self.tool_log: list[dict] = []        # every successful tool application
        self.event_log: list[dict] = []       # every resolved event

    # ------------------------------------------------------------------
    # Registration and scheduling

    def register_app(self, machine: AppStateMachine) -> str:
        if machine.app_id in self.apps:
            raise DuplicateAppId(f"app {machine.app_id!r} is already registered")
        require_valid(machine)
        self.apps[machine.app_id] = machine
        self.sessions[machine.app_id] = machine.fresh_session()
        for name, prefix in machine.stores:
            if not self.db.has_store(machine.app_id, name):
                self.db.create_store(machine.app_id, name, prefix)
        return machine.app_id

    def schedule_event(self, event: Event) -> str:
        return self.queue.schedule(event)

    # ------------------------------------------------------------------
    # Event resolution

    def resolve_due_events(self) -> list[Event]:
        self.clock.advance()
        resolved = []
        for _, event in self.queue.pop_due(self.clock.now):
            self._apply_event(event)
            resolved.append(event)
        return resolved

    def _apply_event(self, event: Event) -> None:
        if event.kind == "completion":
            self.completed = True
        elif event.app or event.tool:
            machine = self.apps.get(event.app)
            api = machine.api_tool(event.tool) if machine else None
            if api is None:
                raise PayloadToolMissing(
                    f"event {event.id!r} targets unknown tool {event.app}__{event.tool}")
            api.tool.validate_args(event.args)
            ctx = ToolContext(db=self.db, app_id=event.app, clock=self.clock,
                              session={}, args=dict(event.args),
                              current_user=self.current_user)
            outcome = api.handler(ctx)
            actor = {"oracle_user": "user", "oracle_agent": "assistant"}.get(
                event.kind, "environment")
            self._log_tool(actor, f"{event.app}__{event.tool}", event.args,
                           mode=None, outcome=outcome)
        self.event_log.append({
            "seq": len(self.event_log) + 1,
            "sim_time": self.clock.now,
            "id": event.id,
            "kind": event.kind,
            "app": event.app,
            "tool": event.tool,
            "args_digest": digest(event.args),
        })
        self.notifications.deliver_event(event)

    # ------------------------------------------------------------------
    # User side

    def user_tool_specs(self) -> list[tuple[str, ToolSpec]]:
        """Qualified tools the user may invoke right now."""
        specs: list[tuple[str, ToolSpec]] = []
        if self.proposals.pending() is not None:
            for name, spec in RESPONSE_TOOLS.items():
                specs.append((f"{AGENT_UI}__{name}", spec))
        if self.nav.foreground == HOME:
            specs.append((f"{SYSTEM_APP}__open_app", NAV_TOOLS["open_app"]))
        else:
            specs.append((f"{SYSTEM_APP}__go_home", NAV_TOOLS["go_home"]))
        if self.nav.background_stack:
            specs.append((f"{SYSTEM_APP}__switch_app", NAV_TOOLS["switch_app"]))
        specs.append((f"{SYSTEM_APP}__current_time", NAV_TOOLS["current_time"]))
        if self.nav.foreground != HOME and self.nav.foreground in self.apps:
            machine = self.apps[self.nav.foreground]
            state = self.sessions[self.nav.foreground]["state"]
            for tool in machine.user_tools(state):
                specs.append((tool.qualified(self.nav.foreground), tool))
        return specs

    def invoke_user_tool(self, qualified: str, args: dict | None = None) -> str:
        args = dict(args or {})
        if qualified == "noop":
            return "did nothing"
        app_id, _, tool_name = qualified.partition("__")
        if not tool_name:
            raise ToolNotAvailableInState(
                f"{qualified!r} is not a qualified tool name (expected App__tool)")

        if app_id == AGENT_UI and tool_name in RESPONSE_TOOLS:
            decision = "accepted" if tool_name == "accept_proposal" else "rejected"
            outcome = self._respond_to_proposal(decision)
        elif app_id == SYSTEM_APP:
            outcome = self._system_tool(tool_name, args)
            self.proposals.note_user_action()
        else:
            outcome = self._user_fsm_tool(app_id, tool_name, args)
            self.proposals.note_user_action()
        self.notifications.notify_user_action(
            serialize_user_action(qualified, args, outcome))
        return outcome

    def _system_tool(self, tool_name: str, args: dict) -> str:
        if tool_name == "current_time":
            outcome = f"current time: {self.clock.render()}"
            self._log_tool("user", f"{SYSTEM_APP}__current_time", args, mode=None,
                           outcome=outcome)
            return outcome
        if tool_name not in NAV_TOOLS:
            raise ToolNotAvailableInState(f"{SYSTEM_APP} has no tool {tool_name!r}")
        NAV_TOOLS[tool_name].validate_args(args)
        target = args.get("app_name")
        if target is not None and target not in self.apps:
            raise ToolNotAvailableInState(
                f"no app named {target!r}; installed: {sorted(self.apps)}")
        navigate(self.nav, tool_name, target)
        if tool_name == "open_app":
            self.sessions[target] = self.apps[target].fresh_session()
            outcome = f"opened {target} at {self.sessions[target]['state']}"
        elif tool_name == "go_home":
            outcome = "returned to the home screen"
        else:
            outcome = f"switched to {target} at {self.sessions[target]['state']}"
        self._log_tool("user", f"{SYSTEM_APP}__{tool_name}", args, mode=None,
                       outcome=outcome)
        return outcome

    def _user_fsm_tool(self, app_id: str, tool_name: str, args: dict) -> str:
        machine = self.apps.get(app_id)
        if machine is None:
            raise ToolNotAvailableInState(
                f"no app named {app_id!r}; installed: {sorted(self.apps)}")
        if self.nav.foreground != app_id:
            raise ToolNotAvailableInState(
                f"{app_id} is not in the foreground (currently on "
                f"{self.nav.foreground}); open or switch to it first")
        session = self.sessions[app_id]
        transition = machine.transition(session["state"], tool_name)
        if transition is None:
            available = sorted(t.name for t in machine.user_tools(session["state"]))
            raise ToolNotAvailableInState(
                f"{tool_name!r} is not available on the {session['state']} screen "
                f"of {app_id}; available: {available}")
        transition.tool.validate_args(args)
        ctx = ToolContext(db=self.db, app_id=app_id, clock=self.clock,
                          session=session, args=args,
                          current_user=self.current_user)
        backup = None if transition.tool.read_only else self.db.copy_app(app_id)
        try:
            outcome = transition.handler(ctx)
        except (GuardFailed, ArgumentInvalid):
            if backup is not None:
                self.db.restore_app(app_id, backup)
            raise
        session["state"] = ctx.next_state or transition.default_target() or session["state"]
        self._log_tool("user", f"{app_id}__{tool_name}", args, mode=None,
                       outcome=outcome)
        return outcome

    def _respond_to_proposal(self, decision: str) -> str:
        proposal = self.proposals.respond(decision, self.turn)
        if decision == "accepted":
            self.assistant_mode = "execute"
            self.active_task = proposal.content
            self.notifications.message_assistant(
                "The user accepted your proposal; carry it out now.")
            return "accepted the assistant's proposal"
        self.assistant_mode = "observe"
        self.active_task = None
        self.notifications.message_assistant("The user rejected your proposal.")
        return "rejected the assistant's proposal"

    # ------------------------------------------------------------------
    # Assistant side

    def agent_tool_specs(self) -> list[tuple[str, ToolSpec]]:
        specs: list[tuple[str, ToolSpec]] = [
            (f"{SYSTEM_APP}__current_time", NAV_TOOLS["current_time"]),
        ]
        for app_id in sorted(self.apps):
            for api in self.apps[app_id].agent_api_tools():
                specs.append((api.tool.qualified(app_id), api.tool))
        return specs

    def invoke_agent_tool(self, qualified: str, args: dict | None = None,
                          mode: str = "observe") -> str:
        args = dict(args or {})
        if qualified == f"{SYSTEM_APP}__current_time":
            return f"current time: {self.clock.render()}"
        app_id, _, tool_name = qualified.partition("__")
        machine = self.apps.get(app_id)
        api = machine.api_tool(tool_name) if machine else None
        if api is None or api.tool.environment_only:
            names = sorted(name for name, _ in self.agent_tool_specs())
            raise ToolNotAvailableInState(
                f"{qualified!r} is not an available assistant tool; see: {names}")
        if mode == "observe" and not api.tool.read_only:
            raise WriteInObserveMode(
                f"{qualified} writes state and is not allowed while observing")
        api.tool.validate_args(args)

        self.invocation_counter += 1
        if maybe_fail_tool(self.stochastic, self.invocation_counter):
            return FAILURE_OBSERVATION

        ctx = ToolContext(db=self.db, app_id=app_id, clock=self.clock,
                          session={}, args=args, current_user=self.current_user)
        backup = None if api.tool.read_only else self.db.copy_app(app_id)
        try:
            outcome = api.handler(ctx)
        except (GuardFailed, ArgumentInvalid):
            if backup is not None:
                self.db.restore_app(app_id, backup)
            raise
        if api.tool.read_only:
            self.read_actions_total += 1
            if mode == "observe":
                self.read_actions_observe += 1
        self._log_tool("assistant", qualified, args, mode=mode, outcome=outcome)
        return outcome

    def post_proposal(self, content: str) -> None:
        self.proposals.post(content, self.turn)
        self.assistant_mode = "awaiting_confirmation"
        self.notifications.message_user(f"Assistant proposal: {content}")

    # ------------------------------------------------------------------
    # Views

    def compose_user_view(self) -> UserView:
        specs = self.user_tool_specs()
        pending = self.proposals.pending()
        state = None
        if self.nav.foreground in self.apps:
            state = self.sessions[self.nav.foreground]["state"]
        return UserView(
            foreground=self.nav.foreground,
            state=state,
            tools=tuple(f"{name}({', '.join(p.name for p in spec.params)}): "
                        f"{spec.description}" for name, spec in specs),
            tool_names=tuple(name for name, _ in specs),
            pending_proposal=pending.content if pending else None,
            notifications=tuple(self.notifications.drain_user()),
            current_time=self.clock.render(),
        )

    def compose_agent_view(self) -> AgentView:
        notes, actions = self.notifications.drain_assistant()
        return AgentView(
            mode=self.assistant_mode,
            active_task=self.active_task,
            notifications=tuple(notes),
            user_actions=tuple(actions),
            current_time=self.clock.render(),
            apps=tuple(sorted(self.apps)),
        )

    # ------------------------------------------------------------------
    # Bookkeeping

    def _log_tool(self, actor: str, qualified: str, args: dict,
                  mode: str | None, outcome: str) -> None:
        self.tool_log.append({
            "turn": self.turn,
            "sim_time": self.clock.now,
            "actor": actor,
            "tool": qualified,
            "args": copy.deepcopy(args),
            "mode": mode,
            "outcome": outcome,
        })

    def db_digest(self) -> str:
        return self.db.digest()

    def export_event_log(self) -> str:
        return "\n".join(json.dumps(entry, sort_keys=True) for entry in self.event_log)

    # ------------------------------------------------------------------
    # Snapshots

    def checkpoint(self) -> dict:
        return copy.deepcopy({
            "version": SNAPSHOT_VERSION,
            "app_ids": sorted(self.apps),
            "clock": self.clock.to_dict(),
            "db": self.db.dump(),
            "queue": self.queue.to_dict(),
            "stochastic": self.stochastic.to_dict(),
            "current_user": self.current_user,
            "sessions": self.sessions,
            "nav": self.nav.to_dict(),
            "notifications": self.notifications.to_dict(),
            "proposals": self.proposals.to_dict(),
            "assistant_mode": self.assistant_mode,
            "active_task": self.active_task,
            "turn": self.turn,
            "completed": self.completed,
            "invocation_counter": self.invocation_counter,
            "read_actions_observe": self.read_actions_observe,
            "read_actions_total": self.read_actions_total,
            "tool_log": self.tool_log,
            "event_log": self.event_log,
        })

    def restore(self, snapshot: dict) -> None:
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise IncompatibleSnapshot(
                f"snapshot version {snapshot.get('version')!r} "
                f"!= engine version {SNAPSHOT_VERSION}")
        if snapshot.get("app_ids") != sorted(self.apps):
            raise IncompatibleSnapshot(
                f"snapshot apps {snapshot.get('app_ids')} do not match the "
                f"registered apps {sorted(self.apps)}")
        snapshot = copy.deepcopy(snapshot)
        self.clock = SimClock.from_dict(snapshot["clock"])
        self.db.load(snapshot["db"])
        self.queue = EventQueue.from_dict(snapshot["queue"])
        self.stochastic = StochasticConfig.from_dict(snapshot["stochastic"])
        self.current_user = snapshot["current_user"]
        self.sessions = snapshot["sessions"]
        self.nav = NavigationState.from_dict(snapshot["nav"])
        self.notifications = NotificationCenter.from_dict(snapshot["notifications"])
        self.proposals = ProposalLog.from_dict(snapshot["proposals"])
        self.assistant_mode = snapshot["assistant_mode"]
        self.active_task = snapshot["active_task"]
        self.turn = snapshot["turn"]
        self.completed = snapshot["completed"]
        self.invocation_counter = snapshot["invocation_counter"]
        self.read_actions_observe = snapshot["read_actions_observe"]
        self.read_actions_total = snapshot["read_actions_total"]
        self.tool_log = snapshot["tool_log"]
        self.event_log = snapshot["event_log"]


def save_snapshot(path, snapshot: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(snapshot))


def load_snapshot(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise IncompatibleSnapshot(
            f"snapshot version {snapshot.get('version')!r} "
            f"!= engine version {SNAPSHOT_VERSION}")
    return snapshot
