"""Central simulation engine.

Owns the clock, the record stores, the event queue, the registered app
machines with their per-app sessions, navigation, notification routing, and
the proposal lifecycle (proposal log, assistant mode and task). Every state
change flows through `invoke_user_tool`, `invoke_agent_tool`,
`resolve_due_events` or `close_task`; a loop driving the world changes only
`turn`, and calls `proposals.finalize` when the episode ends. The world
reads its own assistant mode to decide which assistant actions run. Every
app handler that writes runs inside `_guarded`, whichever actor calls it.
`checkpoint` is the world's fingerprint: equal runs give byte-equal ones.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict

from .clock import SimClock, parse_start_time
from .database import WorldDatabase, digest, plain_copy
from .errors import (
    ArgumentInvalid,
    DuplicateAppId,
    GuardFailed,
    PayloadToolMissing,
    ToolNotAvailableInState,
    WriteInObserveMode,
)
from .events import Event, EventQueue
from .fsm import ApiTool, AppStateMachine, Param, ToolContext, ToolSpec, require_valid
from .interfaces import (
    HOME,
    AgentView,
    NavigationState,
    Notification,
    NotificationCenter,
    ProposalLog,
    UserView,
    navigate,
    render_event_notification,
    serialize_user_action,
)
from .stochastic import StochasticConfig, maybe_fail_tool

SNAPSHOT_VERSION = 2
# World attributes that hold plain JSON values; a checkpoint copies each as is.
JSON_FIELDS = ("current_user", "sessions", "assistant_mode", "active_task", "turn",
               "completed", "invocation_counter", "read_actions_observe",
               "read_actions_total", "tool_log", "event_log")

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

# Session keys by which an app's screens hold a record open.
OPEN_KEYS = ("open_id", "open_ride", "open_order", "open_variant")


class World:
    current_user = ToolContext.current_user  # in every checkpoint (JSON_FIELDS)

    def __init__(self, start_time: str, tick_seconds: int = 60,
                 stochastic: StochasticConfig | None = None):
        self.clock = SimClock(parse_start_time(start_time), tick=tick_seconds)
        self.db = WorldDatabase()
        self.queue = EventQueue()
        self.stochastic = stochastic or StochasticConfig()

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
        # (kind, app, tool, id(args)) -> (args, api tool, args digest,
        # notification); see `_payload`. Not part of a checkpoint.
        self._payloads: dict[tuple[str, str, str, int], tuple] = {}

    # ------------------------------------------------------------------
    # Registration and scheduling

    def register_app(self, machine: AppStateMachine) -> str:
        if machine.app_id in self.apps:
            raise DuplicateAppId(f"app {machine.app_id!r} is already registered")
        require_valid(machine)
        self.apps[machine.app_id] = machine
        self.sessions[machine.app_id] = machine.fresh_session()
        for name, prefix in machine.stores:
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

    def _payload(self, event: Event) -> tuple[ApiTool | None, str, Notification]:
        """The work that depends only on an event's payload, done once per
        payload: the checked API tool (None for a completion), the args
        digest and the rendered notification. Noise events of one catalog
        entry share their args dict, so they share one memo entry; the entry
        holds that dict, so its id is not reused while the memo lives. The
        kind is part of the key because a completion looks up no tool. A
        failed lookup or argument check is not memoised and raises again."""
        key = (event.kind, event.app, event.tool, id(event.args))
        memo = self._payloads.get(key)
        if memo is None:
            api = None
            if event.kind != "completion" and (event.app or event.tool):
                machine = self.apps.get(event.app)
                api = machine.api_tool(event.tool) if machine else None
                if api is None:
                    raise PayloadToolMissing(
                        f"event {event.id!r} targets unknown tool {event.app}__{event.tool}")
                api.tool.validate_args(event.args)
            memo = self._payloads[key] = (event.args, api, digest(event.args),
                                          render_event_notification(event))
        return memo[1:]

    def _apply_event(self, event: Event) -> None:
        api, args_digest, note = self._payload(event)
        if event.kind == "completion":
            self.completed = True
        elif api is not None:
            ctx = ToolContext(db=self.db, app_id=event.app, clock=self.clock,
                              session={}, args=dict(event.args))
            outcome = self._guarded(api.tool, api.handler, ctx)
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
            "args_digest": args_digest,
        })
        self.notifications.deliver(note, event.notify)

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
            self._log_tool("user", f"{SYSTEM_APP}__current_time", plain_copy(args), mode=None,
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
        self._log_tool("user", f"{SYSTEM_APP}__{tool_name}", plain_copy(args), mode=None,
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
                          session=session, args=args)
        outcome = self._guarded(transition.tool, transition.handler, ctx)
        session["state"] = ctx.next_state or transition.default_target() or session["state"]
        self._log_tool("user", f"{app_id}__{tool_name}", plain_copy(args), mode=None,
                       outcome=outcome)
        return outcome

    def _guarded(self, tool: ToolSpec, handler, ctx: ToolContext) -> str:
        """Run an app handler for any actor: the user, the assistant or an
        event. A write that a guard or an argument check rejects leaves the
        app's stores as they were.

        A write runs under an undo journal on the app's stores, which keeps
        the inverse of each store write the handler makes. The journal is
        replayed on `GuardFailed` or `ArgumentInvalid` and closed on every
        exit; any other exception propagates and keeps its writes. After a
        write that succeeds, the user's screens of the app no longer hold
        open a record it removed, whichever actor removed it."""
        if tool.read_only:
            return handler(ctx)
        saved = self.db.copy_app(ctx.app_id)
        try:
            outcome = handler(ctx)
        except (GuardFailed, ArgumentInvalid):
            self.db.restore_app(ctx.app_id, saved)
            raise
        else:
            self._close_removed(ctx.app_id)
            return outcome
        finally:
            self.db.close_app(ctx.app_id)

    def _close_removed(self, app_id: str) -> None:
        """Clear each open-record key of the app's session that names a
        record this write removed: one the journal saw removed and no store
        of the app holds now. (Stores may share ids: ApartmentApp's `saved`
        list keys its records by apartment id.)"""
        session = self.sessions[app_id]
        stores = self.db.app_stores(app_id).values()
        for key in OPEN_KEYS:
            rid = session.get(key)
            if (rid and not any(rid in store.records for store in stores)
                    and any(rid in store.removed() for store in stores)):
                session[key] = None

    def _respond_to_proposal(self, decision: str) -> str:
        proposal = self.proposals.respond(decision, self.turn)
        if decision == "accepted":
            self.assistant_mode = "execute"
            self.active_task = proposal.content
            self.notifications.message_assistant(
                "The user accepted your proposal; carry it out now.")
            return "accepted the assistant's proposal"
        self.close_task("The user rejected your proposal.", to="assistant")
        return "rejected the assistant's proposal"

    def close_task(self, text: str, to: str = "user") -> None:
        """End the assistant's task, done or not: observe again, and tell `to`."""
        self.assistant_mode = "observe"
        self.active_task = None
        self.notifications.deliver(Notification(text, text), to)

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

    def invoke_agent_tool(self, qualified: str, args: dict | None = None) -> str:
        args = dict(args or {})
        if qualified == f"{SYSTEM_APP}__current_time":
            return f"current time: {self.clock.render()}"
        app_id, _, tool_name = qualified.partition("__")
        if app_id == AGENT_UI and tool_name in ("propose_task", "send_message_to_user"):
            return self._interface_action(tool_name, args)
        machine = self.apps.get(app_id)
        api = machine.api_tool(tool_name) if machine else None
        if api is None or api.tool.environment_only:
            names = sorted(name for name, _ in self.agent_tool_specs())
            raise ToolNotAvailableInState(
                f"{qualified!r} is not an available assistant tool; see: {names}")
        mode = self.assistant_mode
        if mode != "execute" and not api.tool.read_only:
            raise WriteInObserveMode(
                f"{qualified} writes state and is not allowed while observing")
        api.tool.validate_args(args)

        self.invocation_counter += 1
        if maybe_fail_tool(self.stochastic, self.invocation_counter):
            return FAILURE_OBSERVATION

        ctx = ToolContext(db=self.db, app_id=app_id, clock=self.clock,
                          session={}, args=args)
        outcome = self._guarded(api.tool, api.handler, ctx)
        if api.tool.read_only:
            self.read_actions_total += 1
            if mode == "observe":
                self.read_actions_observe += 1
        self._log_tool("assistant", qualified, plain_copy(args), mode=mode, outcome=outcome)
        return outcome

    def _interface_action(self, tool_name: str, args: dict) -> str:
        """Propose a task unless executing one, or report back and close the
        task while executing. Not logged, not a read, never failure-injected."""
        executing = self.assistant_mode == "execute"
        if tool_name == "send_message_to_user":
            if not executing:
                raise ToolNotAvailableInState(f"{tool_name} is only available while executing")
            self.close_task(f"Assistant: {args.get('message', '')}")
            return "message delivered; task closed"
        if executing:
            raise ToolNotAvailableInState("proposals can only be made while observing")
        if not (task := args.get("task")):
            raise ArgumentInvalid(f"{tool_name} requires a non-empty 'task'")
        self.proposals.post(task, self.turn)
        self.assistant_mode = "awaiting_confirmation"
        self.notifications.message_user(f"Assistant proposal: {task}")
        return "proposal sent to the user"

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
        """Log a tool application with `args` as they are: user and assistant
        callers pass a copy of theirs, and events their frozen, shared
        payload (`checkpoint` copies the log)."""
        self.tool_log.append({
            "turn": self.turn,
            "sim_time": self.clock.now,
            "actor": actor,
            "tool": qualified,
            "args": args,
            "mode": mode,
            "outcome": outcome,
        })

    def db_digest(self) -> str:
        return self.db.digest()

    def export_event_log(self) -> str:
        return "\n".join(json.dumps(entry, sort_keys=True) for entry in self.event_log)

    # ------------------------------------------------------------------
    # Checkpoint

    def checkpoint(self) -> dict:
        """The whole world as versioned plain JSON: a fingerprint for
        comparing runs, not a save file."""
        return copy.deepcopy({
            "version": SNAPSHOT_VERSION,
            "app_ids": sorted(self.apps),
            "clock": self.clock.to_dict(),
            "db": self.db.dump(),
            "queue": self.queue.to_dict(),
            "stochastic": asdict(self.stochastic),
            "nav": asdict(self.nav),
            "notifications": asdict(self.notifications),
            "proposals": asdict(self.proposals),
            **{name: getattr(self, name) for name in JSON_FIELDS},
        })
