"""The asymmetric user/assistant boundary.

Navigation state (foreground app plus a background stack that preserves each
app's screen), notification routing with per-recipient verbosity, and the
proposal lifecycle. The user sees truncated notification banners; the
assistant receives the full serialized payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import NavigationNotAvailable, NoPendingProposal, ProposalAlreadyPending
from .events import Event

HOME = "HOME"

# Banner rendering constants: body clipped first, then the whole banner.
BODY_TRUNCATION = 120
TRUNCATION_BUDGET = 240
ELLIPSIS = "..."

_HEADER_KEYS = ("sender", "from", "name", "title", "subject")
_BODY_KEYS = ("body", "content", "message")


@dataclass
class NavigationState:
    foreground: str = HOME
    background_stack: list[str] = field(default_factory=list)


def navigate(nav: NavigationState, kind: str, target: str | None = None) -> NavigationState:
    """Apply one navigation action in place. Raises NavigationNotAvailable
    with an explanatory message on any precondition violation."""
    if kind == "open_app":
        if nav.foreground != HOME:
            raise NavigationNotAvailable(
                f"open_app is only available on the home screen; go_home first "
                f"(currently in {nav.foreground})")
        if not target:
            raise NavigationNotAvailable("open_app requires an app_name")
        if target in nav.background_stack:
            nav.background_stack.remove(target)
        nav.foreground = target
    elif kind == "go_home":
        if nav.foreground == HOME:
            raise NavigationNotAvailable("already on the home screen")
        if nav.foreground not in nav.background_stack:
            nav.background_stack.append(nav.foreground)
        nav.foreground = HOME
    elif kind == "switch_app":
        if target == HOME:
            raise NavigationNotAvailable("cannot switch to the home screen; use go_home")
        if target == nav.foreground:
            return nav
        if target not in nav.background_stack:
            raise NavigationNotAvailable(
                f"{target} is not running in the background; open it from the home screen")
        nav.background_stack.remove(target)
        if nav.foreground != HOME and nav.foreground not in nav.background_stack:
            nav.background_stack.append(nav.foreground)
        nav.foreground = target
    else:
        raise NavigationNotAvailable(f"unknown navigation action {kind!r}")
    return nav


@dataclass(frozen=True)
class Notification:
    user_rendering: str
    assistant_rendering: str


def render_event_notification(event: Event) -> Notification:
    """Banner for the user, full serialized payload for the assistant."""
    payload = {"app": event.app, "tool": event.tool, "args": event.args}
    full = json.dumps(payload, sort_keys=True)

    headers = [f"{k}: {event.args[k]}" for k in _HEADER_KEYS if k in event.args]
    body = next((str(event.args[k]) for k in _BODY_KEYS if k in event.args), "")
    if len(body) > BODY_TRUNCATION:
        body = body[:BODY_TRUNCATION] + ELLIPSIS
    parts = [f"[{event.app}]"] + headers + ([body] if body else [])
    banner = " | ".join(parts)
    if len(banner) > TRUNCATION_BUDGET:
        banner = banner[:TRUNCATION_BUDGET - len(ELLIPSIS)] + ELLIPSIS
    return Notification(user_rendering=banner, assistant_rendering=full)


@dataclass
class NotificationCenter:
    """Pending per-recipient inboxes; composing a view drains them."""

    user_inbox: list[str] = field(default_factory=list)
    assistant_inbox: list[str] = field(default_factory=list)
    user_action_feed: list[str] = field(default_factory=list)

    def deliver(self, note: Notification, notify: str) -> None:
        """Route an event's rendered notification to the recipients that
        `notify` names ("both", "user", "assistant" or "none")."""
        if notify in ("user", "both"):
            self.user_inbox.append(note.user_rendering)
        if notify in ("assistant", "both"):
            self.assistant_inbox.append(note.assistant_rendering)

    def notify_user_action(self, line: str) -> None:
        self.user_action_feed.append(line)

    def message_user(self, text: str) -> None:
        self.user_inbox.append(text)

    def message_assistant(self, text: str) -> None:
        self.assistant_inbox.append(text)

    def drain_user(self) -> list[str]:
        out, self.user_inbox = self.user_inbox, []
        return out

    def drain_assistant(self) -> tuple[list[str], list[str]]:
        notes, self.assistant_inbox = self.assistant_inbox, []
        actions, self.user_action_feed = self.user_action_feed, []
        return notes, actions


def serialize_user_action(qualified: str, args: dict, outcome: str) -> str:
    """The exact single-line format forwarded to the assistant."""
    summary = outcome.splitlines()[0] if outcome else ""
    if len(summary) > 100:
        summary = summary[:100] + ELLIPSIS
    return f"[user_action] {qualified}({json.dumps(args, sort_keys=True)}) -> {summary}"


@dataclass
class Proposal:
    id: str
    content: str
    created_turn: int
    status: str = "pending"        # pending | accepted | rejected | truncated
    user_actions_while_pending: int = 0
    resolved_turn: int | None = None


@dataclass
class ProposalLog:
    """All proposals of an episode; at most one may be pending."""

    proposals: list[Proposal] = field(default_factory=list)

    def pending(self) -> Proposal | None:
        for p in self.proposals:
            if p.status == "pending":
                return p
        return None

    def post(self, content: str, turn: int) -> Proposal:
        if self.pending() is not None:
            raise ProposalAlreadyPending("a proposal is already awaiting review")
        proposal = Proposal(id=f"prop-{len(self.proposals) + 1:03d}",
                            content=content, created_turn=turn)
        self.proposals.append(proposal)
        return proposal

    def respond(self, decision: str, turn: int) -> Proposal:
        proposal = self.pending()
        if proposal is None:
            raise NoPendingProposal("there is no proposal awaiting review")
        assert decision in ("accepted", "rejected")
        proposal.status = decision
        proposal.resolved_turn = turn
        return proposal

    def note_user_action(self) -> None:
        proposal = self.pending()
        if proposal is not None:
            proposal.user_actions_while_pending += 1

    def finalize(self, turn: int) -> None:
        proposal = self.pending()
        if proposal is not None:
            proposal.status = "truncated"
            proposal.resolved_turn = turn


@dataclass(frozen=True)
class UserView:
    foreground: str
    state: str | None
    tools: tuple[str, ...]            # rendered tool lines
    tool_names: tuple[str, ...]       # qualified names, for policies
    pending_proposal: str | None
    notifications: tuple[str, ...]
    current_time: str


@dataclass(frozen=True)
class AgentView:
    mode: str
    active_task: str | None
    notifications: tuple[str, ...]
    user_actions: tuple[str, ...]
    current_time: str
    apps: tuple[str, ...]
