"""Events and the delivery queue.

Events carry a tool invocation as payload and fire at an absolute simulated
time: a scenario's `after: {anchor, offset}` is resolved to seconds when the
scenario loads. Same-time events deliver FIFO by insertion sequence.
"""

from __future__ import annotations

import functools
import heapq
import json
from dataclasses import asdict, dataclass, field
from importlib import resources

from .stochastic import StochasticConfig, noise_arrival_times


# Frozen: every world and thread that runs a scenario shares its events.
@dataclass(frozen=True)
class Event:
    id: str
    kind: str                    # environment | oracle_user | oracle_agent | noise | completion
    at: float                    # seconds since scenario start
    app: str
    tool: str
    args: dict = field(default_factory=dict)
    notify: str = "both"         # "both" | "user" | "assistant" | "none"


class EventQueue:
    """Min-heap keyed (firing time, insertion sequence)."""

    def __init__(self):
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    def schedule(self, event: Event) -> str:
        heapq.heappush(self._heap, (event.at, self._seq, event))
        self._seq += 1
        return event.id

    def pop_due(self, now: float) -> list[tuple[float, Event]]:
        due = []
        while self._heap and self._heap[0][0] <= now:
            when, _, event = heapq.heappop(self._heap)
            due.append((when, event))
        return due

    def __len__(self) -> int:
        return len(self._heap)

    def to_dict(self) -> dict:
        pending = [{"seq": seq, "event": asdict(ev)} for _, seq, ev in sorted(self._heap)]
        return {"pending": pending, "seq": self._seq}


@functools.cache
def load_distractor_catalog() -> list[dict]:
    """The bundled distractor catalog, read once per process. Callers share
    the parsed entries and must not change them."""
    text = resources.files("phonesim").joinpath("data/distractors.json").read_text("utf-8")
    return json.loads(text)


def sample_noise_events(
    cfg: StochasticConfig,
    horizon: float,
    allowed_apps: set[str],
) -> list[Event]:
    """Poisson-scheduled distractor events, cycled round-robin through the
    catalog entries whose target app is registered in the scenario. Events
    of one entry share its `args` dict, which no one mutates: `Event` is
    frozen and handlers get a copy."""
    times = noise_arrival_times(cfg, horizon)
    if not times:
        return []
    catalog = [entry for entry in load_distractor_catalog() if entry["app"] in allowed_apps]
    if not catalog:
        return []
    events = []
    for i, t in enumerate(times):
        entry = catalog[i % len(catalog)]
        events.append(
            Event(
                id=f"noise-{i + 1:04d}",
                kind="noise",
                at=t,
                app=entry["app"],
                tool=entry["tool"],
                args=entry["args"],
            )
        )
    return events
