"""Simulated time: a monotonic seconds counter anchored to a calendar start."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta

TIME_FORMAT = "%Y-%m-%d %H"


def parse_start_time(text: str) -> datetime:
    return datetime.strptime(text, TIME_FORMAT)


@dataclass
class SimClock:
    start_time: datetime
    tick: int = 60
    now: float = field(default=0.0)

    def advance(self) -> float:
        """Advance one turn-phase; returns the new simulated time."""
        self.now += self.tick
        return self.now

    def wall(self) -> datetime:
        return self.start_time + timedelta(seconds=self.now)

    def render(self) -> str:
        """Current time as 'YYYY-MM-DD HH:MM' for tool output and prompts."""
        return self.wall().strftime("%Y-%m-%d %H:%M")

    def to_dict(self) -> dict:
        return {
            "start_time": self.start_time.strftime(TIME_FORMAT),
            "tick": self.tick,
            "now": self.now,
        }
