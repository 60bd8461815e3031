"""Simulated time: a monotonic seconds counter anchored to a calendar start."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import datetime, timedelta

TIME_FORMAT = "%Y-%m-%d %H"


@functools.cache
def parse_start_time(text: str) -> datetime:
    """Parsed once per text: every world of a scenario starts at one time,
    and a `datetime` is immutable."""
    return datetime.strptime(text, TIME_FORMAT)


@dataclass
class SimClock:
    start_time: datetime
    tick: int = 60
    now: float = field(default=0.0)
    # (now, text) of the last `render`: every event of one tick stamps the
    # same time. Not state: left out of `to_dict`, equality and repr.
    _rendered: tuple[float, str] | None = field(default=None, init=False, repr=False,
                                                compare=False)

    def advance(self) -> float:
        """Advance one turn-phase; returns the new simulated time."""
        self.now += self.tick
        return self.now

    def wall(self) -> datetime:
        return self.start_time + timedelta(seconds=self.now)

    def render(self) -> str:
        """Current time as 'YYYY-MM-DD HH:MM' for tool output and prompts."""
        if self._rendered is None or self._rendered[0] != self.now:
            self._rendered = (self.now, self.wall().strftime("%Y-%m-%d %H:%M"))
        return self._rendered[1]

    def to_dict(self) -> dict:
        return {
            "start_time": self.start_time.strftime(TIME_FORMAT),
            "tick": self.tick,
            "now": self.now,
        }
