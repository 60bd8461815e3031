"""Seeded randomness: noise scheduling and tool-failure injection.

Noise and failure draw from independent streams derived from one root seed,
so enabling one never perturbs the other. Failure decisions are a pure
function of (seed, call_site) rather than a stateful stream, which keeps
checkpoints free of RNG cursor bookkeeping.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class StochasticConfig:
    noise_rate: float = 0.0       # events per simulated minute
    failure_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noise_rate < float("inf"):
            raise ValueError("noise_rate must be finite and >= 0")
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ValueError("failure_prob must be in [0, 1]")


def derive_seed(root: int, *labels) -> int:
    """A 64-bit stream seed derived from the root seed and string labels."""
    material = ":".join([str(root)] + [str(x) for x in labels])
    h = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big")


def run_seed(root: int, scenario_id: str, run_index: int) -> int:
    """Root seed for one (scenario, run index) cell."""
    return derive_seed(root, "run", scenario_id, run_index)


def noise_arrival_times(cfg: StochasticConfig, horizon: float) -> list[float]:
    """I.i.d. exponential inter-arrival gaps with mean 60/rate seconds,
    truncated to the horizon. Deterministic under the seed."""
    if cfg.noise_rate <= 0 or horizon <= 0:
        return []
    rng = random.Random(derive_seed(cfg.seed, "noise"))
    rate_per_second = cfg.noise_rate / 60.0
    times: list[float] = []
    t = rng.expovariate(rate_per_second)
    while t <= horizon:
        times.append(t)
        t += rng.expovariate(rate_per_second)
    return times


def maybe_fail_tool(cfg: StochasticConfig, call_site: int | str) -> bool:
    """True when the invocation at this call site is replaced by a failure."""
    if cfg.failure_prob <= 0.0:
        return False
    if cfg.failure_prob >= 1.0:
        return True
    h = hashlib.sha256(
        f"{derive_seed(cfg.seed, 'failure')}:{call_site}".encode("utf-8")
    ).digest()
    u = int.from_bytes(h[:8], "big") / 2**64
    return u < cfg.failure_prob
