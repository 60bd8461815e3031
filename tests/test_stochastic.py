import pytest

from phonesim.stochastic import (
    StochasticConfig,
    derive_seed,
    maybe_fail_tool,
    noise_arrival_times,
    run_seed,
)


def test_config_validation():
    for bad in (-1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="noise_rate must be finite"):
            StochasticConfig(noise_rate=bad)
    with pytest.raises(ValueError):
        StochasticConfig(failure_prob=1.5)


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(1, "noise") == derive_seed(1, "noise")
    assert derive_seed(1, "noise") != derive_seed(1, "failure")
    assert derive_seed(1, "noise") != derive_seed(2, "noise")
    assert run_seed(0, "s", 0) != run_seed(0, "s", 1)


def test_noise_times_sorted_within_horizon_and_reproducible():
    cfg = StochasticConfig(noise_rate=4, seed=11)
    times = noise_arrival_times(cfg, horizon=600)
    assert times == sorted(times)
    assert all(0 < t <= 600 for t in times)
    assert times == noise_arrival_times(cfg, horizon=600)
    assert times != noise_arrival_times(StochasticConfig(noise_rate=4, seed=12), 600)


def test_zero_rate_yields_no_noise():
    assert noise_arrival_times(StochasticConfig(seed=3), 600) == []


def test_failure_injection_edge_probabilities():
    assert not maybe_fail_tool(StochasticConfig(seed=1), 5)
    assert maybe_fail_tool(StochasticConfig(failure_prob=1.0, seed=1), 5)


def test_failure_decisions_are_pure_functions_of_call_site():
    cfg = StochasticConfig(failure_prob=0.4, seed=9)
    first = [maybe_fail_tool(cfg, i) for i in range(100)]
    second = [maybe_fail_tool(cfg, i) for i in range(100)]
    assert first == second
    # independent streams: noise seed does not shift failure outcomes
    assert first == [maybe_fail_tool(StochasticConfig(noise_rate=6, failure_prob=0.4, seed=9), i)
                     for i in range(100)]
