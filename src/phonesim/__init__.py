"""phonesim: a deterministic smartphone-environment benchmark harness for
proactive assistants — FSM app simulators, a seeded discrete-event world,
an asymmetric user/assistant turn loop, scenario files with oracle
validation, and an evaluation metric suite."""

from .clock import SimClock
from .database import Store, WorldDatabase, canonical_json, digest
from .errors import PhonesimError
from .events import Event, EventQueue, sample_noise_events
from .fsm import (
    AppStateMachine,
    Param,
    ToolContext,
    ToolSpec,
    Transition,
    validate_state_machine,
)
from .interfaces import NavigationState, Proposal, ProposalLog
from .metrics import (
    acceptance_rate,
    aggregate_report,
    classify_outcomes,
    proposal_rate,
    success_metrics,
)
from .policies import NoopPolicy, ScriptedPolicy
from .react import format_step, parse_step
from .runner import build_world, evaluate_success, run_episode, run_oracle
from .scenario import Scenario, load_scenario
from .stochastic import StochasticConfig, derive_seed, run_seed
from .turnloop import Episode
from .world import World

__version__ = "0.1.0"

__all__ = [
    "AppStateMachine", "Episode", "Event", "EventQueue", "NavigationState",
    "NoopPolicy", "Param", "PhonesimError", "Proposal", "ProposalLog",
    "Scenario", "ScriptedPolicy", "SimClock",
    "StochasticConfig", "Store", "ToolContext", "ToolSpec", "Transition",
    "World", "WorldDatabase", "acceptance_rate",
    "aggregate_report", "build_world", "canonical_json", "classify_outcomes",
    "derive_seed", "digest", "evaluate_success", "format_step",
    "load_scenario", "parse_step", "proposal_rate", "run_episode",
    "run_oracle", "run_seed", "sample_noise_events", "success_metrics",
    "validate_state_machine",
]
