"""Exception hierarchy shared across the simulator."""


class PhonesimError(Exception):
    """Base class for all simulator errors."""


# -- scheduling / engine ------------------------------------------------------

class PayloadToolMissing(PhonesimError):
    """An event payload names a tool that does not exist; scenario-authoring bug."""


# -- app machines -------------------------------------------------------------

class DuplicateAppId(PhonesimError):
    pass


class InvalidMachine(PhonesimError):
    pass


class UnknownState(PhonesimError):
    pass


class ToolNotAvailableInState(PhonesimError):
    """Raised when an actor invokes a tool that its current screen or mode does not offer."""


class GuardFailed(PhonesimError):
    """A transition guard rejected the call; state is left unchanged."""


class ArgumentInvalid(PhonesimError):
    pass


class WriteInObserveMode(PhonesimError):
    pass


# -- interfaces ---------------------------------------------------------------

class NavigationNotAvailable(PhonesimError):
    pass


class ProposalAlreadyPending(PhonesimError):
    pass


class NoPendingProposal(PhonesimError):
    pass


# -- agents -------------------------------------------------------------------

class EpisodeFinished(PhonesimError):
    pass


class MalformedAction(PhonesimError):
    """Recoverable per-cycle parse failure of a policy's output."""


class EndpointUnavailable(PhonesimError):
    pass


class RetriesExhausted(PhonesimError):
    pass


# -- scenarios ----------------------------------------------------------------

class ScenarioParseError(PhonesimError):
    pass


class SchemaError(ScenarioParseError):
    """An input file (a scenario, a policy script, an LLM config or a run
    record) does not have the shape the program reads, or fails a check made
    when it loads; the message names the file or record and the key."""


class SeedDataInvalid(PhonesimError):
    pass


class OracleExecutionError(PhonesimError):
    pass


# -- metrics ------------------------------------------------------------------

class NoProposals(PhonesimError):
    """Acceptance rate is undefined when no proposals were made."""


class UnevenRunCounts(PhonesimError):
    pass
