"""Exception types shared across the package."""


class PolicyLedgerError(Exception):
    """Base class for all package errors."""


class InputError(PolicyLedgerError):
    """An argument violates a documented precondition."""


class SchemaError(InputError):
    """A config or input file is missing a field or has a value that does
    not fit it.

    ``path`` locates the offending field, e.g. ``$.rules[2].severity_weight``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class AmbiguityError(InputError):
    """A rule condition references an attribute outside the closed endpoint
    vocabulary. Surfaced at load time, never silently skipped."""


class FeedSchemaError(SchemaError):
    """The feed envelope itself is unreadable (not a record array); the
    path is the feed file's."""


class MalformedTransaction(PolicyLedgerError):
    """Transaction payload digest does not match the payload bytes.

    Signals corrupted input, distinct from a validation Reject.
    """


class ConsensusFailure(PolicyLedgerError):
    """A validator rejected a block during commit. Validators are
    deterministic replicas, so this indicates a harness bug and aborts."""


class CorruptChainError(PolicyLedgerError):
    """Replay or export was attempted on a chain that fails verification."""


class LedgerUnavailable(PolicyLedgerError):
    """A contract engine was built without a ledger; an engine that would
    act without an audit trail is refused at construction."""


class UnknownEndpoint(PolicyLedgerError):
    """Endpoint id not present in the fleet."""


class WidthMismatch(PolicyLedgerError):
    """Feature vector width differs from the model width."""


class DegenerateInput(PolicyLedgerError):
    """Statistic is undefined for the given sample (e.g. zero-variance
    differences in a paired t-test)."""
