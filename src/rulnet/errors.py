"""Exception hierarchy shared by every rulnet module."""


class RulnetError(Exception):
    """Base class for all rulnet errors."""


class DimensionError(RulnetError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(RulnetError):
    """A documented precondition was violated by the caller."""


class NumericInputError(RulnetError):
    """An operation received non-finite input it cannot handle."""


class TapeError(RulnetError):
    """Backward was requested for a tensor not recorded on the active tape."""


class ConfigurationError(RulnetError):
    """Invalid model or experiment configuration (detected before compute)."""


class ParseError(RulnetError):
    """Malformed input file; carries the offending line number when known.
    The message reads ``path: line N: message`` with the parts it is given."""

    def __init__(self, message: str, line: int | None = None, path: object = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class IntegrityError(RulnetError):
    """Parsed data violates a dataset-level consistency rule."""


class ClusteringError(RulnetError):
    """Condition clustering cannot be performed on the given data."""


class CheckpointError(RulnetError):
    """A model bundle file is missing, truncated, or of the wrong version."""


class CapabilityError(RulnetError):
    """The loaded model does not support the requested operation."""


class UnitLookupError(RulnetError):
    """A referenced engine unit does not exist in the dataset."""
