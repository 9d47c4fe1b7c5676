"""Exception hierarchy shared by all ckgrec modules."""


class CkgrecError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CkgrecError):
    """Invalid configuration value, unknown key, or inconsistent settings."""


class DimensionConflictError(ConfigError):
    """Stored parameter shapes disagree with the requested configuration."""


class FormatError(CkgrecError):
    """Malformed input file or checkpoint; message carries the line/byte location."""


class ShapeError(CkgrecError):
    """Operands with incompatible shapes."""


class NumericFaultError(CkgrecError):
    """A NaN or infinity showed up where a finite value is required."""


class UnresolvedEntityError(CkgrecError):
    """An attribute triple or an edge record names an entity that has no id."""


class SamplingExhaustedError(CkgrecError):
    """Negative sampling gave up after the rejection budget was spent."""


class TrainingDiverged(CkgrecError):
    """Training hit a non-finite loss; carries the last finite state."""

    def __init__(self, message, last_good_state=None, history=None):
        super().__init__(message)
        self.last_good_state = last_good_state
        self.history = history if history is not None else []
