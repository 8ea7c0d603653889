"""Exception types shared across the package."""


class FlabError(Exception):
    """Base class for all package errors."""


class ConfigError(FlabError):
    """Invalid configuration: unknown keys, missing parameters, bad values."""


class DimensionBudgetError(FlabError):
    """A requested dense computation exceeds the global Hilbert-space budget."""


class NumericalError(FlabError):
    """A numerical precondition failed (non-PSD metric, ill-conditioned Gram, ...).

    Never a verdict: a bound, rate or trend that does not hold is a failed
    report assertion (exit 1), judged by the experiment's runner.  This
    error is exit 3.
    """
