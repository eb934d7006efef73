"""Error types shared across the package."""


class AfslabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(AfslabError, ValueError):
    """A runtime argument violated a function's contract."""


class InvalidConfigError(AfslabError, ValueError):
    """A configuration value is out of range or inconsistent."""


class FormatError(AfslabError, ValueError):
    """A serialized artifact (IDX file, record store, config) failed to parse."""


class UndefinedMetricError(AfslabError, ValueError):
    """A metric was requested outside its domain of definition."""


class RunFailedError(AfslabError):
    """A run failed after training started; the CLI exits 1, not 2."""
