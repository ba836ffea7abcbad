"""Exception types shared across the package."""


class GalstreamError(Exception):
    """Base class for errors raised by this package."""


class ConvergenceError(GalstreamError):
    """An iterative solver failed to converge within its iteration budget.

    Carries the last iterate so callers can inspect how far the iteration got.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class DataFormatError(GalstreamError, ValueError):
    """A dataset file violates the documented CSV schema; ``line_number`` may be None."""

    def __init__(self, path, line_number, message):
        where = path if line_number is None else f"{path}:{line_number}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line_number = line_number


class ConfigError(GalstreamError, ValueError):
    """An experiment configuration is invalid or incomplete."""


class UndefinedMetricError(GalstreamError, ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class TrainingDivergedError(GalstreamError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, message=None):
        super().__init__(message or f"non-finite loss at epoch {epoch}")
        self.epoch = epoch
