"""Exception types shared across the package, and :func:`reading`, which turns a
file that cannot be read into one."""

from contextlib import contextmanager


class SkelFuseError(Exception):
    """Base class for all skelfuse errors."""


class BehindCameraError(SkelFuseError):
    """A point with non-positive depth was pushed through the pinhole model."""


class InvalidDepthError(SkelFuseError):
    """A non-positive depth was used for back-projection."""


class TimeRegressionError(SkelFuseError):
    """A timestamp moved backwards where monotonicity is required."""


class FilterNumericsError(SkelFuseError):
    """A filter covariance is not finite and positive-definite."""


class ConfigError(SkelFuseError):
    """A scenario / calibration / tracker configuration is invalid."""


@contextmanager
def reading(path):
    """Turn a failure to open the file at ``path``, or to decode it, into a ConfigError naming it."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
