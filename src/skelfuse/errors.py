"""Exception types shared across the package."""


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
