"""Per-joint linear Kalman filter with constant-velocity motion.

State is 6-D: position (m) and velocity (m/s), three axes each. The motion
model integrates velocity between updates and injects continuous
white-acceleration process noise, whose discretization is additive: predicting
over dt1 + dt2 equals predicting over dt1 then dt2. The measurement is the
3-D position, ``H = [I 0]`` with isotropic noise ``R = meas_sigma^2 I``.
Both models are linear, so the closed-form Kalman filter is exact; the test
suite checks it against an independently coded explicit-matrix filter.

The module keeps the name ``ukf`` because that is the layer name under which
the benchmark (``perfbench``) reports filter predict/update time.

All operations are pure (state in, state out); filtering distinct joints in
parallel is safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FilterNumericsError, TimeRegressionError
from .model import Timestamp

STATE_DIM = 6
MEAS_DIM = 3


@dataclass(frozen=True)
class NoiseConfig:
    """Filter noise magnitudes.

    ``process_accel_sigma`` is the continuous white-acceleration intensity
    (default 2.0 m/s^2, the scale of human limb accelerations);
    ``meas_sigma`` the isotropic measurement std (default 0.05 m);
    ``init_vel_sigma`` the velocity std of a freshly initialized filter.

    ``centroid_meas_sigma`` is the measurement std the tracker uses for the
    per-track centroid filter (default 0.2 m). The centroid is a derived
    pseudo-measurement: when the chest joint drops out, the fallback
    weighted mean can sit several decimeters from the chest, so gating it
    with joint-level noise would reject genuine detections and spawn
    duplicate tracks.
    """

    process_accel_sigma: float = 2.0
    meas_sigma: float = 0.05
    centroid_meas_sigma: float = 0.2
    init_vel_sigma: float = 1.0

    def __post_init__(self):
        sigmas = (self.process_accel_sigma, self.meas_sigma, self.centroid_meas_sigma,
                  self.init_vel_sigma)
        # s * s is inf, where s**2 would raise, for a sigma whose variance overflows.
        if not all(0 < s and s * s < np.inf for s in sigmas):
            raise ConfigError("noise sigmas must be positive with a finite square")

    def for_centroid(self) -> "NoiseConfig":
        """The config the centroid filter runs under (its own meas sigma)."""
        return replace(self, meas_sigma=self.centroid_meas_sigma)


@dataclass(frozen=True)
class FilterState:
    """Filter mean (px py pz vx vy vz), covariance, and last update time."""

    mean: np.ndarray
    cov: np.ndarray
    last_update: Timestamp

    def position(self) -> np.ndarray:
        return self.mean[:3]

    def position_cov(self) -> np.ndarray:
        return self.cov[:3, :3]


def _check_valid(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and verify positive-definiteness (Cholesky must succeed)."""
    cov = (cov + cov.T) * 0.5
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError("covariance lost positive-definiteness") from exc
    return cov


def process_noise(dt: float, accel_sigma: float) -> np.ndarray:
    """Continuous white-acceleration covariance integrated over dt, 6x6."""
    q = accel_sigma**2
    qpp = q * dt**3 / 3.0
    qpv = q * dt**2 / 2.0
    qvv = q * dt
    Q = np.zeros((STATE_DIM, STATE_DIM))
    for a in range(3):
        Q[a, a] = qpp
        Q[a, a + 3] = qpv
        Q[a + 3, a] = qpv
        Q[a + 3, a + 3] = qvv
    return Q


def init_filter(z0: np.ndarray, t0: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Start a filter at a first position measurement with zero velocity."""
    z0 = np.asarray(z0, dtype=float).reshape(3)
    if not np.all(np.isfinite(z0)):
        raise ValueError(f"initial measurement must be finite, got {z0}")
    mean = np.concatenate([z0, np.zeros(3)])
    cov = np.diag([cfg.meas_sigma**2] * 3 + [cfg.init_vel_sigma**2] * 3)
    return FilterState(mean=mean, cov=cov, last_update=t0)


def predict(s: FilterState, t: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Constant-velocity propagation of ``s`` forward to time ``t``.

    ``x <- F x`` and ``P <- F P F' + Q(dt)`` with ``F = [[I, dt I], [0, I]]``.

    Raises:
        TimeRegressionError: if ``t`` precedes ``s.last_update``.
        FilterNumericsError: if ``t - s.last_update`` is too large for Q(dt)
            to be a finite float (about 6e102 s at the default sigma).
    """
    dt = t - s.last_update
    if dt < 0:
        raise TimeRegressionError(f"predict to {t} before last update {s.last_update}")
    if dt == 0.0:
        return FilterState(mean=s.mean.copy(), cov=s.cov.copy(), last_update=t)
    try:
        Q = process_noise(dt, cfg.process_accel_sigma)
    except OverflowError as exc:
        raise FilterNumericsError(f"process noise overflows over a {dt} s prediction") from exc

    F = np.eye(STATE_DIM)
    F[0, 3] = F[1, 4] = F[2, 5] = dt
    mean = F @ s.mean
    cov = F @ s.cov @ F.T + Q
    return FilterState(mean=mean, cov=_check_valid(cov), last_update=t)


def predicted_measurement(s: FilterState, cfg: NoiseConfig) -> tuple[np.ndarray, np.ndarray]:
    """Predicted measurement and innovation covariance ``(z_hat, S)`` of ``s``.

    ``z_hat = H x`` is the position and ``S = H P H' + R = P_pp + meas_sigma^2 I``.
    This is the one place the measurement model (H, R) is spelled out.
    """
    return s.mean[:3], s.cov[:3, :3] + cfg.meas_sigma**2 * np.eye(MEAS_DIM)


def update(s: FilterState, z: np.ndarray, cfg: NoiseConfig) -> FilterState:
    """Kalman position-measurement update of an already-predicted state.

    ``K = P H' S^-1``, ``x <- x + K (z - z_hat)``, ``P <- P - K S K'``.

    Raises:
        ValueError: if ``z`` is non-finite (the state is left unchanged).
    """
    z = np.asarray(z, dtype=float).reshape(MEAS_DIM)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"measurement must be finite, got {z}")

    z_hat, S = predicted_measurement(s, cfg)
    try:
        gain = np.linalg.solve(S, s.cov[:3, :]).T
    except np.linalg.LinAlgError as exc:
        raise FilterNumericsError("innovation covariance is singular") from exc
    mean = s.mean + gain @ (z - z_hat)
    cov = s.cov - gain @ S @ gain.T
    return FilterState(mean=mean, cov=_check_valid(cov), last_update=s.last_update)
