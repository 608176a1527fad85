"""Per-joint linear Kalman filter with constant-velocity motion, in closed form.

State is 6-D: position (m) and velocity (m/s), three axes each. The motion
model integrates velocity between updates and injects continuous
white-acceleration process noise, whose discretization is additive: predicting
over dt1 + dt2 equals predicting over dt1 then dt2. The measurement is the
3-D position, ``H = [I 0]`` with isotropic noise ``R = r I``,
``r = meas_sigma^2``; a new filter starts at rest with position variance ``r``
and velocity std ``INIT_VEL_SIGMA``. Both models are linear, so the
closed-form Kalman filter is exact; the test suite checks it against an
independently coded explicit-matrix filter.

Three numbers carry the 6x6 covariance. Every model matrix acts on the three
axes alike and couples none of them: ``F = kron([[1, dt], [0, 1]], I3)``, the
process noise is ``q kron([[dt^3/3, dt^2/2], [dt^2/2, dt]], I3)`` with one
intensity ``q`` for all axes, ``H = kron([1, 0], I3)``, ``R = r I3`` and the
start covariance is ``kron(diag(r, INIT_VEL_SIGMA^2), I3)``. Sums, products
and inverses of such matrices keep the form ``kron(M, I3)``, so predict and
update map ``kron(P2, I3)`` to ``kron(P2', I3)``: the covariance stays exactly
``kron([[p, c], [c, v]], I3)``, and each axis runs the same two-state filter
(Bar-Shalom, Li & Kirubarajan, *Estimation with Applications to Tracking and
Navigation*, section 6.3). The innovation covariance is ``(p + r) I3``, so the
gain is two scalars and no matrix is formed or inverted. An anisotropic R,
per-axis process noise or a non-diagonal start would break this structure.

The module keeps the name ``ukf`` because that is the layer name under which
the benchmark (``perfbench``) reports filter predict/update time.

All operations are pure (state in, state out); filtering distinct joints in
parallel is safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from skelfuse.errors import ConfigError, FilterNumericsError, TimeRegressionError
from skelfuse.model import Timestamp

# Velocity std (m/s) of a new filter: a first sighting says nothing of motion.
INIT_VEL_SIGMA = 1.0


@dataclass(frozen=True)
class NoiseConfig:
    """Filter noise magnitudes.

    ``process_accel_sigma`` is the continuous white-acceleration intensity
    (default 2.0 m/s^2, the scale of human limb accelerations);
    ``meas_sigma`` the isotropic measurement std (default 0.05 m).
    """

    process_accel_sigma: float = 2.0
    meas_sigma: float = 0.05

    def __post_init__(self):
        # s * s is inf, where s**2 would raise, for a sigma whose variance
        # overflows, and 0 for one whose variance underflows.
        if not all(0 < s and 0 < s * s < np.inf
                   for s in (self.process_accel_sigma, self.meas_sigma)):
            raise ConfigError("noise sigmas must be positive with a finite, nonzero square")


@dataclass(frozen=True)
class FilterState:
    """Filter mean (px py pz vx vy vz), covariance, and last update time.

    The covariance is ``kron([[p, c], [c, v]], I3)``: position variance ``p``,
    position-velocity covariance ``c`` and velocity variance ``v``, the same
    on every axis.
    """

    mean: np.ndarray
    p: float
    c: float
    v: float
    last_update: Timestamp

    def position(self) -> np.ndarray:
        return self.mean[:3]


def _positive_definite(p: float, c: float, v: float) -> bool:
    """Whether the covariance is finite and positive-definite: p > 0, v > 0, c^2 < p v.

    Every comparison with NaN is false, so NaN fails too. ``c / p * c`` stays
    finite wherever p, c and v are, where ``c * c < p * v`` overflows to
    ``inf < inf`` on a long but finite prediction.
    """
    return 0 < p < np.inf and 0 < v < np.inf and c / p * c < v


def init_filter(z0: np.ndarray, t0: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Start a filter at a first position measurement with zero velocity."""
    z0 = np.asarray(z0, dtype=float).reshape(3)
    if not np.all(np.isfinite(z0)):
        raise ValueError(f"initial measurement must be finite, got {z0}")
    return FilterState(mean=np.concatenate([z0, np.zeros(3)]), p=cfg.meas_sigma**2, c=0.0,
                       v=INIT_VEL_SIGMA**2, last_update=t0)


def predict(s: FilterState, t: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Constant-velocity propagation of ``s`` forward to time ``t``.

    The position moves by ``dt`` times the velocity, and
    ``P2 <- F2 P2 F2' + Q2(dt)`` with ``F2 = [[1, dt], [0, 1]]`` and
    ``Q2 = q [[dt^3/3, dt^2/2], [dt^2/2, dt]]``.

    Raises:
        TimeRegressionError: if ``t`` precedes ``s.last_update``.
        FilterNumericsError: if ``t - s.last_update`` is too large for the
            process noise to be a finite float (about 3.5e102 s at the
            default sigma), or ``s`` is not a valid state.
    """
    dt = t - s.last_update
    if dt < 0:
        raise TimeRegressionError(f"predict to {t} before last update {s.last_update}")
    q = cfg.process_accel_sigma**2
    c_moved = s.c + dt * s.v
    p = s.p + dt * s.c + dt * c_moved + q * dt * dt * dt / 3.0
    c = c_moved + q * dt * dt / 2.0
    v = s.v + q * dt
    if not _positive_definite(p, c, v):
        raise FilterNumericsError(f"process noise overflows over a {dt} s prediction, or the "
                                  f"state was invalid: p={p}, c={c}, v={v}")
    mean = s.mean.copy()
    mean[:3] += dt * s.mean[3:]
    return FilterState(mean=mean, p=p, c=c, v=v, last_update=t)


def innovation_var(s: FilterState, meas_sigma: float) -> float:
    """Per-axis innovation variance of ``s``: ``S = H P H' + R = (p + meas_sigma^2) I``.

    With ``H = [I 0]`` the predicted measurement is ``s.position()``.
    """
    return s.p + meas_sigma**2


def update(s: FilterState, z: np.ndarray, cfg: NoiseConfig) -> FilterState:
    """Kalman position-measurement update of an already-predicted state.

    The gain is ``[k1; k2] = [p; c] / S``; ``x <- x + [k1; k2] (z - z_hat)``
    and ``P2 <- P2 - [k1; k2] S [k1, k2]``, whose first row is
    ``[k1 r, k2 r]``.

    Raises:
        ValueError: if ``z`` is non-finite (the state is left unchanged).
        FilterNumericsError: if ``s`` is not a valid state.
    """
    z = np.asarray(z, dtype=float).reshape(3)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"measurement must be finite, got {z}")

    S = innovation_var(s, cfg.meas_sigma)
    k1 = s.p / S
    k2 = s.c / S
    # k1 r, not p - k1 p: once p dwarfs r, as after a gap of hours, k1 rounds
    # to 1 and the difference cancels to 0.
    r = cfg.meas_sigma**2
    p = k1 * r
    c = k2 * r
    v = s.v - k2 * s.c
    if not _positive_definite(p, c, v):
        raise FilterNumericsError(f"covariance p={p}, c={c}, v={v} is not finite "
                                  "positive-definite after an update")
    innovation = z - s.mean[:3]
    mean = s.mean + np.concatenate([k1 * innovation, k2 * innovation])
    return FilterState(mean=mean, p=p, c=c, v=v, last_update=s.last_update)
