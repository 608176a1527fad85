"""Per-joint linear Kalman filters with constant-velocity motion, in closed form, row-wise.

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

Filters are rows. A ``FilterState`` holds any number of independent filters
in arrays with a common leading shape: means ``(..., 6)`` and ``p``, ``c``,
``v`` and ``last_update`` of the leading shape itself. ``predict``, ``update``
and ``init_filter`` apply the closed form to every row in one call, each row
with its own ``dt`` and measurement; a single filter is one row. Every step is
an elementwise IEEE operation in a fixed order (``q * dt * dt * dt / 3.0``,
``k1 * r``, ...), so a row's result does not depend on which other rows share
the call, and a stacked call equals the same rows filtered one at a time, bit
for bit. The tracker keeps all its filters in one such table.

The module keeps the name ``ukf`` because that is the layer name under which
the benchmark (``perfbench``) reports filter predict/update time.

All operations are pure (state in, state out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FilterNumericsError, TimeRegressionError
from .model import Timestamp

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
    """Filters stacked in rows: means, covariance numbers and last update times.

    Row ``i`` (an index into the leading shape) has mean ``mean[i]``
    (px py pz vx vy vz) and covariance ``kron([[p[i], c[i]], [c[i], v[i]]],
    I3)``: position variance ``p``, position-velocity covariance ``c`` and
    velocity variance ``v``, the same on every axis.
    """

    mean: np.ndarray
    p: np.ndarray
    c: np.ndarray
    v: np.ndarray
    last_update: np.ndarray

    def __getitem__(self, rows) -> FilterState:
        """The filters at ``rows``, an index into the leading shape."""
        return FilterState(self.mean[rows], self.p[rows], self.c[rows], self.v[rows],
                           self.last_update[rows])

    def position(self) -> np.ndarray:
        return self.mean[..., :3]


def _first_not_positive_definite(p, c, v) -> int | None:
    """Flat index of the first row whose covariance is not finite positive-definite.

    The test is p > 0, v > 0 and c^2 < p v on every row at once; every
    comparison with NaN is false, so NaN fails too. ``c / p * c`` stays
    finite wherever p, c and v are, where ``c * c < p * v`` overflows to
    ``inf < inf`` on a long but finite prediction. Callers run it with
    overflow and invalid-operation warnings off: an infinite or NaN input
    fails the test instead.
    """
    ok = (0 < p) & (p < np.inf) & (0 < v) & (v < np.inf) & (c / p * c < v)
    if ok.all():
        return None
    return int(np.argmin(ok.ravel()))


def _first_nonfinite_row(z: np.ndarray) -> int | None:
    """Flat index of the first non-finite 3-vector of ``z``, checked in one pass."""
    finite = np.isfinite(z)
    if finite.all():
        return None
    return int(np.argmin(finite.reshape(-1, 3).all(axis=1)))


def init_filter(z0: np.ndarray, t0: Timestamp | np.ndarray, cfg: NoiseConfig) -> FilterState:
    """Start one filter per row of positions ``z0`` (..., 3) at rest, stamped ``t0``.

    Raises:
        ValueError: if any entry of ``z0`` is non-finite.
    """
    z0 = np.asarray(z0, dtype=float)
    bad = _first_nonfinite_row(z0)
    if bad is not None:
        raise ValueError(f"initial measurement must be finite, got {z0.reshape(-1, 3)[bad]} "
                         f"in row {bad}")
    shape = z0.shape[:-1]
    return FilterState(mean=np.concatenate([z0, np.zeros_like(z0)], axis=-1),
                       p=np.full(shape, cfg.meas_sigma**2), c=np.zeros(shape),
                       v=np.full(shape, INIT_VEL_SIGMA**2), last_update=np.full(shape, t0))


def predict(s: FilterState, t: Timestamp | np.ndarray, cfg: NoiseConfig) -> FilterState:
    """Constant-velocity propagation of every row of ``s`` forward to time ``t``.

    ``t`` is one time for all rows or one per row. The position moves by
    ``dt`` times the velocity, and ``P2 <- F2 P2 F2' + Q2(dt)`` with
    ``F2 = [[1, dt], [0, 1]]`` and ``Q2 = q [[dt^3/3, dt^2/2], [dt^2/2, dt]]``.

    Raises:
        TimeRegressionError: if ``t`` precedes a row's ``last_update``.
        FilterNumericsError: if some ``t - last_update`` is too large for the
            process noise to be a finite float (about 3.5e102 s at the
            default sigma), or a row is not a valid state.
    """
    dt = np.asarray(t - s.last_update)
    if (dt < 0).any():
        i = np.unravel_index(np.argmax(dt < 0), dt.shape)
        raise TimeRegressionError(f"predict to {np.broadcast_to(t, dt.shape)[i]} before last "
                                  f"update {s.last_update[i]}")
    q = cfg.process_accel_sigma**2
    # Overflow is expected past about 3.5e102 s and is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        c_moved = s.c + dt * s.v
        p = s.p + dt * s.c + dt * c_moved + q * dt * dt * dt / 3.0
        c = c_moved + q * dt * dt / 2.0
        v = s.v + q * dt
        mean = s.mean.copy()
        mean[..., :3] += dt[..., None] * s.mean[..., 3:]
        bad = _first_not_positive_definite(p, c, v)
    if bad is not None:
        raise FilterNumericsError(
            f"process noise overflows over a {dt.ravel()[bad]} s prediction, or the state was "
            f"invalid: p={p.ravel()[bad]}, c={c.ravel()[bad]}, v={v.ravel()[bad]}")
    return FilterState(mean=mean, p=p, c=c, v=v, last_update=np.full(dt.shape, t))


def innovation_var(s: FilterState, meas_sigma: float) -> np.ndarray:
    """Per-axis innovation variance of each row: ``S = H P H' + R = (p + meas_sigma^2) I``.

    With ``H = [I 0]`` the predicted measurement is ``s.position()``.
    """
    return s.p + meas_sigma**2


def update(s: FilterState, z: np.ndarray, cfg: NoiseConfig) -> FilterState:
    """Kalman position-measurement update of already-predicted rows, one ``z`` (..., 3) each.

    The gain is ``[k1; k2] = [p; c] / S``; ``x <- x + [k1; k2] (z - z_hat)``
    and ``P2 <- P2 - [k1; k2] S [k1, k2]``, whose first row is
    ``[k1 r, k2 r]``.

    Raises:
        ValueError: if any entry of ``z`` is non-finite (``s`` is left unchanged).
        FilterNumericsError: if a row of ``s`` is not a valid state.
    """
    z = np.asarray(z, dtype=float)
    bad = _first_nonfinite_row(z)
    if bad is not None:
        raise ValueError(f"measurement must be finite, got {z.reshape(-1, 3)[bad]} in row {bad}")

    with np.errstate(over="ignore", invalid="ignore"):
        S = innovation_var(s, cfg.meas_sigma)
        k1 = s.p / S
        k2 = s.c / S
        # k1 r, not p - k1 p: once p dwarfs r, as after a gap of hours, k1
        # rounds to 1 and the difference cancels to 0.
        r = cfg.meas_sigma**2
        p = k1 * r
        c = k2 * r
        v = s.v - k2 * s.c
        innovation = z - s.mean[..., :3]
        mean = s.mean + np.concatenate([k1[..., None] * innovation, k2[..., None] * innovation],
                                       axis=-1)
        bad = _first_not_positive_definite(p, c, v)
    if bad is not None:
        raise FilterNumericsError(f"covariance p={p.ravel()[bad]}, c={c.ravel()[bad]}, "
                                  f"v={v.ravel()[bad]} is not finite positive-definite after an "
                                  "update")
    return FilterState(mean=mean, p=p, c=c, v=v, last_update=s.last_update)
