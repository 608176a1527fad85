"""Tests for the per-joint Kalman filter in ``skelfuse.ukf``.

The central oracle: the filter must coincide with an independently coded
explicit-matrix linear Kalman filter to numerical precision on any input
sequence, its three covariance numbers expanded to the full 6x6 matrix by
``full_cov``. Innovation costs are checked through the association cost
matrix, the one production path that scores a candidate measurement.
"""

from dataclasses import replace

import numpy as np
import pytest

from skelfuse.association import build_cost_matrix
from skelfuse.errors import FilterNumericsError, TimeRegressionError
from skelfuse.ukf import (
    INIT_VEL_SIGMA,
    FilterState,
    NoiseConfig,
    init_filter,
    predict,
    update,
)


def full_cov(s):
    """The 6x6 covariance a ``FilterState`` stands for: kron([[p, c], [c, v]], I3)."""
    return np.kron([[s.p, s.c], [s.c, s.v]], np.eye(3))


def pcv(s):
    return (s.p, s.c, s.v)


class LinearKalman:
    """Independent reference implementation: explicit matrix KF."""

    H = np.hstack([np.eye(3), np.zeros((3, 3))])

    def __init__(self, z0, t0, cfg: NoiseConfig):
        self.x = np.concatenate([np.asarray(z0, dtype=float), np.zeros(3)])
        self.P = np.diag([cfg.meas_sigma**2] * 3 + [INIT_VEL_SIGMA**2] * 3)
        self.t = t0
        self.cfg = cfg

    @staticmethod
    def _F(dt):
        F = np.eye(6)
        F[0, 3] = F[1, 4] = F[2, 5] = dt
        return F

    @staticmethod
    def _Q(dt, sigma):
        q = sigma**2
        Q = np.zeros((6, 6))
        for a in range(3):
            Q[a, a] = q * dt**3 / 3.0
            Q[a, a + 3] = Q[a + 3, a] = q * dt**2 / 2.0
            Q[a + 3, a + 3] = q * dt
        return Q

    def predict(self, t):
        dt = t - self.t
        F = self._F(dt)
        self.x = F @ self.x
        self.P = F @ self.P @ F.T + self._Q(dt, self.cfg.process_accel_sigma)
        self.t = t

    def update(self, z):
        H = self.H
        R = self.cfg.meas_sigma**2 * np.eye(3)
        S = H @ self.P @ H.T + R
        K = self.P @ H.T @ np.linalg.inv(S)
        self.x = self.x + K @ (np.asarray(z, dtype=float) - H @ self.x)
        self.P = (np.eye(6) - K @ H) @ self.P

    def innovation_cost(self, z, t):
        dt = t - self.t
        F = self._F(dt)
        xp = F @ self.x
        Pp = F @ self.P @ F.T + self._Q(dt, self.cfg.process_accel_sigma)
        S = self.H @ Pp @ self.H.T + self.cfg.meas_sigma**2 * np.eye(3)
        zt = np.asarray(z, dtype=float) - self.H @ xp
        return float(zt @ np.linalg.inv(S) @ zt)


CFG = NoiseConfig()


def innovation_cost(s, z, t, cfg=CFG):
    """Cost of one detection centroid at ``z`` against track filter ``s`` predicted to ``t``."""
    return float(build_cost_matrix([predict(s, t, cfg)], [np.asarray(z, dtype=float)], cfg)[0, 0])


def test_init_filter_mean_and_velocity():
    s = init_filter(np.array([1.0, 2.0, 3.0]), 0.0, CFG)
    assert np.array_equal(s.position(), [1.0, 2.0, 3.0])
    assert np.array_equal(s.mean[3:], [0.0, 0.0, 0.0])
    assert s.last_update == 0.0


def test_init_filter_covariance_pd():
    s = init_filter(np.array([0.0, 0.0, 0.0]), 0.0, CFG)
    np.linalg.cholesky(full_cov(s))  # must not raise
    assert np.array_equal(full_cov(s), np.diag([CFG.meas_sigma**2] * 3 + [INIT_VEL_SIGMA**2] * 3))


def test_init_filter_deterministic():
    a = init_filter(np.array([1.0, -1.0, 2.0]), 0.5, CFG)
    b = init_filter(np.array([1.0, -1.0, 2.0]), 0.5, CFG)
    assert np.array_equal(a.mean, b.mean)
    assert pcv(a) == pcv(b)


def test_init_filter_rejects_nonfinite():
    with pytest.raises(ValueError):
        init_filter(np.array([np.nan, 0.0, 0.0]), 0.0, CFG)


def test_predict_zero_dt_is_identity():
    s = init_filter(np.array([1.0, 2.0, 3.0]), 1.0, CFG)
    p = predict(s, 1.0, CFG)
    assert np.array_equal(p.mean, s.mean)
    assert pcv(p) == pcv(s)


def test_predict_constant_velocity_motion():
    s = FilterState(
        mean=np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
        p=0.01, c=0.0, v=0.01,
        last_update=0.0,
    )
    p = predict(s, 0.5, CFG)
    assert np.allclose(p.position(), [0.5, 0.0, 0.0], atol=1e-12)
    assert np.allclose(p.mean[3:], [1.0, 0.0, 0.0], atol=1e-12)


def test_predict_rejects_time_regression():
    s = init_filter(np.zeros(3), 2.0, CFG)
    with pytest.raises(TimeRegressionError):
        predict(s, 1.0, CFG)


def test_predict_inflates_position_covariance():
    # Loewner order on the position block, eigenvalues via independent solver.
    rng = np.random.default_rng(31)
    s = init_filter(rng.standard_normal(3), 0.0, CFG)
    t = 0.0
    for _ in range(20):
        t += rng.uniform(0.01, 0.3)
        before = full_cov(s)[:3, :3]
        s = predict(s, t, CFG)
        diff = full_cov(s)[:3, :3] - before
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-12
        s = update(s, s.position() + rng.normal(0, 0.05, 3), CFG)


def test_update_zero_innovation_keeps_mean_shrinks_cov():
    s = init_filter(np.array([1.0, 1.0, 1.0]), 0.0, CFG)
    s = predict(s, 0.1, CFG)
    u = update(s, s.position(), CFG)
    assert np.allclose(u.position(), s.position(), atol=1e-12)
    diff = full_cov(s)[:3, :3] - full_cov(u)[:3, :3]
    assert np.min(np.linalg.eigvalsh(diff)) > 0.0


def test_update_rejects_nonfinite_measurement():
    s = init_filter(np.zeros(3), 0.0, CFG)
    with pytest.raises(ValueError):
        update(s, np.array([np.inf, 0.0, 0.0]), CFG)


def test_repeated_updates_converge_monotonically():
    # Strictly decreasing while converging; once at the numerical floor the
    # distance only has to stay there.
    target = np.array([2.0, -1.0, 0.5])
    s = init_filter(np.array([0.0, 0.0, 0.0]), 0.0, CFG)
    dist = np.linalg.norm(s.position() - target)
    t = 0.0
    floor = 1e-4
    for _ in range(40):
        t += 0.1
        s = update(predict(s, t, CFG), target, CFG)
        d = np.linalg.norm(s.position() - target)
        if dist > floor:
            assert d < dist
        else:
            assert d < floor
        dist = d
    assert dist < 1e-4


def test_ukf_equals_linear_kf_on_random_sequences():
    rng = np.random.default_rng(101)
    for _ in range(25):
        z0 = rng.uniform(-2, 2, 3)
        s = init_filter(z0, 0.0, CFG)
        kf = LinearKalman(z0, 0.0, CFG)
        t = 0.0
        for _ in range(30):
            t += rng.uniform(0.01, 0.4)
            z = rng.uniform(-3, 3, 3)
            s = predict(s, t, CFG)
            kf.predict(t)
            s = update(s, z, CFG)
            kf.update(z)
            assert np.max(np.abs(s.mean - kf.x)) < 1e-9
            assert np.max(np.abs(full_cov(s) - kf.P)) < 1e-9


def test_innovation_cost_zero_at_predicted_position():
    s = init_filter(np.array([1.0, 2.0, 3.0]), 0.0, CFG)
    # zero velocity: predicted position equals current position
    assert innovation_cost(s, np.array([1.0, 2.0, 3.0]), 0.5, CFG) == pytest.approx(0.0, abs=1e-18)


def test_innovation_cost_identity_covariance_is_squared_distance():
    # Engineer S = I: position cov (1 - meas_sigma^2) * I right before the
    # measurement noise is added.
    cfg = NoiseConfig(meas_sigma=0.5)
    pos_var = 1.0 - cfg.meas_sigma**2
    s = FilterState(
        mean=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        p=pos_var, c=0.0, v=1e-6,
        last_update=0.0,
    )
    z = np.array([1.0, 2.0, 2.0])
    cost = innovation_cost(s, z, 0.0, cfg)
    assert cost == pytest.approx(float(z @ z), rel=1e-9)


def test_innovation_cost_matches_direct_solve():
    rng = np.random.default_rng(55)
    for _ in range(20):
        z0 = rng.uniform(-1, 1, 3)
        s = init_filter(z0, 0.0, CFG)
        kf = LinearKalman(z0, 0.0, CFG)
        t = 0.0
        for _ in range(5):
            t += rng.uniform(0.05, 0.2)
            z = z0 + rng.normal(0, 0.1, 3)
            s = update(predict(s, t, CFG), z, CFG)
            kf.predict(t)
            kf.update(z)
        z_cand = rng.uniform(-2, 2, 3)
        t_q = t + rng.uniform(0.01, 0.3)
        assert innovation_cost(s, z_cand, t_q, CFG) == pytest.approx(
            kf.innovation_cost(z_cand, t_q), rel=1e-9
        )


def test_innovation_cost_does_not_mutate_state():
    s = init_filter(np.array([1.0, 2.0, 3.0]), 0.0, CFG)
    mean_before = s.mean.copy()
    pcv_before = pcv(s)
    innovation_cost(s, np.array([5.0, 5.0, 5.0]), 1.0, CFG)
    assert np.array_equal(s.mean, mean_before)
    assert pcv(s) == pcv_before
    assert s.last_update == 0.0


def test_innovation_cost_rotation_invariant():
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    R6 = np.zeros((6, 6))
    R6[:3, :3] = q
    R6[3:, 3:] = q

    s = init_filter(rng.uniform(-1, 1, 3), 0.0, CFG)
    s = update(predict(s, 0.2, CFG), rng.uniform(-1, 1, 3), CFG)
    z = rng.uniform(-2, 2, 3)

    # A covariance kron(P2, I3) is unchanged by rotating all three axes alike.
    assert np.allclose(R6 @ full_cov(s) @ R6.T, full_cov(s), rtol=0, atol=1e-15)
    s_rot = FilterState(mean=R6 @ s.mean, p=s.p, c=s.c, v=s.v, last_update=s.last_update)
    c1 = innovation_cost(s, z, 0.5, CFG)
    c2 = innovation_cost(s_rot, q @ z, 0.5, CFG)
    assert c2 == pytest.approx(c1, rel=1e-9)


def test_predict_split_consistency():
    # Continuous white-acceleration discretization must be additive.
    rng = np.random.default_rng(91)
    for _ in range(20):
        s = init_filter(rng.uniform(-1, 1, 3), 0.0, CFG)
        s = update(predict(s, 0.15, CFG), rng.uniform(-1, 1, 3), CFG)
        dt1, dt2 = rng.uniform(0.01, 0.5, 2)
        one_shot = predict(s, s.last_update + dt1 + dt2, CFG)
        stepped = predict(predict(s, s.last_update + dt1, CFG), s.last_update + dt1 + dt2, CFG)
        assert np.max(np.abs(one_shot.mean - stepped.mean)) < 1e-9
        assert np.max(np.abs(np.subtract(pcv(one_shot), pcv(stepped)))) < 1e-9


def test_covariance_stays_symmetric_pd_under_long_runs():
    rng = np.random.default_rng(123)
    s = init_filter(np.zeros(3), 0.0, CFG)
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.001, 0.5)
        s = predict(s, t, CFG)
        if rng.random() < 0.7:
            s = update(s, rng.uniform(-4, 4, 3), CFG)
        cov = full_cov(s)
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        np.linalg.cholesky(cov)


def test_process_noise_increments():
    # dt a power of two and q = 4 keep q*dt and q*dt^2/2 exact, so the
    # increments can be compared bit for bit; so does last_update = 0.5.
    q = CFG.process_accel_sigma**2
    s = update(predict(init_filter(np.zeros(3), 0.0, CFG), 0.5, CFG), np.full(3, 0.1), CFG)
    assert s.c != 0.0
    for dt in (0.125, 0.25, 0.5):
        u = predict(s, s.last_update + dt, CFG)
        assert u.v == s.v + q * dt
        assert u.c == s.c + dt * s.v + q * dt * dt / 2
        assert u.p == pytest.approx(s.p + 2 * dt * s.c + dt**2 * s.v + q * dt**3 / 3, rel=1e-15)


NONFINITE = [("p", np.nan), ("p", np.inf), ("c", np.nan), ("c", np.inf), ("c", -np.inf),
             ("v", np.nan), ("v", np.inf)]


@pytest.mark.parametrize("field, value", NONFINITE)
def test_nonfinite_covariance_raises(field, value):
    s = update(predict(init_filter(np.zeros(3), 0.0, CFG), 0.3, CFG), np.full(3, 0.1), CFG)
    bad = replace(s, **{field: value})
    with pytest.raises(FilterNumericsError):
        predict(bad, bad.last_update + 0.1, CFG)
    with pytest.raises(FilterNumericsError):
        update(bad, np.full(3, 0.2), CFG)


def test_long_gap_boundary():
    s = init_filter(np.zeros(3), 0.0, CFG)
    far = predict(s, 1e100, CFG)
    assert 3 * far.p == pytest.approx(4e300, rel=1e-12)
    assert np.all(np.isfinite(far.mean)) and np.isfinite(far.c) and np.isfinite(far.v)
    # The first measurement after the gap pins the position variance to r.
    assert update(far, np.ones(3), CFG).p == pytest.approx(CFG.meas_sigma**2, rel=1e-12)
    with pytest.raises(FilterNumericsError):
        predict(s, 1e103, CFG)
