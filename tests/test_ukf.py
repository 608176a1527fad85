"""Tests for the row-wise Kalman filter in ``skelfuse.ukf``.

The central oracle: the filter must coincide with an independently coded
explicit-matrix linear Kalman filter to numerical precision on any input
sequence, its three covariance numbers expanded to the full 6x6 matrix by
``full_cov``. Most tests run one filter, a one-row state; the stacking tests
check that many rows in one call equal the same rows filtered one at a time,
and equal the frozen scalar filter of ``tests/reference``, bit for bit.
Innovation costs are checked through the association cost matrix, the one
production path that scores a candidate measurement."""

from dataclasses import replace

import numpy as np
import pytest

from reference import ukf as ref_ukf
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
    """The 6x6 covariance of each row, kron([[p, c], [c, v]], I3): shape (..., 6, 6)."""
    p2 = np.stack([np.stack([s.p, s.c], axis=-1), np.stack([s.c, s.v], axis=-1)], axis=-2)
    return np.einsum("...ij,kl->...ikjl", p2, np.eye(3)).reshape(*np.shape(s.p), 6, 6)


def pcv(s):
    """The covariance numbers of a one-row state, as Python floats."""
    return (s.p.item(), s.c.item(), s.v.item())


def row(mean, p, c, v, last_update):
    """A one-row state."""
    return FilterState(mean=np.array([mean], dtype=float), p=np.array([p]), c=np.array([c]),
                       v=np.array([v]), last_update=np.array([last_update]))


def start(z0, t0=0.0):
    """A one-row filter started at the 3-vector ``z0``."""
    return init_filter(np.asarray(z0, dtype=float).reshape(1, 3), t0, R)


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
R = CFG.meas_sigma**2


def innovation_cost(s, z, t, cfg=CFG):
    """Cost of one detection centroid at ``z`` against track filter ``s`` predicted to ``t``."""
    return float(build_cost_matrix(predict(s, t, cfg), [np.asarray(z, dtype=float)],
                                   cfg.meas_sigma**2)[0, 0])


def test_init_filter_mean_and_velocity():
    s = start([1.0, 2.0, 3.0])
    assert np.array_equal(s.position(), [[1.0, 2.0, 3.0]])
    assert np.array_equal(s.mean[:, 3:], [[0.0, 0.0, 0.0]])
    assert s.last_update.tolist() == [0.0]


def test_init_filter_covariance_pd():
    s = start([0.0, 0.0, 0.0])
    np.linalg.cholesky(full_cov(s)[0])  # must not raise
    assert np.array_equal(full_cov(s)[0], np.diag([CFG.meas_sigma**2] * 3 + [INIT_VEL_SIGMA**2] * 3))


def test_init_filter_deterministic():
    a = start([1.0, -1.0, 2.0], 0.5)
    b = start([1.0, -1.0, 2.0], 0.5)
    assert np.array_equal(a.mean, b.mean)
    assert pcv(a) == pcv(b)


def test_init_filter_rejects_nonfinite():
    with pytest.raises(ValueError):
        start([np.nan, 0.0, 0.0])


def test_predict_zero_dt_is_identity():
    s = start([1.0, 2.0, 3.0], 1.0)
    p = predict(s, 1.0, CFG)
    assert np.array_equal(p.mean, s.mean)
    assert pcv(p) == pcv(s)


def test_predict_constant_velocity_motion():
    s = row([0.0, 0.0, 0.0, 1.0, 0.0, 0.0], p=0.01, c=0.0, v=0.01, last_update=0.0)
    p = predict(s, 0.5, CFG)
    assert np.allclose(p.position(), [[0.5, 0.0, 0.0]], atol=1e-12)
    assert np.allclose(p.mean[:, 3:], [[1.0, 0.0, 0.0]], atol=1e-12)


def test_predict_rejects_time_regression():
    s = start(np.zeros(3), 2.0)
    with pytest.raises(TimeRegressionError):
        predict(s, 1.0, CFG)


def test_predict_inflates_position_covariance():
    # Loewner order on the position block, eigenvalues via independent solver.
    rng = np.random.default_rng(31)
    s = start(rng.standard_normal(3))
    t = 0.0
    for _ in range(20):
        t += rng.uniform(0.01, 0.3)
        before = full_cov(s)[0, :3, :3]
        s = predict(s, t, CFG)
        diff = full_cov(s)[0, :3, :3] - before
        assert np.min(np.linalg.eigvalsh(diff)) > -1e-12
        s = update(s, s.position() + rng.normal(0, 0.05, 3), R)


def test_update_zero_innovation_keeps_mean_shrinks_cov():
    s = start([1.0, 1.0, 1.0])
    s = predict(s, 0.1, CFG)
    u = update(s, s.position(), R)
    assert np.allclose(u.position(), s.position(), atol=1e-12)
    diff = full_cov(s)[0, :3, :3] - full_cov(u)[0, :3, :3]
    assert np.min(np.linalg.eigvalsh(diff)) > 0.0


def test_update_rejects_nonfinite_measurement():
    s = start(np.zeros(3))
    with pytest.raises(ValueError):
        update(s, np.array([[np.inf, 0.0, 0.0]]), R)


def test_repeated_updates_converge_monotonically():
    # Strictly decreasing while converging; once at the numerical floor the
    # distance only has to stay there.
    target = np.array([2.0, -1.0, 0.5])
    s = start([0.0, 0.0, 0.0])
    dist = np.linalg.norm(s.position() - target)
    t = 0.0
    floor = 1e-4
    for _ in range(40):
        t += 0.1
        s = update(predict(s, t, CFG), target, R)
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
        s = start(z0)
        kf = LinearKalman(z0, 0.0, CFG)
        t = 0.0
        for _ in range(30):
            t += rng.uniform(0.01, 0.4)
            z = rng.uniform(-3, 3, 3)
            s = predict(s, t, CFG)
            kf.predict(t)
            s = update(s, z[None], R)
            kf.update(z)
            assert np.max(np.abs(s.mean - kf.x)) < 1e-9
            assert np.max(np.abs(full_cov(s)[0] - kf.P)) < 1e-9


def test_innovation_cost_zero_at_predicted_position():
    s = start([1.0, 2.0, 3.0])
    # zero velocity: predicted position equals current position
    assert innovation_cost(s, np.array([1.0, 2.0, 3.0]), 0.5, CFG) == pytest.approx(0.0, abs=1e-18)


def test_innovation_cost_identity_covariance_is_squared_distance():
    # Engineer S = I: position cov (1 - meas_sigma^2) * I right before the
    # measurement noise is added.
    cfg = NoiseConfig(meas_sigma=0.5)
    pos_var = 1.0 - cfg.meas_sigma**2
    s = row([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], p=pos_var, c=0.0, v=1e-6, last_update=0.0)
    z = np.array([1.0, 2.0, 2.0])
    cost = innovation_cost(s, z, 0.0, cfg)
    assert cost == pytest.approx(float(z @ z), rel=1e-9)


def test_innovation_cost_matches_direct_solve():
    rng = np.random.default_rng(55)
    for _ in range(20):
        z0 = rng.uniform(-1, 1, 3)
        s = start(z0)
        kf = LinearKalman(z0, 0.0, CFG)
        t = 0.0
        for _ in range(5):
            t += rng.uniform(0.05, 0.2)
            z = z0 + rng.normal(0, 0.1, 3)
            s = update(predict(s, t, CFG), z[None], R)
            kf.predict(t)
            kf.update(z)
        z_cand = rng.uniform(-2, 2, 3)
        t_q = t + rng.uniform(0.01, 0.3)
        assert innovation_cost(s, z_cand, t_q, CFG) == pytest.approx(
            kf.innovation_cost(z_cand, t_q), rel=1e-9
        )


def test_innovation_cost_does_not_mutate_state():
    s = start([1.0, 2.0, 3.0])
    mean_before = s.mean.copy()
    pcv_before = pcv(s)
    innovation_cost(s, np.array([5.0, 5.0, 5.0]), 1.0, CFG)
    assert np.array_equal(s.mean, mean_before)
    assert pcv(s) == pcv_before
    assert s.last_update.tolist() == [0.0]


def test_innovation_cost_rotation_invariant():
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    R6 = np.zeros((6, 6))
    R6[:3, :3] = q
    R6[3:, 3:] = q

    s = start(rng.uniform(-1, 1, 3))
    s = update(predict(s, 0.2, CFG), rng.uniform(-1, 1, (1, 3)), R)
    z = rng.uniform(-2, 2, 3)

    # A covariance kron(P2, I3) is unchanged by rotating all three axes alike.
    assert np.allclose(R6 @ full_cov(s)[0] @ R6.T, full_cov(s)[0], rtol=0, atol=1e-15)
    s_rot = FilterState(mean=s.mean @ R6.T, p=s.p, c=s.c, v=s.v, last_update=s.last_update)
    c1 = innovation_cost(s, z, 0.5, CFG)
    c2 = innovation_cost(s_rot, q @ z, 0.5, CFG)
    assert c2 == pytest.approx(c1, rel=1e-9)


def test_predict_split_consistency():
    # Continuous white-acceleration discretization must be additive.
    rng = np.random.default_rng(91)
    for _ in range(20):
        s = start(rng.uniform(-1, 1, 3))
        s = update(predict(s, 0.15, CFG), rng.uniform(-1, 1, (1, 3)), R)
        dt1, dt2 = rng.uniform(0.01, 0.5, 2)
        one_shot = predict(s, s.last_update + dt1 + dt2, CFG)
        stepped = predict(predict(s, s.last_update + dt1, CFG), s.last_update + dt1 + dt2, CFG)
        assert np.max(np.abs(one_shot.mean - stepped.mean)) < 1e-9
        assert np.max(np.abs(np.subtract(pcv(one_shot), pcv(stepped)))) < 1e-9


def test_covariance_stays_symmetric_pd_under_long_runs():
    rng = np.random.default_rng(123)
    s = start(np.zeros(3))
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.001, 0.5)
        s = predict(s, t, CFG)
        if rng.random() < 0.7:
            s = update(s, rng.uniform(-4, 4, (1, 3)), R)
        cov = full_cov(s)[0]
        assert np.max(np.abs(cov - cov.T)) < 1e-12
        np.linalg.cholesky(cov)


def test_process_noise_increments():
    # dt a power of two and q = 4 keep q*dt and q*dt^2/2 exact, so the
    # increments can be compared bit for bit; so does last_update = 0.5.
    q = CFG.process_accel_sigma**2
    s = update(predict(start(np.zeros(3)), 0.5, CFG), np.full((1, 3), 0.1), R)
    p, c, v = pcv(s)
    assert c != 0.0
    for dt in (0.125, 0.25, 0.5):
        u = predict(s, s.last_update + dt, CFG)
        assert u.v.item() == v + q * dt
        assert u.c.item() == c + dt * v + q * dt * dt / 2
        assert u.p.item() == pytest.approx(p + 2 * dt * c + dt**2 * v + q * dt**3 / 3, rel=1e-15)


NONFINITE = [("p", np.nan), ("p", np.inf), ("c", np.nan), ("c", np.inf), ("c", -np.inf),
             ("v", np.nan), ("v", np.inf)]


@pytest.mark.parametrize("field, value", NONFINITE)
def test_nonfinite_covariance_raises(field, value):
    s = update(predict(start(np.zeros(3)), 0.3, CFG), np.full((1, 3), 0.1), R)
    bad = replace(s, **{field: np.array([value])})
    with pytest.raises(FilterNumericsError):
        predict(bad, bad.last_update + 0.1, CFG)
    with pytest.raises(FilterNumericsError):
        update(bad, np.full((1, 3), 0.2), R)


def test_long_gap_boundary():
    s = start(np.zeros(3))
    far = predict(s, 1e100, CFG)
    assert 3 * far.p.item() == pytest.approx(4e300, rel=1e-12)
    assert np.all(np.isfinite(far.mean)) and np.isfinite(far.c.item()) and np.isfinite(far.v.item())
    # The first measurement after the gap pins the position variance to r.
    assert update(far, np.ones((1, 3)), R).p.item() == pytest.approx(CFG.meas_sigma**2, rel=1e-12)
    with pytest.raises(FilterNumericsError):
        predict(s, 1e103, CFG)


# --- rows: stacking, the reference scalar filter, batch validation, consistency ---

def _random_rows(rng, n):
    """``n`` valid filter rows: random means, positive-definite covariances and stamps."""
    p = rng.uniform(1e-4, 2.0, n)
    v = rng.uniform(1e-4, 5.0, n)
    c = rng.uniform(-0.9, 0.9, n) * np.sqrt(p * v)
    return FilterState(mean=rng.normal(0.0, 2.0, (n, 6)), p=p, c=c, v=v,
                       last_update=rng.uniform(0.0, 10.0, n))


def _fields(s):
    return [np.asarray(a).tobytes() for a in (s.mean, s.p, s.c, s.v, s.last_update)]


def test_stacked_rows_equal_rows_one_at_a_time_bit_for_bit():
    # Each row has its own dt (a fifth of them 0), measurement and measurement
    # sigma; the process noise varies between trials. A stacked predict, and
    # update and init_filter with one r per row, must equal the same rows run
    # one at a time with their scalar r, and the frozen scalar filter of Python
    # floats with each row's NoiseConfig, bit for bit.
    rng = np.random.default_rng(17)
    rows = 0
    for _ in range(200):
        cfg = NoiseConfig(process_accel_sigma=float(rng.uniform(0.5, 5.0)))
        n = int(rng.integers(1, 33))
        sigmas = rng.uniform(0.01, 0.3, n).tolist()
        r = np.array([sigma**2 for sigma in sigmas])  # as NoiseConfig.meas_sigma**2
        s = _random_rows(rng, n)
        t = s.last_update + rng.exponential(0.2, n) * (rng.random(n) < 0.8)
        z = rng.normal(0.0, 2.0, (n, 3))
        predicted = predict(s, t, cfg)
        stacked = update(predicted, z, r)
        started = init_filter(z, t, r)
        for i in range(n):
            one_p = predict(s[i:i + 1], t[i:i + 1], cfg)
            assert _fields(one_p) == _fields(predicted[i:i + 1])
            assert _fields(update(one_p, z[i:i + 1], sigmas[i]**2)) == _fields(stacked[i:i + 1])
            assert (_fields(init_filter(z[i:i + 1], t[i:i + 1], sigmas[i]**2))
                    == _fields(started[i:i + 1]))
            ref_cfg = ref_ukf.NoiseConfig(cfg.process_accel_sigma, sigmas[i])
            ref = ref_ukf.update(ref_ukf.predict(
                ref_ukf.FilterState(mean=s.mean[i].copy(), p=float(s.p[i]), c=float(s.c[i]),
                                    v=float(s.v[i]), last_update=float(s.last_update[i])),
                float(t[i]), ref_cfg), z[i], ref_cfg)
            ref_start = ref_ukf.init_filter(z[i], float(t[i]), ref_cfg)
            for ref_row, got in ((ref, stacked), (ref_start, started)):
                assert (_fields(row(ref_row.mean, ref_row.p, ref_row.c, ref_row.v,
                                    ref_row.last_update)) == _fields(got[i:i + 1]))
        rows += n
    assert rows > 3000


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_row_in_batch_raises_and_leaves_table_unchanged(bad):
    # A tracker-shaped table, (T, 16) rows, with one non-finite measurement row.
    rng = np.random.default_rng(23)
    flat = _random_rows(rng, 64)
    table = FilterState(flat.mean.reshape(4, 16, 6),
                        *(a.reshape(4, 16) for a in (flat.p, flat.c, flat.v, flat.last_update)))
    before = [np.copy(a) for a in (table.mean, table.p, table.c, table.v, table.last_update)]
    z = rng.normal(0.0, 1.0, (4, 16, 3))
    z[2, 9, 1] = bad
    with pytest.raises(ValueError, match="row 41"):
        update(table, z, R)
    with pytest.raises(ValueError, match="row 41"):
        init_filter(z, 0.0, R)
    after = (table.mean, table.p, table.c, table.v, table.last_update)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_nees_monte_carlo_within_chi2_band():
    # Normalized estimation error squared (Bar-Shalom, Li & Kirubarajan, 5.4):
    # for a consistent filter each run's NEES is chi2(6), so the mean over N
    # independent runs at one step is chi2(6N)/N. Truth integrates white
    # acceleration exactly, sampled independently of the filter's closed-form
    # Q: over dt the velocity gains dv ~ N(0, q dt), and the position noise
    # given dv is N(dv dt / 2, q dt^3 / 12) (a Brownian-bridge integral).
    # Each run is a row with its own irregular steps, and all runs go through
    # predict and update in one call per step.
    from scipy.stats import chi2

    rng = np.random.default_rng(2024)
    runs, steps = 1000, 40
    q, r = CFG.process_accel_sigma**2, CFG.meas_sigma**2
    pos = rng.uniform(-2.0, 2.0, (runs, 3))
    vel = rng.normal(0.0, INIT_VEL_SIGMA, (runs, 3))  # the filter starts at rest
    s = init_filter(pos + rng.normal(0.0, np.sqrt(r), (runs, 3)), 0.0, R)
    t = np.zeros(runs)
    lo, hi = chi2.ppf([0.005, 0.995], 6 * runs) / runs
    step_means = []
    for _ in range(steps):
        dt = rng.uniform(0.01, 0.4, (runs, 1))
        dv = rng.normal(0.0, 1.0, (runs, 3)) * np.sqrt(q * dt)
        dp = dv * dt / 2 + rng.normal(0.0, 1.0, (runs, 3)) * np.sqrt(q * dt**3 / 12)
        pos, vel = pos + vel * dt + dp, vel + dv
        t = t + dt[:, 0]
        s = update(predict(s, t, CFG), pos + rng.normal(0.0, np.sqrt(r), (runs, 3)), R)
        err = np.concatenate([pos, vel], axis=1) - s.mean
        nees = np.einsum("ni,ni->n", err, np.linalg.solve(full_cov(s), err[..., None])[..., 0])
        step_means.append(nees.mean())
    outside = sum(not lo <= m <= hi for m in step_means)
    # At 1% per step, 3 or more of 40 steps outside has probability 0.0075.
    assert outside <= 2, (outside, lo, hi, step_means)
    assert abs(np.mean(step_means) - 6.0) < hi - 6.0
