"""Tests for centroids, cost matrices, Munkres assignment, and gated matching."""

import itertools

import numpy as np
import pytest

from skelfuse.association import (
    DEFAULT_GATE,
    AssociationResult,
    build_cost_matrix,
    centroid,
    data_association,
    munkres,
)
from skelfuse.model import CHEST, JOINT_COUNT, L_HIP, L_SHOULDER, NECK, R_HIP, R_SHOULDER, Skeleton3D
from skelfuse.ukf import NoiseConfig, init_filter, predict

from conftest import sparse_skeleton
from test_ukf import full_cov

CFG = NoiseConfig()
R = CFG.meas_sigma**2


# --- centroid ------------------------------------------------------------------

def test_centroid_prefers_chest():
    s = sparse_skeleton({CHEST: (1.0, 1.0, 1.0), NECK: (9.0, 9.0, 9.0)})
    assert np.array_equal(centroid(s), [1.0, 1.0, 1.0])


def test_centroid_fallback_weighted_mean():
    # Chest missing; neck (0,0,2) and both hips (0,0,1). Documented weights
    # neck .4 / hips .2 each renormalize over the valid subset to
    # .5/.25/.25, so z = .5*2 + .25*1 + .25*1 = 1.5.
    s = sparse_skeleton({NECK: (0.0, 0.0, 2.0), R_HIP: (0.0, 0.0, 1.0), L_HIP: (0.0, 0.0, 1.0)})
    assert np.allclose(centroid(s), [0.0, 0.0, 1.5])


def test_centroid_fallback_all_five():
    s = sparse_skeleton({
        NECK: (0.0, 0.0, 1.5),
        R_SHOULDER: (-0.2, 0.0, 1.45),
        L_SHOULDER: (0.2, 0.0, 1.45),
        R_HIP: (-0.1, 0.0, 0.95),
        L_HIP: (0.1, 0.0, 0.95),
    })
    # weights sum to 1 when all five are valid
    expect = (0.4 * np.array([0, 0, 1.5]) + 0.1 * np.array([-0.2, 0, 1.45])
              + 0.1 * np.array([0.2, 0, 1.45]) + 0.2 * np.array([-0.1, 0, 0.95])
              + 0.2 * np.array([0.1, 0, 0.95]))
    assert np.allclose(centroid(s), expect)


@pytest.mark.parametrize("scale", ["1e-3", "1", "1e3", "1e6", "mixed", "rounded"])
def test_centroid_rows_equal_reference_bit_for_bit(scale):
    """Every row of one stacked call is the frozen one-skeleton centroid, byte for byte.

    All 64 validity patterns of the chest and the five fallback joints, eight
    random skeletons each; where the reference has no centroid (None) the row
    is NaN. "rounded" draws small integers and signed zeros, so sums cancel.
    """
    from reference import association as ref_association

    rng = np.random.default_rng(sum(map(ord, scale)))
    torso = (CHEST, NECK, R_SHOULDER, L_SHOULDER, R_HIP, L_HIP)
    rows = []
    for pattern in range(2 ** len(torso)):
        for _ in range(8):
            valid = rng.random(JOINT_COUNT) < 0.5
            valid[list(torso)] = [(pattern >> bit) & 1 for bit in range(len(torso))]
            joints = rng.standard_normal((JOINT_COUNT, 3))
            if scale == "mixed":
                joints *= 10.0 ** rng.uniform(-3, 6, (JOINT_COUNT, 3))
            elif scale == "rounded":
                joints = np.round(2 * joints)
            else:
                joints *= float(scale)
            rows.append(Skeleton3D(joints, valid))
    got = centroid(Skeleton3D.stack(rows))
    assert got.shape == (len(rows), 3)
    for row, s in zip(got, rows):
        expect = ref_association.centroid(s)
        if expect is None:
            assert np.isnan(row).all()
        else:
            assert row.tobytes() == expect.tobytes()
            assert centroid(s).tobytes() == expect.tobytes()


def test_centroid_missing_when_no_torso():
    s = sparse_skeleton({0: (1.0, 1.0, 1.0), 4: (2.0, 2.0, 2.0)})
    assert np.isnan(centroid(s)).all()
    assert np.isnan(centroid(sparse_skeleton({}))).all()


# --- build_cost_matrix ----------------------------------------------------------

def _cents(points):
    return [np.asarray(p, dtype=float) for p in points]


def test_cost_matrix_no_tracks():
    c = build_cost_matrix(init_filter(np.zeros((0, 3)), 0.0, R), _cents([(0, 0, 1)]), R)
    assert c.shape == (0, 1)


def test_cost_matrix_zero_at_predicted_position():
    f = init_filter(np.array([[1.0, 1.0, 1.0]]), 0.0, R)
    c = build_cost_matrix(f, _cents([(1.0, 1.0, 1.0)]), R)
    assert c.shape == (1, 1)
    assert c[0, 0] == pytest.approx(0.0, abs=1e-18)


def test_cost_matrix_elementwise_oracle():
    # 2x3 case recomputed element by element with explicit matrices
    # (independent of the production filter code).
    rng = np.random.default_rng(3)
    tracks = init_filter(rng.uniform(-1, 1, (2, 3)), 0.0, R)
    cents = [rng.uniform(-1, 1, 3) for _ in range(3)]
    t = 0.25
    c = build_cost_matrix(predict(tracks, t, CFG), cents, R)

    H = np.hstack([np.eye(3), np.zeros((3, 3))])
    F = np.eye(6)
    F[0, 3] = F[1, 4] = F[2, 5] = t
    q = CFG.process_accel_sigma**2
    Q = np.zeros((6, 6))
    for a in range(3):
        Q[a, a] = q * t**3 / 3.0
        Q[a, a + 3] = Q[a + 3, a] = q * t**2 / 2.0
        Q[a + 3, a + 3] = q * t
    for i, (mean, cov) in enumerate(zip(tracks.mean, full_cov(tracks))):
        xp = F @ mean
        Pp = F @ cov @ F.T + Q
        S = H @ Pp @ H.T + CFG.meas_sigma**2 * np.eye(3)
        for j, cent in enumerate(cents):
            zt = cent - H @ xp
            expect = float(zt @ np.linalg.inv(S) @ zt)
            assert c[i, j] == pytest.approx(expect, rel=1e-9)


# --- munkres --------------------------------------------------------------------

def brute_force_min_cost(cost: np.ndarray):
    """Exhaustive-permutation minimum assignment cost (smaller side fully assigned)."""
    rows, cols = cost.shape
    if rows == 0 or cols == 0:
        return 0.0, {}
    best, best_map = np.inf, {}
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            total = sum(cost[i, perm[i]] for i in range(rows))
            if total < best:
                best, best_map = total, {i: perm[i] for i in range(rows)}
    else:
        for perm in itertools.permutations(range(rows), cols):
            total = sum(cost[perm[j], j] for j in range(cols))
            if total < best:
                best, best_map = total, {perm[j]: j for j in range(cols)}
    return best, best_map


def test_munkres_diagonal_dominance():
    assert munkres(np.array([[1.0, 2.0], [2.0, 1.0]])) == {0: 0, 1: 1}


def test_munkres_antidiagonal():
    assert munkres(np.array([[4.0, 1.0], [1.0, 4.0]])) == {0: 1, 1: 0}


def test_munkres_empty():
    assert munkres(np.zeros((0, 3))) == {}
    assert munkres(np.zeros((3, 0))) == {}


def test_munkres_never_assigns_sentinels():
    cost = np.array([[np.inf, np.inf], [1.0, np.inf]])
    assert munkres(cost) == {1: 0}
    assert munkres(np.full((2, 2), np.inf)) == {}


def test_munkres_matches_brute_force_randomized():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        cost = rng.uniform(0, 10, size=(rows, cols))
        got = munkres(cost)
        total = sum(cost[i, j] for i, j in got.items())
        best, _ = brute_force_min_cost(cost)
        assert len(got) == min(rows, cols)
        assert total == pytest.approx(best, abs=1e-9)


# --- data_association -----------------------------------------------------------

def test_association_no_tracks_all_unmatched():
    no_tracks = init_filter(np.zeros((0, 3)), 0.0, R)
    res = data_association(no_tracks, _cents([(0, 0, 1), (1, 1, 1)]), DEFAULT_GATE, R)
    assert res.matches == ()
    assert res.unmatched_detections == (0, 1)


def test_association_gate_splits_matches():
    f = init_filter(np.array([[0.0, 0.0, 1.0]]), 0.0, R)
    # det 0 at the predicted position; det 1 far beyond the gate
    res = data_association(f, _cents([(0.0, 0.0, 1.0), (5.0, 5.0, 5.0)]), DEFAULT_GATE, R)
    assert res.matches == ((0, 0),)
    assert res.unmatched_detections == (1,)


def test_association_strict_gate_boundary():
    f = init_filter(np.array([[0.0, 0.0, 0.0]]), 0.0, R)
    res = data_association(f, _cents([(0.05, 0.0, 0.0)]), 1e-12, R)
    assert res.matches == ()
    assert res.unmatched_detections == (0,)


def _random_config(rng, n_tracks, n_dets, missing_prob=0.0):
    """Predicted track filters and detection centroids; a missing one is dropped."""
    filters = init_filter(rng.uniform(-3, 3, (n_tracks, 3)), 0.0, R)
    points = [None if rng.random() < missing_prob else tuple(rng.uniform(-3, 3, 3))
              for _ in range(n_dets)]
    stamp = float(rng.uniform(0, 0.5))
    return (predict(filters, stamp, CFG),
            _cents(p for p in points if p is not None))


def _brute_force_gated(cost, eps):
    """Exhaustive assignment over the cost matrix, gate applied afterwards.

    Returns the (detection index, track row) matches and whether the optimum
    is unique.
    """
    best, best_map = brute_force_min_cost(cost)
    matches = tuple(sorted((j, i) for i, j in best_map.items() if cost[i, j] < eps))
    # uniqueness: is there another full assignment with the same total?
    rows, cols = cost.shape
    totals = []
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            totals.append(sum(cost[i, perm[i]] for i in range(rows)))
    else:
        for perm in itertools.permutations(range(rows), cols):
            totals.append(sum(cost[perm[j], j] for j in range(cols)))
    totals.sort()
    unique = len(totals) < 2 or (np.isfinite(totals[0]) and totals[1] - totals[0] > 1e-9)
    return matches, unique


def assert_partition(res, n_tracks, n_dets):
    """Every detection index and every track row lands exactly once."""
    det_ids = sorted([j for j, _ in res.matches] + list(res.unmatched_detections))
    assert det_ids == list(range(n_dets))
    matched_rows = [i for _, i in res.matches]
    unmatched_rows = [i for i in range(n_tracks) if i not in matched_rows]
    assert sorted(matched_rows + unmatched_rows) == list(range(n_tracks))


def test_association_matches_gated_brute_force():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(300):
        n_tracks = int(rng.integers(0, 5))
        n_dets = int(rng.integers(0, 5))
        predicted, cents = _random_config(rng, n_tracks, n_dets, missing_prob=0.15)
        eps = float(rng.uniform(0.5, 30.0))
        res = data_association(predicted, cents, eps, R)
        assert_partition(res, n_tracks, len(cents))

        if n_tracks and cents:
            cost = build_cost_matrix(predicted, cents, R)
            expect, unique = _brute_force_gated(cost, eps)
            if unique:
                assert tuple(sorted(res.matches)) == expect
                checked += 1
    assert checked > 100


def test_gating_monotonicity():
    rng = np.random.default_rng(61)
    for _ in range(50):
        predicted, cents = _random_config(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        eps_small = float(rng.uniform(0.1, 5.0))
        eps_big = eps_small + float(rng.uniform(0.0, 30.0))
        small = set(data_association(predicted, cents, eps_small, R).matches)
        big = set(data_association(predicted, cents, eps_big, R).matches)
        assert small <= big


def test_detection_permutation_stability():
    # Permuting detections permutes indices but keeps (track, centroid) pairs.
    filters = init_filter(np.array([[float(i), 0.0, 1.0] for i in range(3)]), 0.0, R)
    points = [(0.02, 0.0, 1.0), (1.01, 0.05, 1.0), (2.0, -0.03, 1.0)]
    base = data_association(filters, _cents(points), DEFAULT_GATE, R)
    base_pairs = {(points[j], row) for j, row in base.matches}
    for perm in itertools.permutations(range(3)):
        shuffled = [points[p] for p in perm]
        res = data_association(filters, _cents(shuffled), DEFAULT_GATE, R)
        pairs = {(shuffled[j], row) for j, row in res.matches}
        assert pairs == base_pairs


def test_association_result_is_value_object():
    r = AssociationResult(matches=((0, 1),), unmatched_detections=(1,))
    assert r.matches == ((0, 1),)
