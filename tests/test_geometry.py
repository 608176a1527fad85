"""Tests for projection, back-projection, median depth, and registration."""

import math

import numpy as np
import pytest

from skelfuse.errors import BehindCameraError, InvalidDepthError, OutOfImageError
from skelfuse.geometry import back_project, median_depth, project, to_world
from skelfuse.model import JOINT_COUNT

from conftest import make_camera, sparse_skeleton


# --- project -----------------------------------------------------------------

def test_project_principal_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    px, d = project(np.array([0.0, 0.0, 2.0]), cam)
    assert (px.x, px.y) == (320.0, 240.0)
    assert d == 2.0


def test_project_offset_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    px, d = project(np.array([1.0, 0.0, 2.0]), cam)
    assert (px.x, px.y) == (570.0, 240.0)
    assert d == 2.0


def test_project_scalar_oracle():
    # Independently hand-evaluated: x = 365*0.3/1.7 + 256, y = 366*(-0.2)/1.7 + 212
    cam = make_camera(fx=365, fy=366, cx=256, cy=212)
    px, d = project(np.array([0.3, -0.2, 1.7]), cam)
    assert px.x == pytest.approx(320.4117647058824, abs=1e-12)
    assert px.y == pytest.approx(168.94117647058823, abs=1e-12)
    assert d == 1.7


def test_project_behind_camera():
    cam = make_camera()
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, -1.0]), cam)
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, 0.0]), cam)


# --- back_project ------------------------------------------------------------

def test_back_project_principal_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    assert np.allclose(back_project((320.0, 240.0), 2.0, cam), [0.0, 0.0, 2.0])


def test_back_project_inverse_of_project_example():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    assert np.allclose(back_project((570.0, 240.0), 2.0, cam), [1.0, 0.0, 2.0])


def test_back_project_invalid_depth():
    cam = make_camera()
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidDepthError):
            back_project((10.0, 10.0), bad, cam)


def test_project_back_project_roundtrip_randomized():
    rng = np.random.default_rng(7)
    cam = make_camera(fx=417.3, fy=512.9, cx=301.0, cy=255.5)
    for _ in range(500):
        p = rng.uniform([-3, -3, 0.2], [3, 3, 8.0])
        px, d = project(p, cam)
        q = back_project(px, d, cam)
        assert np.linalg.norm(q - p) / np.linalg.norm(p) < 1e-12


# --- median_depth ------------------------------------------------------------

def _depth_map(values):
    return np.asarray(values, dtype=float)


def test_median_depth_uniform_map():
    dm = _depth_map(np.full((5, 5), 1.5))
    assert median_depth(dm, (2.0, 2.0), 2.0) == 1.5


def test_median_depth_outlier_rejection():
    # Neighborhood holds {1.0, 1.1, 9.0}: median 1.1 (mean would be 3.7).
    vals = np.full((5, 5), np.nan)
    vals[2, 1] = 1.0
    vals[2, 2] = 1.1
    vals[2, 3] = 9.0
    dm = _depth_map(vals)
    assert median_depth(dm, (2.0, 2.0), 2.0) == 1.1


def test_median_depth_all_missing():
    dm = _depth_map(np.full((5, 5), np.nan))
    assert median_depth(dm, (2.0, 2.0), 2.0) is None


def test_median_depth_zero_means_missing():
    vals = np.zeros((5, 5))
    vals[2, 2] = 3.25
    dm = _depth_map(vals)
    assert median_depth(dm, (2.0, 2.0), 2.0) == 3.25


def test_median_depth_out_of_bounds_is_error():
    dm = _depth_map(np.full((5, 5), 1.0))
    with pytest.raises(OutOfImageError):
        median_depth(dm, (5.0, 2.0), 2.0)
    with pytest.raises(OutOfImageError):
        median_depth(dm, (2.0, -0.1), 2.0)


def test_median_depth_lower_median_on_even_count():
    # Exactly two valid samples at different depths: pick the lower one.
    vals = np.full((5, 5), np.nan)
    vals[2, 2] = 2.0
    vals[2, 3] = 4.0
    dm = _depth_map(vals)
    assert median_depth(dm, (2.5, 2.0), 1.2) == 2.0


def _brute_force_median(dm, p, radius):
    """Sort-and-pick oracle over the full pixel grid."""
    samples = []
    h, w = dm.shape
    for iy in range(h):
        for ix in range(w):
            if (ix - p[0]) ** 2 + (iy - p[1]) ** 2 < radius**2:
                v = dm[iy, ix]
                if np.isfinite(v) and v > 0:
                    samples.append(v)
    if not samples:
        return None
    samples.sort()
    return samples[(len(samples) - 1) // 2]


def test_median_depth_matches_brute_force_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        h, w = rng.integers(3, 12, size=2)
        vals = rng.uniform(0.1, 6.0, size=(h, w))
        vals[rng.random((h, w)) < 0.3] = np.nan
        vals[rng.random((h, w)) < 0.2] = 0.0
        dm = vals
        p = (rng.uniform(0, w - 1e-9), rng.uniform(0, h - 1e-9))
        r = rng.uniform(0.5, 4.0)
        assert median_depth(dm, p, r) == _brute_force_median(dm, p, r)


def test_median_depth_permutation_invariant():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.5, 3.0, size=(5, 5))
    dm1 = _depth_map(base)
    m1 = median_depth(dm1, (2.0, 2.0), 2.5)
    # permute the sample VALUES inside the neighborhood
    shuffled = base.copy()
    flat = shuffled[1:4, 1:4].reshape(-1)
    rng.shuffle(flat)
    shuffled[1:4, 1:4] = flat.reshape(3, 3)
    # permuting contents can move values in/out of the disk boundary only if
    # the disk clips the block; radius 2.5 at center covers the whole 3x3
    m2 = median_depth(_depth_map(shuffled), (2.0, 2.0), 2.5)
    assert m1 == m2


def test_median_depth_single_extreme_outlier_invariant():
    # Corrupting the max (or min) sample to an arbitrary extreme never moves
    # the median when >= 3 valid samples exist.
    rng = np.random.default_rng(17)
    for _ in range(100):
        vals = np.full((5, 5), np.nan)
        n = rng.integers(3, 8)
        cells = rng.choice(25, size=n, replace=False)
        vals[np.unravel_index(cells, (5, 5))] = rng.uniform(1.0, 3.0, size=n)
        base = median_depth(_depth_map(vals), (2.0, 2.0), 4.0)
        hi = np.unravel_index(np.nanargmax(vals), (5, 5))
        lo = np.unravel_index(np.nanargmin(vals), (5, 5))
        vals_hi = vals.copy()
        vals_hi[hi] = 500.0
        vals_lo = vals.copy()
        vals_lo[lo] = 1e-4
        assert median_depth(_depth_map(vals_hi), (2.0, 2.0), 4.0) == base
        assert median_depth(_depth_map(vals_lo), (2.0, 2.0), 4.0) == base


# --- to_world ------------------------------------------------------------------

def _to_world(points: dict[int, tuple], cam) -> np.ndarray:
    """``to_world`` of sparse camera-frame joints; absent joints are invalid."""
    s = sparse_skeleton(points)
    return to_world(s.joints, s.valid, cam)


def test_transform_identity_retags_frame():
    # An identity extrinsic makes camera-frame joints world-frame as they are.
    points = {0: (0.5, -0.25, 2.0), 14: (0.0, 0.0, 3.0)}
    assert np.array_equal(_to_world(points, make_camera("c9")), sparse_skeleton(points).joints)


def test_transform_pure_translation():
    m = np.eye(4)
    m[:3, 3] = (1.0, 2.0, 3.0)
    cam = make_camera("c1", extrinsic=m)
    out = _to_world({4: (0.0, 0.0, 1.0)}, cam)
    assert np.allclose(out[4], [1.0, 2.0, 4.0])


def test_transform_rotation_plus_translation_oracle():
    # 90 degrees about Z then translate: hand-computed 4x4 product.
    m = np.eye(4)
    m[:3, :3] = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    m[:3, 3] = (1.0, 2.0, 3.0)
    cam = make_camera("c1", extrinsic=m)
    out = _to_world({7: (1.0, 0.0, 1.0)}, cam)
    # R @ (1,0,1) = (0,1,1); + t = (1,3,4)
    assert np.allclose(out[7], [1.0, 3.0, 4.0], atol=1e-12)


def test_transform_preserves_validity_mask_and_distances():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = np.eye(4)
    m[:3, :3] = q
    m[:3, 3] = rng.standard_normal(3)
    cam = make_camera("cr", extrinsic=m)

    joints = rng.uniform(-2, 2, size=(JOINT_COUNT, 3))
    valid = rng.random(JOINT_COUNT) < 0.6
    out = to_world(joints, valid, cam)
    assert not out[~valid].any()
    idx = np.flatnonzero(valid)
    for a in idx:
        for b in idx:
            d_in = np.linalg.norm(joints[a] - joints[b])
            d_out = np.linalg.norm(out[a] - out[b])
            assert abs(d_in - d_out) < 1e-9
