"""Tests for projection, back-projection, median depth, and registration."""

import math

import numpy as np
import pytest

from skelfuse.errors import BehindCameraError, InvalidDepthError
from skelfuse.geometry import (
    DepthWindow, back_project, median_depth, project, to_world, world_to_camera, world_to_pixels,
)
from skelfuse.model import JOINT_COUNT
from skelfuse.simulate import bundled_scenario_path, load_scenario, look_at_extrinsic

from conftest import full_window, make_camera, sparse_skeleton


# --- project -----------------------------------------------------------------

def test_project_principal_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    px, d = project(np.array([0.0, 0.0, 2.0]), cam)
    assert (px[0], px[1]) == (320.0, 240.0)
    assert d == 2.0


def test_project_offset_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    px, d = project(np.array([1.0, 0.0, 2.0]), cam)
    assert (px[0], px[1]) == (570.0, 240.0)
    assert d == 2.0


def test_project_scalar_oracle():
    # Independently hand-evaluated: x = 365*0.3/1.7 + 256, y = 366*(-0.2)/1.7 + 212
    cam = make_camera(fx=365, fy=366, cx=256, cy=212)
    px, d = project(np.array([0.3, -0.2, 1.7]), cam)
    assert px[0] == pytest.approx(320.4117647058824, abs=1e-12)
    assert px[1] == pytest.approx(168.94117647058823, abs=1e-12)
    assert d == 1.7


def test_project_behind_camera():
    cam = make_camera()
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, -1.0]), cam)
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, 0.0]), cam)


# --- stacks of points ---------------------------------------------------------

def _stack_cameras(rng):
    """Every bundled scenario's cameras, then eight seeded random look-at cameras."""
    cams = [spec.camera for name in ("four_kinect_walk", "three_person", "three_person_jitter")
            for spec in load_scenario(bundled_scenario_path(name)).cameras]
    for i in range(8):
        fx, fy = rng.uniform(300.0, 900.0, 2)
        cx, cy = rng.uniform(100.0, 400.0, 2)
        extrinsic = look_at_extrinsic(rng.uniform(-6.0, 6.0, 3), rng.uniform(-1.0, 1.0, 3))
        cams.append(make_camera(f"r{i}", fx, fy, cx, cy, extrinsic))
    return cams


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_camera_model_on_a_stack_equals_point_by_point(seed):
    # The stack form must round exactly as one point at a time, which is
    # R @ p + t as one matrix-vector product and the scalar pinhole formula.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    world = rng.uniform(-5.0, 5.0, (n, JOINT_COUNT, 3))
    in_front = rng.uniform([-3.0, -3.0, 0.2], [3.0, 3.0, 8.0], (n, JOINT_COUNT, 3))
    for cam in _stack_cameras(rng):
        r, t = cam.camera_from_world[:3, :3], cam.camera_from_world[:3, 3]
        p_cam = world_to_camera(world, cam)
        assert p_cam.shape == world.shape
        assert np.array_equal(p_cam, [[world_to_camera(p, cam) for p in row] for row in world])
        assert np.array_equal(p_cam, [[r @ p + t for p in row] for row in world])
        front = p_cam[..., 2] > 0.0
        pixels, depths = world_to_pixels(world, cam)
        assert np.array_equal(depths, p_cam[..., 2]) and np.isnan(pixels[~front]).all()
        assert np.array_equal(pixels[front], project(p_cam[front], cam)[0])
        for stack in (in_front, p_cam[front]):
            pixels, depths = project(stack, cam)
            assert pixels.shape == stack.shape[:-1] + (2,) and depths.shape == stack.shape[:-1]
            points = stack.reshape(-1, 3)
            one = [project(p, cam) for p in points]
            assert np.array_equal(pixels.reshape(-1, 2), [px for px, _ in one])
            assert np.array_equal(depths.ravel(), [d for _, d in one])
            assert np.array_equal(pixels.reshape(-1, 2), [
                (cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy) for x, y, z in points.tolist()])


@pytest.mark.parametrize("z", [0.0, -1e-9, -2.0])
def test_project_stack_with_one_point_behind_raises(z):
    rng = np.random.default_rng(5)
    cam = make_camera()
    stack = rng.uniform([-3.0, -3.0, 0.2], [3.0, 3.0, 8.0], (4, JOINT_COUNT, 3))
    project(stack, cam)
    for _ in range(10):
        bad = stack.copy()
        bad[tuple(rng.integers(0, bad.shape[:2]))][2] = z
        with pytest.raises(BehindCameraError):
            project(bad, cam)


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
    # One bad depth among good ones rejects the whole array.
    with pytest.raises(InvalidDepthError):
        back_project([(10.0, 10.0)] * 3, [1.0, 0.0, 2.0], cam)


def test_project_back_project_roundtrip_randomized():
    rng = np.random.default_rng(7)
    cam = make_camera(fx=417.3, fy=512.9, cx=301.0, cy=255.5)
    pixels, depths, points = [], [], []
    for _ in range(500):
        p = rng.uniform([-3, -3, 0.2], [3, 3, 8.0])
        px, d = project(p, cam)
        q = back_project(px, d, cam)
        assert np.linalg.norm(q - p) / np.linalg.norm(p) < 1e-12
        pixels.append(px)
        depths.append(d)
        points.append(q)
    # Back-projecting all pairs in one call matches the per-point results bit for bit.
    assert np.array_equal(back_project(pixels, depths, cam), np.array(points))


# --- median_depth ------------------------------------------------------------

def _median_at(window, p, radius):
    """``median_depth`` of one pixel, as a frame of one; None where no valid sample."""
    (depth,) = median_depth([window], [0], [p], radius)
    return None if np.isnan(depth) else float(depth)


def test_median_depth_uniform_map():
    dm = full_window(np.full((5, 5), 1.5))
    assert _median_at(dm, (2.0, 2.0), 2.0) == 1.5


def test_median_depth_outlier_rejection():
    # Neighborhood holds {1.0, 1.1, 9.0}: median 1.1 (mean would be 3.7).
    vals = np.full((5, 5), np.nan)
    vals[2, 1] = 1.0
    vals[2, 2] = 1.1
    vals[2, 3] = 9.0
    dm = full_window(vals)
    assert _median_at(dm, (2.0, 2.0), 2.0) == 1.1


def test_median_depth_all_missing():
    dm = full_window(np.full((5, 5), np.nan))
    assert _median_at(dm, (2.0, 2.0), 2.0) is None


def test_median_depth_zero_means_missing():
    vals = np.zeros((5, 5))
    vals[2, 2] = 3.25
    dm = full_window(vals)
    assert _median_at(dm, (2.0, 2.0), 2.0) == 3.25


def test_median_depth_lower_median_on_even_count():
    # Exactly two valid samples at different depths: pick the lower one.
    vals = np.full((5, 5), np.nan)
    vals[2, 2] = 2.0
    vals[2, 3] = 4.0
    dm = full_window(vals)
    assert _median_at(dm, (2.5, 2.0), 1.2) == 2.0


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
        p = (rng.uniform(0, w - 1e-9), rng.uniform(0, h - 1e-9))
        r = rng.uniform(0.5, 4.0)
        assert _median_at(full_window(vals), p, r) == _brute_force_median(vals, p, r)


def test_median_depth_permutation_invariant():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.5, 3.0, size=(5, 5))
    dm1 = full_window(base)
    m1 = _median_at(dm1, (2.0, 2.0), 2.5)
    # permute the sample VALUES inside the neighborhood
    shuffled = base.copy()
    flat = shuffled[1:4, 1:4].reshape(-1)
    rng.shuffle(flat)
    shuffled[1:4, 1:4] = flat.reshape(3, 3)
    # permuting contents can move values in/out of the disk boundary only if
    # the disk clips the block; radius 2.5 at center covers the whole 3x3
    m2 = _median_at(full_window(shuffled), (2.0, 2.0), 2.5)
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
        base = _median_at(full_window(vals), (2.0, 2.0), 4.0)
        hi = np.unravel_index(np.nanargmax(vals), (5, 5))
        lo = np.unravel_index(np.nanargmin(vals), (5, 5))
        vals_hi = vals.copy()
        vals_hi[hi] = 500.0
        vals_lo = vals.copy()
        vals_lo[lo] = 1e-4
        assert _median_at(full_window(vals_hi), (2.0, 2.0), 4.0) == base
        assert _median_at(full_window(vals_lo), (2.0, 2.0), 4.0) == base


def test_median_depth_batched_equals_one_pixel_at_a_time():
    # One call over a frame of windows, some of them empty, gives every pixel
    # the bits it gets alone, missing samples included.
    rng = np.random.default_rng(31)
    windows = []
    for _ in range(12):
        top, left = (int(v) for v in rng.integers(0, 40, size=2))
        rows, cols = (int(v) for v in rng.integers(0, 25, size=2))
        depth = rng.uniform(0.5, 6.0, size=(rows, cols))
        depth[rng.random(depth.shape) < 0.3] = np.nan
        depth[rng.random(depth.shape) < 0.1] = 0.0
        windows.append(DepthWindow(depth, top, left, (64, 64)))
    windows.insert(5, DepthWindow(np.empty((0, 0)), 0, 0, (64, 64)))
    which = rng.integers(0, len(windows), size=400)
    # Pixels in and around their own window, kept inside the image.
    lo = np.array([(w.left, w.top) for w in windows], dtype=float)[which]
    hi = lo + np.array([w.depth.shape[::-1] for w in windows])[which]
    p = np.clip(rng.uniform(lo - 3.0, hi + 3.0), 0.0, 63.5)
    for radius in (0.5, 3.0, 4.7):
        batched = median_depth(windows, which, p, radius)
        alone = [median_depth([windows[k]], [0], [q], radius)[0] for k, q in zip(which, p)]
        assert batched.tobytes() == np.array(alone).tobytes()
        assert 50 < np.isfinite(batched).sum() < len(p)


def test_median_depth_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        median_depth([full_window(np.ones((3, 3)))], [0], [(1.0, 1.0)], 0.0)


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
