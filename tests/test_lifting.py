"""Tests for single-view 2D->3D lifting and detection-set assembly."""

import numpy as np
import pytest
import yaml

from skelfuse.geometry import DepthWindow, project, world_to_camera
from skelfuse.lifting import lift_skeleton, make_detection_set
from skelfuse.model import JOINT_COUNT
from skelfuse.simulate import GroundTruth, PersonSpec, render_detection, scenario_from_dict

from conftest import (
    GROUP_SCENARIO, border_crossing, full_window, make_camera, make_camera_spec, paste_window,
    walking_scenario,
)
from reference import lift as ref_lift


def _skeleton2d(points: dict[int, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """(15, 2) pixels and (15,) mask of sparse 2D joints; absent joints are invalid."""
    px = np.zeros((JOINT_COUNT, 2))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    for i, p in points.items():
        px[i] = p
        valid[i] = True
    return px, valid


def _uniform_depth(w, h, value):
    return full_window(np.full((h, w), float(value)))


def _lift_one(pixels, valid, window, cam):
    """Lift one (15, 2) skeleton as a frame of one."""
    return lift_skeleton(pixels[None], valid[None], [window], cam)[0]


def test_lift_all_invalid_stays_invalid():
    cam = make_camera()
    s = _lift_one(*_skeleton2d({}), _uniform_depth(640, 480, 2.0), cam)
    assert not s.valid.any()
    assert not s.joints.any()


def test_lift_joint_at_principal_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    s2d = _skeleton2d({5: (320.0, 240.0)})
    s3d = _lift_one(*s2d, _uniform_depth(640, 480, 2.0), cam)
    assert s3d.valid[5]
    assert np.allclose(s3d.joints[5], [0.0, 0.0, 2.0])


def test_lift_missing_depth_invalidates_joint():
    cam = make_camera()
    vals = np.full((480, 640), np.nan)
    vals[100:120, 100:120] = 1.5
    s2d = _skeleton2d({0: (110.0, 110.0), 1: (400.0, 400.0)})
    s3d = _lift_one(*s2d, full_window(vals), cam)
    assert s3d.valid[0]
    assert not s3d.valid[1]


def test_lift_out_of_image_joint_invalid_not_fatal():
    cam = make_camera()
    s2d = _skeleton2d({0: (1000.0, 50.0), 1: (320.0, 240.0)})
    s3d = _lift_one(*s2d, _uniform_depth(640, 480, 2.0), cam)
    assert not s3d.valid[0]
    assert s3d.valid[1]


def test_lift_project_roundtrip_on_rendered_skeletons():
    # Every lifted joint, taken back into the camera frame, must reproject
    # onto its detected pixel and depth.
    spec = make_camera_spec(pixel_sigma=2.0, depth_sigma=0.02, splat_radius=6.0)
    cfg = walking_scenario()
    gt = GroundTruth(cfg.persons, cfg.duration)
    rng = np.random.default_rng(23)
    checked = 0
    for t in (0.5, 1.0, 2.0, 3.0):
        pixels, valid, windows = render_detection(gt, spec, t, rng)
        for px2d, s3d in zip(pixels, lift_skeleton(pixels, valid, windows, spec.camera)):
            for j in range(JOINT_COUNT):
                if not s3d.valid[j]:
                    continue
                p_cam = world_to_camera(s3d.joints[j], spec.camera)
                px, depth = project(p_cam, spec.camera)
                assert abs(px[0] - px2d[j, 0]) < 0.5
                assert abs(px[1] - px2d[j, 1]) < 0.5
                assert p_cam[2] == depth
                checked += 1
    assert checked > 20


def test_valid_3d_count_bounded_by_valid_2d():
    spec = make_camera_spec(pixel_sigma=4.0, joint_dropout=0.3)
    cfg = walking_scenario()
    gt = GroundTruth(cfg.persons, cfg.duration)
    rng = np.random.default_rng(29)
    for t in (0.2, 1.2, 2.7):
        pixels, valid, windows = render_detection(gt, spec, t, rng)
        s3d = lift_skeleton(pixels, valid, windows, spec.camera)
        assert (np.count_nonzero(s3d.valid, axis=1) <= np.count_nonzero(valid, axis=1)).all()


def test_make_detection_set_empty_is_valid():
    cam = make_camera()
    ds = make_detection_set([], [], [], cam, stamp=1.5)
    assert len(ds.skeletons) == 0
    assert ds.stamp == 1.5
    assert ds.camera_id == cam.camera_id


def test_make_detection_set_identity_extrinsic():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    px, valid = _skeleton2d({3: (320.0, 240.0)})
    ds = make_detection_set([px], [valid], [_uniform_depth(640, 480, 2.0)], cam, stamp=0.0)
    assert len(ds.skeletons) == 1
    assert np.allclose(ds.skeletons[0].joints[3], [0.0, 0.0, 2.0])


def test_make_detection_set_drops_all_invalid_skeletons():
    cam = make_camera()
    pixels, valid = zip(_skeleton2d({}), _skeleton2d({3: (320.0, 240.0)}), _skeleton2d({}))
    ds = make_detection_set(pixels, valid, [_uniform_depth(640, 480, 2.0)] * 3, cam, stamp=0.0)
    assert len(ds.skeletons) == 1


def test_make_detection_set_matches_per_skeleton_transform():
    # Two persons through a rotated+translated camera, each with its own depth
    # map: every valid joint is the back-projected pixel p mapped to R p + t.
    m = np.eye(4)
    m[:3, :3] = [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    m[:3, 3] = (0.5, -1.0, 0.25)
    cam = make_camera("cr", fx=500, fy=500, cx=320, cy=240, extrinsic=m)
    dms = [_uniform_depth(640, 480, 3.0), _uniform_depth(640, 480, 2.0)]
    a = _skeleton2d({0: (300.0, 200.0), 1: (350.0, 260.0)})
    b = _skeleton2d({14: (100.0, 100.0)})
    ds = make_detection_set([a[0], b[0]], [a[1], b[1]], dms, cam, stamp=0.0)
    assert len(ds.skeletons) == 2
    for got, (px2d, v2d), z in zip(ds.skeletons, (a, b), (3.0, 2.0)):
        assert np.array_equal(got.valid, v2d)
        assert not got.joints[~got.valid].any()
        for j in np.flatnonzero(v2d):
            u, v = px2d[j]
            p = np.array([(u - 320.0) * z / 500.0, (v - 240.0) * z / 500.0, z])
            assert np.allclose(got.joints[j], m[:3, :3] @ p + m[:3, 3], atol=1e-12)


def test_make_detection_set_requires_one_depth_map_per_skeleton():
    cam = make_camera()
    px, valid = _skeleton2d({3: (320.0, 240.0)})
    with pytest.raises(ValueError):
        make_detection_set([px, px], [valid, valid], [_uniform_depth(640, 480, 2.0)], cam, stamp=0.0)


# --- a depth window lifts as the full image it stands for -----------------------

def _probe_pixels(rng, window, n):
    """Pixels inside the window, within 3 px around its edge, and within 3 px of the image border."""
    height, width = window.image_shape
    rows, cols = window.depth.shape
    lo = np.array([window.left, window.top], dtype=float)
    hi = lo + (cols, rows)
    inside = rng.uniform(lo, hi, size=(n, 2))
    ring = rng.uniform(lo - 3.0, hi + 3.0, size=(n, 2))
    border = rng.uniform((0.0, 0.0), (width, height), size=(n, 2))
    side, edge = rng.integers(0, 4, size=n), rng.uniform(0.0, 3.0, size=n)
    border[:, 0] = np.where(side == 0, edge, np.where(side == 1, width - edge, border[:, 0]))
    border[:, 1] = np.where(side == 2, edge, np.where(side == 3, height - edge, border[:, 1]))
    return np.concatenate([inside, ring, border])


def _random_window(rng, height=480, width=640):
    """A window of random depth, NaN and 0 samples, often touching the image border."""
    top, left = int(rng.integers(0, height)), int(rng.integers(0, width))
    bottom = min(height, top + int(rng.integers(0, 40)))
    right = min(width, left + int(rng.integers(0, 40)))
    if rng.random() < 0.25:
        top = 0
    if rng.random() < 0.25:
        left = 0
    if rng.random() < 0.25:
        bottom = height
    if rng.random() < 0.25:
        right = width
    depth = rng.uniform(0.5, 6.0, size=(bottom - top, right - left))
    depth[rng.random(depth.shape) < 0.3] = np.nan
    depth[rng.random(depth.shape) < 0.1] = 0.0
    return DepthWindow(depth, top, left, (height, width))


def _rendered_windows(rng):
    """Windows of the border-crossing person, many of them cut by the image border."""
    gt, position, target = border_crossing()
    spec = make_camera_spec(position=position, target=target, depth_sigma=0.01)
    for t in np.arange(0.5, 1.5, 0.05):
        yield render_detection(gt, spec, float(t), rng)[2][0]


def test_window_lifts_as_its_full_frame():
    rng = np.random.default_rng(77)
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    rendered = list(_rendered_windows(rng))
    assert sum(w.left == 0 and w.depth.size > 0 for w in rendered) >= 5  # cut by the border
    windows = [*rendered, *(_random_window(rng) for _ in range(80))]
    lifted = 0
    for window in windows:
        frame = full_window(paste_window(window))
        pool = _probe_pixels(rng, window, 20)
        pixels, valid = [], []
        for _ in range(3):
            pixels.append(pool[rng.integers(0, len(pool), size=JOINT_COUNT)])
            valid.append(rng.random(JOINT_COUNT) < 0.9)
        # Three skeletons over the same depth image make one frame.
        got = lift_skeleton(pixels, valid, [window] * 3, cam)
        want = lift_skeleton(pixels, valid, [frame] * 3, cam)
        assert got == want
        assert got.joints.tobytes() == want.joints.tobytes()
        lifted += int(got.valid.sum())
    assert lifted > 500


def test_person_out_of_view_gets_empty_window_and_lifts_invalid():
    spec = make_camera_spec(position=(4.0, 0.0, 1.6), target=(0.0, 0.0, 1.0), splat_radius=6.0)
    persons = (PersonSpec("behind", waypoints=np.array([[0.0, 8.0, 0.0]])),
               PersonSpec("aside", waypoints=np.array([[0.0, 0.0, 30.0]])))
    gt = GroundTruth(persons, 1.0)
    pixels, valid, windows = render_detection(gt, spec, 0.0, np.random.default_rng(5))
    assert not valid.any()
    everywhere = np.random.default_rng(6).uniform((0.0, 0.0), (640.0, 480.0), size=(JOINT_COUNT, 2))
    for window in windows:
        assert window.depth.shape == (0, 0)
        assert window.image_shape == (480, 640)
    s3d = lift_skeleton([everywhere] * 2, np.ones((2, JOINT_COUNT), dtype=bool), windows,
                        spec.camera)
    assert len(s3d) == 2
    assert not s3d.valid.any()


def test_frame_lift_equals_per_joint_reference():
    # Rendered frames of five persons in view, then frames of random windows
    # and pixels: each row of a frame lift is the per-joint lift, bit for bit.
    cfg = scenario_from_dict(yaml.safe_load(GROUP_SCENARIO))
    gt, spec = GroundTruth(cfg.persons, cfg.duration), cfg.cameras[0]
    rng = np.random.default_rng(83)
    frames = [render_detection(gt, spec, float(t), rng) for t in np.arange(0.0, 1.0, 0.1)]
    frames = [f for f in frames if f is not None]
    for _ in range(10):
        windows = [_random_window(rng) for _ in range(4)]
        pixels = [pool[rng.integers(0, len(pool), size=JOINT_COUNT)]
                  for pool in (_probe_pixels(rng, w, 20) for w in windows)]
        frames.append((np.array(pixels), rng.random((4, JOINT_COUNT)) < 0.9, windows))
    lifted = 0
    for pixels, valid, windows in frames:
        got = lift_skeleton(pixels, valid, windows, spec.camera)
        for row, (px, v, window) in enumerate(zip(pixels, valid, windows, strict=True)):
            want = ref_lift.lift_skeleton(px, v, window, spec.camera)
            assert got[row].valid.tobytes() == want.valid.tobytes()
            assert got[row].joints.tobytes() == want.joints.tobytes()
        lifted += int(got.valid.sum())
    assert lifted > 500
