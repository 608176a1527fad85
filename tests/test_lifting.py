"""Tests for single-view 2D->3D lifting and detection-set assembly."""

import numpy as np
import pytest

from skelfuse.geometry import project, world_to_camera
from skelfuse.lifting import lift_skeleton, make_detection_set
from skelfuse.model import JOINT_COUNT, Skeleton2D
from skelfuse.simulate import GroundTruth, render_detection

from conftest import make_camera, make_camera_spec, walking_scenario


def _skeleton2d(points: dict[int, tuple]) -> Skeleton2D:
    px = np.zeros((JOINT_COUNT, 2))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    for i, p in points.items():
        px[i] = p
        valid[i] = True
    return Skeleton2D(px, valid)


def _uniform_depth(w, h, value):
    return np.full((h, w), float(value))


def test_lift_all_invalid_stays_invalid():
    cam = make_camera()
    s = lift_skeleton(Skeleton2D.empty(), _uniform_depth(640, 480, 2.0), cam)
    assert s.n_valid == 0
    assert not s.joints.any()


def test_lift_joint_at_principal_point():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    s2d = _skeleton2d({5: (320.0, 240.0)})
    s3d = lift_skeleton(s2d, _uniform_depth(640, 480, 2.0), cam)
    assert s3d.valid[5]
    assert np.allclose(s3d.joints[5], [0.0, 0.0, 2.0])


def test_lift_missing_depth_invalidates_joint():
    cam = make_camera()
    vals = np.full((480, 640), np.nan)
    vals[100:120, 100:120] = 1.5
    s2d = _skeleton2d({0: (110.0, 110.0), 1: (400.0, 400.0)})
    s3d = lift_skeleton(s2d, vals, cam)
    assert s3d.valid[0]
    assert not s3d.valid[1]


def test_lift_out_of_image_joint_invalid_not_fatal():
    cam = make_camera()
    s2d = _skeleton2d({0: (1000.0, 50.0), 1: (320.0, 240.0)})
    s3d = lift_skeleton(s2d, _uniform_depth(640, 480, 2.0), cam)
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
        skeletons, depth_maps = render_detection(gt, spec, t, rng)
        for s2d, dm in zip(skeletons, depth_maps):
            s3d = lift_skeleton(s2d, dm, spec.camera)
            for j in range(JOINT_COUNT):
                if not s3d.valid[j]:
                    continue
                p_cam = world_to_camera(s3d.joints[j], spec.camera)
                px, depth = project(p_cam, spec.camera)
                assert abs(px.x - s2d.pixels[j, 0]) < 0.5
                assert abs(px.y - s2d.pixels[j, 1]) < 0.5
                assert p_cam[2] == depth
                checked += 1
    assert checked > 20


def test_valid_3d_count_bounded_by_valid_2d():
    spec = make_camera_spec(pixel_sigma=4.0, joint_dropout=0.3)
    cfg = walking_scenario()
    gt = GroundTruth(cfg.persons, cfg.duration)
    rng = np.random.default_rng(29)
    for t in (0.2, 1.2, 2.7):
        skeletons, depth_maps = render_detection(gt, spec, t, rng)
        for s2d, dm in zip(skeletons, depth_maps):
            s3d = lift_skeleton(s2d, dm, spec.camera)
            assert s3d.n_valid <= int(np.count_nonzero(s2d.valid))


def test_make_detection_set_empty_is_valid():
    cam = make_camera()
    ds = make_detection_set([], [], cam, stamp=1.5)
    assert ds.skeletons == ()
    assert ds.stamp == 1.5
    assert ds.camera_id == cam.camera_id


def test_make_detection_set_identity_extrinsic():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    s2d = _skeleton2d({3: (320.0, 240.0)})
    ds = make_detection_set([s2d], [_uniform_depth(640, 480, 2.0)], cam, stamp=0.0)
    assert len(ds.skeletons) == 1
    assert np.allclose(ds.skeletons[0].joints[3], [0.0, 0.0, 2.0])


def test_make_detection_set_drops_all_invalid_skeletons():
    cam = make_camera()
    s_ok = _skeleton2d({3: (320.0, 240.0)})
    ds = make_detection_set(
        [Skeleton2D.empty(), s_ok, Skeleton2D.empty()],
        [_uniform_depth(640, 480, 2.0)] * 3, cam, stamp=0.0,
    )
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
    ds = make_detection_set([a, b], dms, cam, stamp=0.0)
    assert len(ds.skeletons) == 2
    for got, s2d, z in zip(ds.skeletons, (a, b), (3.0, 2.0)):
        assert np.array_equal(got.valid, s2d.valid)
        assert not got.joints[~got.valid].any()
        for j in np.flatnonzero(s2d.valid):
            u, v = s2d.pixels[j]
            p = np.array([(u - 320.0) * z / 500.0, (v - 240.0) * z / 500.0, z])
            assert np.allclose(got.joints[j], m[:3, :3] @ p + m[:3, 3], atol=1e-12)


def test_make_detection_set_requires_one_depth_map_per_skeleton():
    cam = make_camera()
    s = _skeleton2d({3: (320.0, 240.0)})
    with pytest.raises(ValueError):
        make_detection_set([s, s], [_uniform_depth(640, 480, 2.0)], cam, stamp=0.0)
