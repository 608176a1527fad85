"""Tests for the deterministic camera-network simulator."""

import numpy as np
import pytest

from skelfuse.errors import ConfigError
from skelfuse.geometry import project, world_to_camera
from skelfuse.lifting import lift_skeleton
from skelfuse.model import CHEST, JOINT_COUNT
from skelfuse.simulate import (
    CameraSpec,
    GroundTruth,
    PersonSpec,
    ScenarioConfig,
    look_at_extrinsic,
    render_detection,
    run_scenario,
    scenario_from_dict,
)

from conftest import make_camera_spec, walking_scenario


BONES = [
    (0, 1), (1, 14),          # head-neck-chest
    (1, 2), (2, 3), (3, 4),   # neck / right arm
    (1, 5), (5, 6), (6, 7),   # left arm
    (8, 9), (9, 10),          # right leg
    (11, 12), (12, 13),       # left leg
    (14, 8), (14, 11),        # chest to hips
]


def _static_person(x=0.0, y=0.0, **kw):
    return PersonSpec("p", waypoints=np.array([[0.0, x, y]]), **kw)


# --- ground truth --------------------------------------------------------------

def test_truth_initial_pose_on_waypoint():
    gt = GroundTruth((_static_person(1.0, -2.0, swing_amplitude=0.0),), 5.0)
    s = gt.truth_at("p", 0.0)
    assert s.joints[CHEST][0] == pytest.approx(1.0)
    assert s.joints[CHEST][1] == pytest.approx(-2.0)
    assert np.all(s.valid)


def test_truth_static_person_constant():
    gt = GroundTruth((_static_person(swing_amplitude=0.0),), 5.0)
    a = gt.truth_at("p", 0.3)
    b = gt.truth_at("p", 4.9)
    assert a == b


def test_truth_waypoint_linear_interpolation():
    p = PersonSpec("p", waypoints=np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 0.0]]))
    gt = GroundTruth((p,), 4.0)
    assert gt.truth_at("p", 2.0).joints[CHEST][0] == pytest.approx(2.0)


def test_truth_unknown_person_and_time_bounds():
    gt = GroundTruth((_static_person(),), 2.0)
    with pytest.raises(KeyError):
        gt.truth_at("nobody", 1.0)
    with pytest.raises(ValueError):
        gt.truth_at("p", -0.1)
    with pytest.raises(ValueError):
        gt.truth_at("p", 2.1)


def test_truth_bone_lengths_constant():
    p = PersonSpec("p", waypoints=np.array([[0.0, -1.0, 0.0], [6.0, 1.0, 1.0]]),
                   swing_amplitude=0.7, swing_hz=1.6, heading_deg=30.0)
    gt = GroundTruth((p,), 6.0)
    ref = gt.truth_at("p", 0.0)
    ref_lengths = [np.linalg.norm(ref.joints[a] - ref.joints[b]) for a, b in BONES]
    for t in np.linspace(0.0, 6.0, 40):
        s = gt.truth_at("p", float(t))
        for (a, b), L in zip(BONES, ref_lengths):
            assert abs(np.linalg.norm(s.joints[a] - s.joints[b]) - L) < 1e-9


def test_truth_continuous_in_time():
    p = PersonSpec("p", waypoints=np.array([[0.0, -1.0, 0.0], [2.0, 1.0, 0.0], [4.0, -1.0, 1.0]]),
                   swing_amplitude=0.5)
    gt = GroundTruth((p,), 4.0)
    # sample across the waypoint corner at t=2
    prev = gt.truth_at("p", 1.99)
    for t in np.arange(1.991, 2.01, 0.001):
        cur = gt.truth_at("p", float(t))
        assert np.max(np.abs(cur.joints - prev.joints)) < 0.01
        prev = cur


# --- look_at -------------------------------------------------------------------

def test_look_at_extrinsic_is_valid_rotation():
    m = look_at_extrinsic((4.0, 3.0, 1.5), (0.0, 0.0, 1.0))
    r = m[:3, :3]
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(r) == pytest.approx(1.0)
    # target projects onto the optical axis in front of the camera
    target_cam = r.T @ (np.array([0.0, 0.0, 1.0]) - m[:3, 3])
    assert target_cam[2] > 0
    assert abs(target_cam[0]) < 1e-12 and abs(target_cam[1]) < 1e-12


def test_look_at_rejects_degenerate_axis():
    with pytest.raises(ConfigError):
        look_at_extrinsic((0.0, 0.0, 5.0), (0.0, 0.0, 1.0))  # straight down, up parallel


# --- render_detection ----------------------------------------------------------

def test_render_zero_noise_lift_recovers_truth():
    spec = make_camera_spec(position=(4.0, 0.0, 1.6), target=(0.0, 0.0, 1.0))
    gt = GroundTruth((_static_person(swing_amplitude=0.3),), 4.0)
    rng = np.random.default_rng(1)
    for t in (0.0, 1.3, 2.6):
        skeletons, depth_maps = render_detection(gt, spec, t, rng)
        s3d = lift_skeleton(skeletons[0], depth_maps[0], spec.camera)
        truth = gt.truth_at("p", t)
        assert s3d.n_valid == JOINT_COUNT
        for j in range(JOINT_COUNT):
            assert np.max(np.abs(s3d.joints[j] - truth.joints[j])) < 1e-6


def test_render_dropout_probability_one_always_drops():
    spec = make_camera_spec(detection_dropout=1.0)
    gt = GroundTruth((_static_person(),), 1.0)
    rng = np.random.default_rng(2)
    for t in (0.0, 0.5):
        assert render_detection(gt, spec, t, rng) is None


def test_render_person_behind_camera_all_invalid():
    spec = make_camera_spec(position=(4.0, 0.0, 1.6), target=(8.0, 0.0, 1.0))  # looks away
    gt = GroundTruth((_static_person(),), 1.0)
    rng = np.random.default_rng(3)
    skeletons, _ = render_detection(gt, spec, 0.0, rng)
    assert skeletons[0].valid.sum() == 0


def test_render_pixel_noise_statistics():
    spec = make_camera_spec(pixel_sigma=2.5)
    gt = GroundTruth((_static_person(swing_amplitude=0.4),), 1000.0)
    rng = np.random.default_rng(4)
    deltas = []
    t = 0.0
    while len(deltas) < 2 * 10_000:  # >= 1e4 rendered joints, 2 coords each
        t += 0.1
        skeletons, _ = render_detection(gt, spec, t, rng)
        truth = gt.truth_at("p", t)
        for j in range(JOINT_COUNT):
            if not skeletons[0].valid[j]:
                continue
            p_cam = world_to_camera(truth.joints[j], spec.camera)
            px, _ = project(p_cam, spec.camera)
            deltas.append(skeletons[0].pixels[j, 0] - px.x)
            deltas.append(skeletons[0].pixels[j, 1] - px.y)
    std = float(np.std(deltas))
    assert abs(std - 2.5) / 2.5 < 0.05


# --- run_scenario ---------------------------------------------------------------

def test_one_camera_counts_and_spaces_frames():
    cfg = walking_scenario(duration=1.0, n_cameras=1, frame_rate=10.0)
    events, _ = run_scenario(cfg)
    assert len(events) == 10
    stamps = [e.detections.stamp for e in events]
    assert stamps == pytest.approx([k * 0.1 for k in range(10)])
    arrivals = [e.arrival for e in events]
    assert arrivals == stamps  # no jitter


def test_two_rates_interleave():
    cfg = walking_scenario(duration=1.0, n_cameras=2)
    cams = (
        CameraSpec(camera=cfg.cameras[0].camera, frame_rate=10.0),
        CameraSpec(camera=cfg.cameras[1].camera, frame_rate=7.0),
    )
    cfg = ScenarioConfig(seed=1, duration=1.0, persons=cfg.persons, cameras=cams)
    events, _ = run_scenario(cfg)
    assert len(events) == 17
    by_cam = {"c0": 0, "c1": 0}
    for e in events:
        by_cam[e.detections.camera_id] += 1
    assert by_cam == {"c0": 10, "c1": 7}
    assert all(events[i].arrival <= events[i + 1].arrival for i in range(len(events) - 1))


def test_same_seed_identical_streams():
    cfg = walking_scenario(duration=2.0, n_cameras=2, pixel_sigma=2.0,
                           depth_sigma=0.02, joint_dropout=0.2, detection_dropout=0.1,
                           latency_jitter=(0.0, 0.05))
    a, _ = run_scenario(cfg)
    b, _ = run_scenario(cfg)
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.arrival == eb.arrival
        assert ea.detections == eb.detections


def test_different_seed_differs():
    base = walking_scenario(duration=2.0, n_cameras=1, pixel_sigma=2.0)
    other = ScenarioConfig(seed=base.seed + 1, duration=base.duration,
                           persons=base.persons, cameras=base.cameras)
    a, _ = run_scenario(base)
    b, _ = run_scenario(other)
    assert any(ea.detections != eb.detections for ea, eb in zip(a, b))


def test_adding_camera_preserves_other_streams():
    one = walking_scenario(duration=1.5, n_cameras=1, pixel_sigma=2.0, joint_dropout=0.1)
    two = walking_scenario(duration=1.5, n_cameras=2, pixel_sigma=2.0, joint_dropout=0.1)
    a = run_scenario(one)[0]
    b = [e for e in run_scenario(two)[0] if e.detections.camera_id == "c0"]
    assert len(a) == len(b)
    for ea, eb in zip(a, b):
        assert ea.detections == eb.detections


def test_jitter_bounds_respected_and_fifo():
    cfg = walking_scenario(duration=2.0, n_cameras=2, latency_jitter=(0.0, 0.08))
    events, _ = run_scenario(cfg)
    per_cam_last = {}
    for e in events:
        lag = e.arrival - e.detections.stamp
        # FIFO push-back never exceeds the jitter bound: pushed frames inherit
        # the previous lag minus one frame interval.
        assert -1e-12 <= lag <= 0.08
        cid = e.detections.camera_id
        if cid in per_cam_last:
            assert e.detections.stamp >= per_cam_last[cid]
        per_cam_last[cid] = e.detections.stamp


def test_scenario_dict_validation():
    with pytest.raises(ConfigError):
        scenario_from_dict({"seed": 1, "duration": 0.0, "persons": [], "cameras": []})
    with pytest.raises(ConfigError):
        scenario_from_dict({"duration": 1.0, "persons": [], "cameras": []})
    with pytest.raises(ConfigError):
        CameraSpec(camera=make_camera_spec().camera, joint_dropout=1.5)
    with pytest.raises(ConfigError):
        PersonSpec("p", waypoints=np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 1.0]]))


def test_render_noisy_lift_within_noise_bound():
    # Lifted joints stay within a few sigma of the truth: pixel noise maps to
    # roughly (sigma_px / fx) * depth laterally, depth noise adds along the ray.
    spec = make_camera_spec(position=(4.0, 0.0, 1.6), target=(0.0, 0.0, 1.0),
                            pixel_sigma=2.0, depth_sigma=0.02)
    gt = GroundTruth((_static_person(swing_amplitude=0.3),), 4.0)
    rng = np.random.default_rng(6)
    errs = []
    for t in np.arange(0.0, 4.0, 0.1):
        skeletons, depth_maps = render_detection(gt, spec, float(t), rng)
        s3d = lift_skeleton(skeletons[0], depth_maps[0], spec.camera)
        truth = gt.truth_at("p", float(t))
        for j in range(JOINT_COUNT):
            if s3d.valid[j]:
                errs.append(np.linalg.norm(s3d.joints[j] - truth.joints[j]))
    errs = np.asarray(errs)
    assert errs.size > 400
    # lateral sigma ~ 2/525*4.3 m ~ 0.016, depth sigma 0.02: generous 6-sigma cap
    assert np.max(errs) < 0.2
    assert np.mean(errs) < 0.05
