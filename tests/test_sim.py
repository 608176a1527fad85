"""Tests for the deterministic camera-network simulator."""

import math

import numpy as np
import pytest
import yaml

from skelfuse.errors import ConfigError
from skelfuse.geometry import project, world_to_camera
from skelfuse.lifting import lift_skeleton
from skelfuse.model import CHEST, JOINT_COUNT
from skelfuse import simulate
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

from conftest import (
    GROUP_SCENARIO, border_crossing, make_camera_spec, paste_window, walking_scenario,
)
from reference import render as ref_render
from reference import truth as ref_truth


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
    for times in ([-0.1], [0.0, 2.1], [1.0, float("nan")]):
        with pytest.raises(ValueError):
            gt.poses(times)
    assert gt.poses([0.0, 2.0]).shape == (2, 1, JOINT_COUNT, 3)


def _assert_poses_equal_the_reference(persons, times):
    gt = GroundTruth(tuple(persons), max(times, default=0.0))
    got = gt.poses(times)
    assert got.shape == (len(times), len(persons), JOINT_COUNT, 3)
    want = np.array([[ref_truth._pose_at(p, t).joints for p in persons] for t in times])
    assert np.array_equal(got, want.reshape(got.shape))
    for p in persons:  # the platform's libm: np.sin/np.cos round as math.sin/math.cos
        args = np.array([2.0 * math.pi * p.swing_hz * t + p.swing_phase for t in times])
        theta = p.swing_amplitude * np.sin(args)
        assert np.sin(args).tolist() == [math.sin(a) for a in args.tolist()]
        for a in (theta, -theta):
            assert np.sin(a).tolist() == [math.sin(x) for x in a.tolist()]
            assert np.cos(a).tolist() == [math.cos(x) for x in a.tolist()]


@pytest.mark.parametrize("name", ["three_person", "three_person_jitter", "four_kinect_walk"])
def test_poses_equal_the_reference_on_bundled_scenarios(name):
    cfg = simulate.load_scenario(simulate.bundled_scenario_path(name))
    _assert_poses_equal_the_reference(cfg.persons, np.linspace(0.0, cfg.duration, 2001).tolist())


def test_poses_equal_the_reference_on_random_persons():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n_way = int(rng.integers(1, 6))
        persons = [
            PersonSpec(
                f"p{i}",
                waypoints=np.column_stack((np.sort(rng.uniform(0.0, 1000.0, n_way)),
                                           rng.normal(size=(n_way, 2)) * 5.0)),
                heading_deg=float(rng.uniform(-720.0, 720.0)),
                swing_amplitude=float(rng.uniform(0.0, 1.5)),
                swing_hz=float(rng.uniform(0.0, 3.0)),
                swing_phase=float(rng.uniform(-10.0, 10.0)),
            )
            for i in range(int(rng.integers(1, 5)))
        ]
        times = rng.uniform(0.0, 1000.0, int(rng.integers(1, 60))).tolist()
        _assert_poses_equal_the_reference(persons, times)


def test_poses_of_no_person():
    assert GroundTruth((), 2.0).poses([0.0, 1.5]).shape == (2, 0, JOINT_COUNT, 3)
    _assert_poses_equal_the_reference([], [0.0, 1.0])


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
        s3d = lift_skeleton(*render_detection(gt, spec, t, rng), spec.camera)[0]
        truth = gt.truth_at("p", t)
        assert s3d.valid.all()
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
    _, valid, _ = render_detection(gt, spec, 0.0, rng)
    assert valid[0].sum() == 0


def test_render_pixel_noise_statistics():
    spec = make_camera_spec(pixel_sigma=2.5)
    gt = GroundTruth((_static_person(swing_amplitude=0.4),), 1000.0)
    rng = np.random.default_rng(4)
    deltas = []
    t = 0.0
    while len(deltas) < 2 * 10_000:  # >= 1e4 rendered joints, 2 coords each
        t += 0.1
        pixels, valid, _ = render_detection(gt, spec, t, rng)
        truth = gt.truth_at("p", t)
        for j in range(JOINT_COUNT):
            if not valid[0, j]:
                continue
            p_cam = world_to_camera(truth.joints[j], spec.camera)
            px, _ = project(p_cam, spec.camera)
            deltas.append(pixels[0, j, 0] - px[0])
            deltas.append(pixels[0, j, 1] - px[1])
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
        s3d = lift_skeleton(*render_detection(gt, spec, float(t), rng), spec.camera)[0]
        truth = gt.truth_at("p", float(t))
        for j in range(JOINT_COUNT):
            if s3d.valid[j]:
                errs.append(np.linalg.norm(s3d.joints[j] - truth.joints[j]))
    errs = np.asarray(errs)
    assert errs.size > 400
    # lateral sigma ~ 2/525*4.3 m ~ 0.016, depth sigma 0.02: generous 6-sigma cap
    assert np.max(errs) < 0.2
    assert np.mean(errs) < 0.05


# --- depth windows against the full-frame reference renderer --------------------

@pytest.mark.parametrize("splat_radius", [0.0, 0.5, 6.0, 11.5])
def test_render_windows_match_full_frame_reference(splat_radius):
    gt, position, target = border_crossing()
    spec = make_camera_spec(position=position, target=target, pixel_sigma=1.0,
                            depth_sigma=0.01, joint_dropout=0.1, detection_dropout=0.1,
                            splat_radius=splat_radius)
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    clipped = 0
    for t in np.arange(0.0, 1.5, 0.05):
        got = render_detection(gt, spec, float(t), rng)
        want = ref_render.render_detection(gt, spec, float(t), ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if want is None:
            assert got is None
            continue
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert len(got[2]) == len(gt.person_ids)
        for window, frame in zip(got[2], want[2], strict=True):
            assert window.image_shape == (spec.height, spec.width)
            assert np.array_equal(paste_window(window), frame, equal_nan=True)
        crosser, aside, behind = got[2]
        assert aside.depth.shape == behind.depth.shape == (0, 0)
        clipped += crosser.left == 0 and np.isfinite(crosser.depth[:, :1]).any()
    if splat_radius >= 6.0:
        assert clipped >= 5  # splats cut by the left border


def test_render_group_frames_match_full_frame_reference():
    # Five persons in view at once, three of them cut by an image border, and
    # two never in view: one broadcast renders them all as the reference does.
    cfg = scenario_from_dict(yaml.safe_load(GROUP_SCENARIO))
    gt, spec = GroundTruth(cfg.persons, cfg.duration), cfg.cameras[0]
    h, w = spec.height, spec.width
    rng, ref_rng = np.random.default_rng(43), np.random.default_rng(43)
    crowded = clipped = 0
    for t in np.arange(0.0, 1.0, 0.05):
        got = render_detection(gt, spec, float(t), rng)
        want = ref_render.render_detection(gt, spec, float(t), ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if want is None:
            assert got is None
            continue
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for window, frame in zip(got[2], want[2], strict=True):
            assert window.image_shape == (h, w)
            assert np.array_equal(paste_window(window), frame, equal_nan=True)
        in_view = [win for win in got[2] if np.isfinite(win.depth).any()]
        crowded += len(in_view) >= 4
        clipped += sum(win.left == 0 or win.left + win.depth.shape[1] == w
                       or win.top + win.depth.shape[0] == h for win in in_view)
        behind, aside = got[2][-2:]
        assert behind.depth.shape == aside.depth.shape == (0, 0)
    assert crowded >= 10
    assert clipped >= 15


def _tied_centres(rng, n, width, height):
    """``n`` in-image centres, a third of them paired with a centre exactly 2 px away or on it."""
    x = rng.uniform(0.0, width, size=n)
    y = rng.uniform(0.0, height, size=n)
    edge = rng.random(n) < 0.3  # hard against a border
    x[edge] = rng.choice([0.0, 0.4, width - 1.0, width - 0.3], size=edge.sum())
    for i in range(1, n, 3):
        x[i - 1], y[i - 1] = rng.integers(0, width - 2), rng.integers(0, height - 2)
        step = rng.choice([(2, 0), (0, 2), (0, 0)])  # a tie between, or on the centre
        x[i], y[i] = x[i - 1] + step[0], y[i - 1] + step[1]
    return x, y


@pytest.mark.parametrize("splat_radius", [0.0, 0.5, 6.0, 11.5])
def test_splat_matches_sequential_reference_with_ties(splat_radius):
    # Integer centres two pixels apart leave the pixel between them
    # equidistant from both; that pixel, like any tie, is the earlier joint's,
    # as the reference's one-disk-at-a-time strict "<" rule gives it.
    rng = np.random.default_rng(59)
    spec = make_camera_spec(width=40, height=30, splat_radius=splat_radius)
    ys, xs = np.mgrid[0:spec.height, 0:spec.width]
    n_persons, ties = 3, 0
    for _ in range(20):
        x, y = _tied_centres(rng, n_persons * JOINT_COUNT, spec.width, spec.height)
        z = rng.uniform(1.0, 5.0, size=x.size)
        person = np.repeat(np.arange(n_persons), JOINT_COUNT)
        depth, owned, filled, windows = simulate._splat(x, y, z, person, n_persons, spec)
        assert np.array_equal(owned, np.flatnonzero(np.isfinite(depth)))
        for k in range(n_persons):
            want = np.full((spec.height, spec.width), np.nan)
            best_d2 = np.full(want.shape, np.inf)
            joints = np.flatnonzero(person == k)
            for j in joints:
                ref_render._splat_disk(want, best_d2, x[j], y[j], z[j], splat_radius)
            assert np.array_equal(paste_window(windows[k]), want, equal_nan=True)
            assert filled[k] == np.count_nonzero(np.isfinite(want))
            d2 = (xs - x[joints, None, None]) ** 2 + (ys - y[joints, None, None]) ** 2
            d2 = np.where(d2 < splat_radius**2, d2, np.inf)
            ties += np.count_nonzero(((d2 == d2.min(axis=0)) & np.isfinite(d2)).sum(axis=0) > 1)
    if splat_radius > 0.0:
        assert ties > 50
