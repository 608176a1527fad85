"""Shared synthetic-rig helpers for the test suite."""

from __future__ import annotations

import numpy as np

from skelfuse.geometry import DepthWindow
from skelfuse.model import JOINT_COUNT, CameraModel, Skeleton3D
from skelfuse.simulate import (
    CameraSpec, GroundTruth, PersonSpec, ScenarioConfig, look_at_extrinsic,
)


def make_camera(camera_id="cam", fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                extrinsic=None) -> CameraModel:
    return CameraModel(camera_id, fx, fy, cx, cy,
                       np.eye(4) if extrinsic is None else extrinsic)


def make_camera_spec(camera_id="cam", position=(4.0, 0.0, 1.6), target=(0.0, 0.0, 1.0),
                     **kwargs) -> CameraSpec:
    cam = make_camera(camera_id, extrinsic=look_at_extrinsic(position, target))
    return CameraSpec(camera=cam, **kwargs)


def full_window(depth) -> DepthWindow:
    """A whole (height, width) depth image as a window at the origin."""
    depth = np.asarray(depth, dtype=float)
    return DepthWindow(depth, 0, 0, depth.shape)


def paste_window(window: DepthWindow) -> np.ndarray:
    """The full depth image a window stands for: its pixels at its origin, NaN elsewhere."""
    frame = np.full(window.image_shape, np.nan)
    rows, cols = window.depth.shape
    frame[window.top:window.top + rows, window.left:window.left + cols] = window.depth
    return frame


def full_skeleton(base=(0.0, 0.0, 1.0)) -> Skeleton3D:
    """All 15 joints valid, spread deterministically around ``base``."""
    rng = np.random.default_rng(0)
    joints = np.asarray(base, dtype=float) + 0.2 * rng.standard_normal((JOINT_COUNT, 3))
    return Skeleton3D(joints, np.ones(JOINT_COUNT, dtype=bool))


def sparse_skeleton(points: dict[int, tuple]) -> Skeleton3D:
    """One skeleton with the joints ``points`` valid, ``{joint_id: xyz}``; the rest invalid."""
    joints = np.zeros((JOINT_COUNT, 3))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    for i, p in points.items():
        joints[i] = p
        valid[i] = True
    return Skeleton3D(joints, valid)


def walking_scenario(seed=11, duration=4.0, n_cameras=2, persons=None, **camera_kwargs
                     ) -> ScenarioConfig:
    """A compact scenario for unit tests: small room, inward-looking cameras."""
    if persons is None:
        persons = (PersonSpec(
            person_id="p0",
            waypoints=np.array([[0.0, -1.0, 0.0], [duration, 1.0, 0.0]]),
        ),)
    corners = [(3.5, 3.5), (-3.5, 3.5), (-3.5, -3.5), (3.5, -3.5)]
    cameras = tuple(
        make_camera_spec(f"c{i}", position=(x, y, 1.7), target=(0.0, 0.0, 1.0),
                         **camera_kwargs)
        for i, (x, y) in enumerate(corners[:n_cameras])
    )
    return ScenarioConfig(seed=seed, duration=duration, persons=tuple(persons), cameras=cameras)


def border_crossing():
    """A person walking in through the left image border, one far to the side, one behind.

    Returns the ground truth and the camera's position and target.
    """
    persons = (
        PersonSpec("crosser", waypoints=np.array([[0.0, 0.0, -2.3], [1.5, 0.0, -1.5]]),
                   heading_deg=90.0, swing_amplitude=0.4),
        PersonSpec("aside", waypoints=np.array([[0.0, -5.0, 30.0], [1.5, -4.5, 30.0]])),
        PersonSpec("behind", waypoints=np.array([[0.0, 10.0, 0.0]])),
    )
    return GroundTruth(persons, 1.5), (3.0, 0.0, 1.5), (0.0, 0.0, 1.0)


# Seven persons before one camera: five in view at once, two of them walking
# in through the left and right image borders and one so near the camera
# that the bottom border cuts their feet; one stands behind the camera and
# one far to the side, never in view. Their splats overlap in the image.
GROUP_SCENARIO = """\
seed: 23
duration: 1.0
persons:
  - id: left
    waypoints: [[0.0, 0.0, -2.4], [1.0, 0.0, -1.6]]
    heading_deg: 90.0
    swing_amplitude: 0.4
  - id: right
    waypoints: [[0.0, -0.3, 2.6], [1.0, -0.3, 1.9]]
    heading_deg: -90.0
    swing_amplitude: 0.4
  - id: near
    waypoints: [[0.0, 2.0, 0.4], [1.0, 1.9, 0.1]]
    heading_deg: 180.0
  - id: centre
    waypoints: [[0.0, -0.6, -0.3], [1.0, -0.4, 0.3]]
    heading_deg: 90.0
  - id: back
    waypoints: [[0.0, -1.5, 0.6]]
  - id: behind
    waypoints: [[0.0, 9.0, 0.0]]
  - id: aside
    waypoints: [[0.0, -5.0, 30.0]]
cameras:
  - id: cam0
    fx: 500.0
    fy: 500.0
    cx: 320.0
    cy: 240.0
    width: 640
    height: 480
    position: [3.0, 0.0, 1.5]
    look_at: [0.0, 0.0, 1.0]
    frame_rate: 20.0
    pixel_sigma: 1.0
    depth_sigma: 0.01
    joint_dropout: 0.1
    detection_dropout: 0.1
"""
