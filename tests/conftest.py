"""Shared synthetic-rig helpers for the test suite."""

from __future__ import annotations

import numpy as np

from skelfuse.model import JOINT_COUNT, CameraModel, Skeleton3D
from skelfuse.simulate import CameraSpec, PersonSpec, ScenarioConfig, look_at_extrinsic


def make_camera(camera_id="cam", fx=525.0, fy=525.0, cx=319.5, cy=239.5,
                extrinsic=None) -> CameraModel:
    return CameraModel(camera_id, fx, fy, cx, cy,
                       np.eye(4) if extrinsic is None else extrinsic)


def make_camera_spec(camera_id="cam", position=(4.0, 0.0, 1.6), target=(0.0, 0.0, 1.0),
                     **kwargs) -> CameraSpec:
    cam = make_camera(camera_id, extrinsic=look_at_extrinsic(position, target))
    return CameraSpec(camera=cam, **kwargs)


def full_skeleton(base=(0.0, 0.0, 1.0)) -> Skeleton3D:
    """All 15 joints valid, spread deterministically around ``base``."""
    rng = np.random.default_rng(0)
    joints = np.asarray(base, dtype=float) + 0.2 * rng.standard_normal((JOINT_COUNT, 3))
    return Skeleton3D(joints, np.ones(JOINT_COUNT, dtype=bool))


def sparse_skeleton(points: dict[int, tuple]) -> Skeleton3D:
    return Skeleton3D.from_joints({i: np.asarray(p, dtype=float) for i, p in points.items()})


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
