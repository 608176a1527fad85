"""Tests for the shared domain types."""

import numpy as np
import pytest

from skelfuse import io
from skelfuse.errors import ConfigError
from skelfuse.model import (
    CHEST,
    JOINT_COUNT,
    LIMB_JOINTS,
    CameraModel,
    DetectionSet,
    Skeleton3D,
    joint_name,
)

from conftest import full_skeleton, make_camera


def test_topology_constants():
    assert JOINT_COUNT == 15
    assert CHEST == 14
    assert len(LIMB_JOINTS) == 12
    assert len(set(LIMB_JOINTS)) == 12


def test_joint_name_chest():
    assert joint_name(14) == "chest"


def test_joint_name_head():
    assert joint_name(0) == "head"


def test_joint_name_out_of_range():
    with pytest.raises(IndexError):
        joint_name(15)
    with pytest.raises(IndexError):
        joint_name(-1)


def test_limb_joint_names_match_report_labels():
    names = [joint_name(j) for j in LIMB_JOINTS]
    assert names == [
        "r-shoulder", "r-elbow", "r-wrist",
        "l-shoulder", "l-elbow", "l-wrist",
        "r-hip", "r-knee", "r-ankle",
        "l-hip", "l-knee", "l-ankle",
    ]


def test_camera_model_rejects_bad_focal():
    with pytest.raises(ConfigError):
        CameraModel("c", fx=0.0, fy=500.0, cx=320.0, cy=240.0)


def test_camera_model_rejects_non_rotation():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ConfigError):
        CameraModel("c", 500, 500, 320, 240, bad)


def test_camera_model_inverse_roundtrip():
    rng = np.random.default_rng(3)
    # random rotation via QR
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    m = np.eye(4)
    m[:3, :3] = q
    m[:3, 3] = rng.standard_normal(3)
    cam = make_camera(extrinsic=m)
    assert np.allclose(cam.camera_from_world @ cam.extrinsic, np.eye(4), atol=1e-12)
    assert not cam.camera_from_world.flags.writeable


def test_skeleton3d_zeroes_invalid_coords():
    joints = np.ones((JOINT_COUNT, 3))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    valid[0] = True
    s = Skeleton3D(joints, valid)
    assert np.all(s.joints[1:] == 0.0)
    assert np.all(s.joints[0] == 1.0)


def test_skeleton3d_rejects_nonfinite_valid_joint():
    joints = np.zeros((JOINT_COUNT, 3))
    joints[2, 0] = np.nan
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    valid[2] = True
    with pytest.raises(ConfigError):
        Skeleton3D(joints, valid)


def test_serialization_roundtrips(tmp_path):
    s3 = full_skeleton()
    assert Skeleton3D.from_dict(s3.to_dict()) == s3

    ds = DetectionSet("c0", 1.25, (s3, full_skeleton(base=(2, 0, 1))))
    io.write_detections(tmp_path / "stream.jsonl", [ds])
    assert io.read_detections(tmp_path / "stream.jsonl") == [ds]

    cam = make_camera("k2", fx=365.1, fy=366.2, cx=255.5, cy=211.5)
    io.write_calibration(tmp_path / "calibration.json", [cam])
    assert io.read_calibration(tmp_path / "calibration.json") == {"k2": cam}


def test_serialization_roundtrip_randomized():
    rng = np.random.default_rng(42)
    for _ in range(50):
        joints = rng.uniform(-5, 5, size=(JOINT_COUNT, 3))
        valid = rng.random(JOINT_COUNT) < 0.7
        s = Skeleton3D(joints, valid)
        assert Skeleton3D.from_dict(s.to_dict()) == s
