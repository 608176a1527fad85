"""Domain types shared by all modules: skeleton topology, cameras, detections.

The human model has ``JOINT_COUNT`` = 15 joints. Index 14 is the chest (used
as the skeleton centroid by data association); indices 2..13 are the twelve
limb joints reported in evaluation tables, in right/left shoulder-elbow-wrist,
hip-knee-ankle order. Indices 0 and 1 are head and neck. The topology is a
module constant so an alternate joint set is a one-line change.

All types here are immutable value objects; arrays are copied on construction
and must not be mutated afterwards. Timestamps are seconds as plain floats,
monotonic per camera; no cross-camera ordering is ever assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FrameMismatchError

Timestamp = float

JOINT_COUNT = 15

JOINT_NAMES = (
    "head",
    "neck",
    "r-shoulder",
    "r-elbow",
    "r-wrist",
    "l-shoulder",
    "l-elbow",
    "l-wrist",
    "r-hip",
    "r-knee",
    "r-ankle",
    "l-hip",
    "l-knee",
    "l-ankle",
    "chest",
)

HEAD, NECK = 0, 1
R_SHOULDER, R_ELBOW, R_WRIST = 2, 3, 4
L_SHOULDER, L_ELBOW, L_WRIST = 5, 6, 7
R_HIP, R_KNEE, R_ANKLE = 8, 9, 10
L_HIP, L_KNEE, L_ANKLE = 11, 12, 13
CHEST = 14

# The twelve joints reported per column in the evaluation table.
LIMB_JOINTS = (
    R_SHOULDER, R_ELBOW, R_WRIST,
    L_SHOULDER, L_ELBOW, L_WRIST,
    R_HIP, R_KNEE, R_ANKLE,
    L_HIP, L_KNEE, L_ANKLE,
)

WORLD_FRAME = "world"


def joint_name(joint_id: int) -> str:
    """Return the stable human-readable name of a joint index.

    Raises:
        IndexError: if ``joint_id`` is outside ``[0, JOINT_COUNT)``.
    """
    if not 0 <= joint_id < JOINT_COUNT:
        raise IndexError(f"joint id {joint_id} out of range [0, {JOINT_COUNT})")
    return JOINT_NAMES[joint_id]


def camera_frame(camera_id: str) -> str:
    """Frame tag for a camera's local coordinate system."""
    return f"camera:{camera_id}"


def _as_matrix(extrinsic) -> np.ndarray:
    m = np.array(extrinsic, dtype=float)  # always a fresh copy; frozen later
    if m.shape == (16,):
        m = m.reshape(4, 4)
    if m.shape != (4, 4):
        raise ConfigError(f"extrinsic must be 4x4 (or 16 row-major values), got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole intrinsics plus the rigid camera->world extrinsic transform.

    ``extrinsic`` maps homogeneous points in the camera frame to the world
    frame (rotation + translation, meters). The rotation block must be
    orthonormal with determinant +1 (tolerance 1e-9).
    """

    camera_id: str
    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CameraModel):
            return NotImplemented
        return (
            self.camera_id == other.camera_id
            and (self.fx, self.fy, self.cx, self.cy) == (other.fx, other.fy, other.cx, other.cy)
            and np.array_equal(self.extrinsic, other.extrinsic)
        )

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ConfigError(f"camera {self.camera_id!r}: focal lengths must be positive")
        m = _as_matrix(self.extrinsic)
        r = m[:3, :3]
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ConfigError(f"camera {self.camera_id!r}: extrinsic rotation is not a proper rotation")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-12:
            raise ConfigError(f"camera {self.camera_id!r}: extrinsic last row must be [0,0,0,1]")
        m.flags.writeable = False
        object.__setattr__(self, "extrinsic", m)

    @property
    def frame(self) -> str:
        return camera_frame(self.camera_id)

    def camera_from_world(self) -> np.ndarray:
        """Rigid inverse of the extrinsic (world -> camera)."""
        r = self.extrinsic[:3, :3]
        t = self.extrinsic[:3, 3]
        inv = np.eye(4)
        inv[:3, :3] = r.T
        inv[:3, 3] = -r.T @ t
        return inv

    def to_dict(self) -> dict:
        return {
            "id": self.camera_id,
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "extrinsic": [float(v) for v in self.extrinsic.reshape(-1)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CameraModel":
        try:
            return cls(
                camera_id=str(d["id"]),
                fx=float(d["fx"]),
                fy=float(d["fy"]),
                cx=float(d["cx"]),
                cy=float(d["cy"]),
                extrinsic=_as_matrix(d.get("extrinsic", np.eye(4))),
            )
        except KeyError as exc:
            raise ConfigError(f"camera record missing key {exc}") from exc


def _joint_arrays(n_cols: int, coords, valid) -> tuple[np.ndarray, np.ndarray]:
    c = np.array(coords, dtype=float).reshape(JOINT_COUNT, n_cols)
    v = np.array(valid, dtype=bool).reshape(JOINT_COUNT)
    c[~v] = 0.0  # canonical: invalid joints carry zero coordinates
    if not np.all(np.isfinite(c[v])):
        raise ConfigError("valid joints must have finite coordinates")
    c.flags.writeable = False
    v.flags.writeable = False
    return c, v


@dataclass(frozen=True, eq=False)
class Skeleton2D:
    """One person's raw 2D joint detections in pixel coordinates.

    ``pixels`` is (15, 2), ``confidence`` (15,) in [0, 1], ``valid`` (15,)
    bool. Invalid entries carry zeroed coordinates.
    """

    pixels: np.ndarray
    confidence: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        c, v = _joint_arrays(2, self.pixels, self.valid)
        conf = np.array(self.confidence, dtype=float).reshape(JOINT_COUNT)
        conf[~v] = 0.0
        if np.any((conf < 0) | (conf > 1)):
            raise ConfigError("confidence values must lie in [0, 1]")
        conf.flags.writeable = False
        object.__setattr__(self, "pixels", c)
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "valid", v)

    @classmethod
    def empty(cls) -> "Skeleton2D":
        z = np.zeros((JOINT_COUNT, 2))
        return cls(z, np.zeros(JOINT_COUNT), np.zeros(JOINT_COUNT, dtype=bool))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton2D):
            return NotImplemented
        return (
            np.array_equal(self.valid, other.valid)
            and np.array_equal(self.pixels, other.pixels)
            and np.array_equal(self.confidence, other.confidence)
        )


@dataclass(frozen=True, eq=False)
class Skeleton3D:
    """One person's 3D joints (meters) tagged with a coordinate frame.

    ``frame`` is either ``"world"`` or ``"camera:<id>"``. Invalid entries
    carry zeroed coordinates.
    """

    joints: np.ndarray
    valid: np.ndarray
    frame: str

    def __post_init__(self):
        c, v = _joint_arrays(3, self.joints, self.valid)
        if not self.frame:
            raise ConfigError("skeleton frame tag must be set")
        object.__setattr__(self, "joints", c)
        object.__setattr__(self, "valid", v)

    @classmethod
    def from_joints(cls, joints: dict[int, np.ndarray] | None, frame: str) -> "Skeleton3D":
        """Build from a sparse {joint_id: xyz} mapping; absent joints are invalid."""
        c = np.zeros((JOINT_COUNT, 3))
        v = np.zeros(JOINT_COUNT, dtype=bool)
        for i, p in (joints or {}).items():
            c[i] = p
            v[i] = True
        return cls(c, v, frame)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton3D):
            return NotImplemented
        return (
            self.frame == other.frame
            and np.array_equal(self.valid, other.valid)
            and np.array_equal(self.joints, other.joints)
        )

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    def to_dict(self) -> dict:
        joints = []
        for i in range(JOINT_COUNT):
            if self.valid[i]:
                joints.append({
                    "id": i,
                    "x": float(self.joints[i, 0]),
                    "y": float(self.joints[i, 1]),
                    "z": float(self.joints[i, 2]),
                    "valid": True,
                })
            else:
                joints.append({"id": i, "x": None, "y": None, "z": None, "valid": False})
        return {"joints": joints}

    @classmethod
    def from_dict(cls, d: dict, frame: str = WORLD_FRAME) -> "Skeleton3D":
        c = np.zeros((JOINT_COUNT, 3))
        v = np.zeros(JOINT_COUNT, dtype=bool)
        for entry in d["joints"]:
            i = int(entry["id"])
            if entry.get("valid"):
                c[i] = (float(entry["x"]), float(entry["y"]), float(entry["z"]))
                v[i] = True
        return cls(c, v, frame)


@dataclass(frozen=True, eq=False)
class DepthMap:
    """Dense depth samples in meters; 0 or NaN mean missing (Kinect convention)."""

    width: int
    height: int
    values: np.ndarray  # shape (height, width), row-major

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.size != self.width * self.height:
            raise ConfigError(
                f"depth map has {v.size} values, expected {self.width}x{self.height}"
            )
        v = v.reshape(self.height, self.width)
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DepthMap):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """One camera's batch of world-frame skeletons at one capture timestamp."""

    camera_id: str
    stamp: Timestamp
    skeletons: tuple[Skeleton3D, ...]

    def __post_init__(self):
        sk = tuple(self.skeletons)
        for s in sk:
            if s.frame != WORLD_FRAME:
                raise FrameMismatchError(
                    f"detection sets must hold world-frame skeletons, got {s.frame!r}"
                )
        if self.stamp < 0:
            raise ConfigError("timestamps must be non-negative")
        object.__setattr__(self, "skeletons", sk)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionSet):
            return NotImplemented
        return (
            self.camera_id == other.camera_id
            and self.stamp == other.stamp
            and self.skeletons == other.skeletons
        )

    def to_dict(self) -> dict:
        return {
            "camera_id": self.camera_id,
            "stamp": self.stamp,
            "skeletons": [s.to_dict() for s in self.skeletons],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionSet":
        return cls(
            camera_id=str(d["camera_id"]),
            stamp=float(d["stamp"]),
            skeletons=tuple(Skeleton3D.from_dict(s) for s in d["skeletons"]),
        )
