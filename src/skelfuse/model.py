"""Domain types shared by all modules: skeleton topology, cameras, detections.

The human model has ``JOINT_COUNT`` = 15 joints. Index 14 is the chest (used
as the skeleton centroid by data association); indices 2..13 are the twelve
limb joints reported in evaluation tables, in right/left shoulder-elbow-wrist,
hip-knee-ankle order. Indices 0 and 1 are head and neck. The topology is a
module constant so an alternate joint set is a one-line change.

All 3D joints are in the shared world frame (meters): lifting registers each
skeleton through its camera's extrinsic before a ``Skeleton3D`` exists, so
camera-frame coordinates never leave ``geometry`` and ``lifting``.

All types here are immutable value objects; arrays are copied on construction
and must not be mutated afterwards. Timestamps are seconds as plain floats,
monotonic per camera; no cross-camera ordering is ever assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

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


def joint_name(joint_id: int) -> str:
    """Return the stable human-readable name of a joint index.

    Raises:
        IndexError: if ``joint_id`` is outside ``[0, JOINT_COUNT)``.
    """
    if not 0 <= joint_id < JOINT_COUNT:
        raise IndexError(f"joint id {joint_id} out of range [0, {JOINT_COUNT})")
    return JOINT_NAMES[joint_id]


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
    orthonormal with determinant +1 (tolerance 1e-9). ``camera_from_world``
    is its rigid inverse (world -> camera), computed once and read-only.
    """

    camera_id: str
    fx: float
    fy: float
    cx: float
    cy: float
    extrinsic: np.ndarray = field(default_factory=lambda: np.eye(4))
    camera_from_world: np.ndarray = field(init=False, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CameraModel):
            return NotImplemented
        return (
            self.camera_id == other.camera_id
            and (self.fx, self.fy, self.cx, self.cy) == (other.fx, other.fy, other.cx, other.cy)
            and np.array_equal(self.extrinsic, other.extrinsic)
        )

    def __post_init__(self):
        m = _as_matrix(self.extrinsic)
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy, *m.flat])):
            raise ConfigError(f"camera {self.camera_id!r}: intrinsics and extrinsic must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ConfigError(f"camera {self.camera_id!r}: focal lengths must be positive")
        r = m[:3, :3]
        if np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ConfigError(f"camera {self.camera_id!r}: extrinsic rotation is not a proper rotation")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-12:
            raise ConfigError(f"camera {self.camera_id!r}: extrinsic last row must be [0,0,0,1]")
        m.flags.writeable = False
        object.__setattr__(self, "extrinsic", m)
        inv = np.eye(4)
        inv[:3, :3] = r.T
        inv[:3, 3] = -r.T @ m[:3, 3]
        inv.flags.writeable = False
        object.__setattr__(self, "camera_from_world", inv)


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

    ``pixels`` is (15, 2), ``valid`` (15,) bool. Invalid entries carry zeroed
    coordinates.
    """

    pixels: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        c, v = _joint_arrays(2, self.pixels, self.valid)
        object.__setattr__(self, "pixels", c)
        object.__setattr__(self, "valid", v)

    @classmethod
    def empty(cls) -> "Skeleton2D":
        return cls(np.zeros((JOINT_COUNT, 2)), np.zeros(JOINT_COUNT, dtype=bool))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton2D):
            return NotImplemented
        return (
            np.array_equal(self.valid, other.valid)
            and np.array_equal(self.pixels, other.pixels)
        )


@dataclass(frozen=True, eq=False)
class Skeleton3D:
    """One person's 3D joints in the world frame (meters).

    ``joints`` is (15, 3), ``valid`` (15,) bool. Invalid entries carry zeroed
    coordinates.
    """

    joints: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        c, v = _joint_arrays(3, self.joints, self.valid)
        object.__setattr__(self, "joints", c)
        object.__setattr__(self, "valid", v)

    @classmethod
    def from_joints(cls, joints: dict[int, np.ndarray] | None) -> "Skeleton3D":
        """Build from a sparse {joint_id: xyz} mapping; absent joints are invalid."""
        c = np.zeros((JOINT_COUNT, 3))
        v = np.zeros(JOINT_COUNT, dtype=bool)
        for i, p in (joints or {}).items():
            c[i] = p
            v[i] = True
        return cls(c, v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton3D):
            return NotImplemented
        return (
            np.array_equal(self.valid, other.valid)
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
    def from_dict(cls, d: dict) -> "Skeleton3D":
        """Parse the joint record that stream and snapshot lines embed.

        Other keys (a snapshot's ``track_id``, ``cov_trace``) are ignored. A
        joint id that is not an int in ``[0, JOINT_COUNT)``, or that repeats,
        raises ConfigError.
        """
        c = np.zeros((JOINT_COUNT, 3))
        v = np.zeros(JOINT_COUNT, dtype=bool)
        seen = set()
        for entry in d["joints"]:
            i = entry["id"]
            if type(i) is not int or not 0 <= i < JOINT_COUNT or i in seen:
                raise ConfigError(
                    f"joint ids must be distinct ints in [0, {JOINT_COUNT}), got {i!r}"
                )
            seen.add(i)
            if entry.get("valid"):
                c[i] = (float(entry["x"]), float(entry["y"]), float(entry["z"]))
                v[i] = True
        return cls(c, v)


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """One camera's batch of world-frame skeletons at one capture timestamp."""

    camera_id: str
    stamp: Timestamp
    skeletons: tuple[Skeleton3D, ...]

    def __post_init__(self):
        sk = tuple(self.skeletons)
        if not 0.0 <= self.stamp < np.inf:
            raise ConfigError(f"timestamps must be finite and non-negative, got {self.stamp}")
        object.__setattr__(self, "skeletons", sk)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DetectionSet):
            return NotImplemented
        return (
            self.camera_id == other.camera_id
            and self.stamp == other.stamp
            and self.skeletons == other.skeletons
        )
