"""Domain types shared by all modules: skeleton topology, cameras, detections.

The human model has ``JOINT_COUNT`` = 15 joints. Index 14 is the chest (used
as the skeleton centroid by data association); indices 2..13 are the twelve
limb joints reported in evaluation tables, in right/left shoulder-elbow-wrist,
hip-knee-ankle order. Indices 0 and 1 are head and neck. The topology is a
module constant so an alternate joint set is a one-line change.

Skeletons are rows (``Skeleton3D``): a detection set and a snapshot each hold
one stack of them. The joint record that stream and snapshot lines embed,
``{"joints": [{"id", "x", "y", "z", "valid"}]}``, is written and parsed here.

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

# The Python types ``json.loads`` gives a JSON number, the commoner first; a
# bool is not one.
JSON_NUMBER = (float, int)


def as_number(value) -> float:
    """A JSON number as a float; a bool, a string or any other value raises TypeError."""
    if type(value) not in JSON_NUMBER:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def as_numbers(value) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array; any other leaf raises TypeError."""
    if isinstance(value, (list, tuple)):
        return np.array([as_numbers(v) for v in value], dtype=float)
    return np.array(as_number(value))


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


@dataclass(frozen=True, eq=False)
class Skeleton3D:
    """Skeletons in rows, world frame (meters): ``joints (..., 15, 3)``, ``valid (..., 15)``.

    A single skeleton is one row, ``joints (15, 3)``; a stack of P rows has
    ``joints (P, 15, 3)``, and indexing it (``stack[i]``, ``stack[rows]``)
    gives rows. Invalid entries carry zeroed coordinates.
    """

    joints: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        c = np.array(self.joints, dtype=float)
        v = np.array(self.valid, dtype=bool)
        if c.shape[-2:] != (JOINT_COUNT, 3) or v.shape != c.shape[:-1]:
            raise ConfigError(
                f"skeleton joints must be (..., {JOINT_COUNT}, 3) and valid their leading "
                f"shape, got {c.shape} and {v.shape}"
            )
        c[~v] = 0.0  # canonical: invalid joints carry zero coordinates
        if not np.all(np.isfinite(c[v])):
            raise ConfigError("valid joints must have finite coordinates")
        c.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "joints", c)
        object.__setattr__(self, "valid", v)

    @classmethod
    def stack(cls, rows: list[Skeleton3D]) -> Skeleton3D:
        """One stack of the single skeletons ``rows``, in order; no rows stack to length 0."""
        return cls(np.array([s.joints for s in rows]).reshape(-1, JOINT_COUNT, 3),
                   np.array([s.valid for s in rows], dtype=bool).reshape(-1, JOINT_COUNT))

    def __len__(self) -> int:
        """The number of rows; like a 0-d array, a single skeleton has no length (TypeError)."""
        return len(self.valid[..., 0])

    def __getitem__(self, rows) -> Skeleton3D:
        """The skeletons at ``rows``, an index into the leading shape."""
        return Skeleton3D(self.joints[rows], self.valid[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Skeleton3D):
            return NotImplemented
        return (
            np.array_equal(self.valid, other.valid)
            and np.array_equal(self.joints, other.joints)
        )

    def to_dicts(self) -> list[dict]:
        """The joint record of every row of a stack, as stream and snapshot lines embed it."""
        return [
            {"joints": [
                {"id": i, "x": x, "y": y, "z": z, "valid": True} if ok
                else {"id": i, "x": None, "y": None, "z": None, "valid": False}
                for i, ((x, y, z), ok) in enumerate(zip(joints, valid))
            ]}
            for joints, valid in zip(self.joints.tolist(), self.valid.tolist())
        ]

    @classmethod
    def from_dicts(cls, records: list[dict]) -> Skeleton3D:
        """Parse joint records, one per row, into one stack: the one parser.

        Other keys (a snapshot's ``track_id``, ``cov_trace``) are ignored. A
        joint id that is not an int in ``[0, JOINT_COUNT)``, or that repeats
        within a record, a ``valid`` that is not a bool, or a valid joint's
        coordinate that is not a JSON number (an int or float, never a bool
        or a string) raises ConfigError.
        """
        c = np.zeros((len(records), JOINT_COUNT, 3))
        v = np.zeros((len(records), JOINT_COUNT), dtype=bool)
        number = JSON_NUMBER
        for row, d in enumerate(records):
            seen = set()
            for entry in d["joints"]:
                i = entry["id"]
                if type(i) is not int or not 0 <= i < JOINT_COUNT or i in seen:
                    raise ConfigError(
                        f"joint ids must be distinct ints in [0, {JOINT_COUNT}), got {i!r}"
                    )
                seen.add(i)
                ok = entry["valid"]
                if ok is True:
                    x, y, z = entry["x"], entry["y"], entry["z"]
                    if not (type(x) in number and type(y) in number and type(z) in number):
                        raise ConfigError(f"joint coordinates must be numbers, got {[x, y, z]!r}")
                    c[row, i] = (x, y, z)
                    v[row, i] = True
                elif ok is not False:
                    raise ConfigError(f"joint 'valid' must be true or false, got {ok!r}")
        return cls(c, v)

    @classmethod
    def from_dict(cls, d: dict) -> Skeleton3D:
        """Parse one joint record into a single skeleton."""
        return cls.from_dicts([d])[0]


@dataclass(frozen=True)
class DetectionSet:
    """One camera's world-frame skeletons at one capture timestamp: a stack of P >= 0 rows."""

    camera_id: str
    stamp: Timestamp
    skeletons: Skeleton3D

    def __post_init__(self):
        if not 0.0 <= self.stamp < np.inf:
            raise ConfigError(f"timestamps must be finite and non-negative, got {self.stamp}")
        if not isinstance(self.skeletons, Skeleton3D) or self.skeletons.valid.ndim != 2:
            raise ConfigError("a detection set's skeletons must be one stack of rows")
