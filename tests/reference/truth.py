"""The simulator's truth model as of commit 8793574, one person at one time.

``_pose_at`` builds a person's 15 joints with per-limb Python ``swing``
vectors and ``math.sin``/``math.cos``. ``test_sim.py`` requires
``simulate.GroundTruth.poses``, which evaluates every person at every time
as array axes, to reproduce it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from skelfuse.model import (
    CHEST, HEAD, JOINT_COUNT, L_ANKLE, L_ELBOW, L_HIP, L_KNEE, L_SHOULDER, L_WRIST, NECK,
    R_ANKLE, R_ELBOW, R_HIP, R_KNEE, R_SHOULDER, R_WRIST, Skeleton3D,
)
from skelfuse.simulate import PersonSpec

_TORSO = {
    HEAD: (0.0, 0.0, 1.66),
    NECK: (0.0, 0.0, 1.50),
    CHEST: (0.0, 0.0, 1.32),
    R_SHOULDER: (-0.19, 0.0, 1.45),
    L_SHOULDER: (0.19, 0.0, 1.45),
    R_HIP: (-0.11, 0.0, 0.95),
    L_HIP: (0.11, 0.0, 0.95),
}
_UPPER_ARM = 0.28
_FOREARM = 0.26
_THIGH = 0.42
_SHIN = 0.43


def _pose_at(spec: PersonSpec, t: float) -> Skeleton3D:
    w = spec.waypoints
    anchor_x = float(np.interp(t, w[:, 0], w[:, 1]))
    anchor_y = float(np.interp(t, w[:, 0], w[:, 2]))

    theta = spec.swing_amplitude * math.sin(
        2.0 * math.pi * spec.swing_hz * t + spec.swing_phase
    )

    local = np.zeros((JOINT_COUNT, 3))
    for joint_id, offset in _TORSO.items():
        local[joint_id] = offset

    def swing(sign: float) -> np.ndarray:
        # Unit limb direction in the sagittal plane: straight down at 0 swing.
        a = sign * theta
        return np.array([0.0, math.sin(a), -math.cos(a)])

    local[R_ELBOW] = local[R_SHOULDER] + _UPPER_ARM * swing(+1)
    local[R_WRIST] = local[R_ELBOW] + _FOREARM * swing(+1)
    local[L_ELBOW] = local[L_SHOULDER] + _UPPER_ARM * swing(-1)
    local[L_WRIST] = local[L_ELBOW] + _FOREARM * swing(-1)
    # Each leg swings in antiphase with the same-side arm.
    local[R_KNEE] = local[R_HIP] + _THIGH * swing(-1)
    local[R_ANKLE] = local[R_KNEE] + _SHIN * swing(-1)
    local[L_KNEE] = local[L_HIP] + _THIGH * swing(+1)
    local[L_ANKLE] = local[L_KNEE] + _SHIN * swing(+1)

    psi = math.radians(spec.heading_deg)
    fwd = np.array([math.cos(psi), math.sin(psi), 0.0])
    left = np.array([-math.sin(psi), math.cos(psi), 0.0])
    up = np.array([0.0, 0.0, 1.0])
    world = (
        np.array([anchor_x, anchor_y, 0.0])
        + local[:, 0:1] * left
        + local[:, 1:2] * fwd
        + local[:, 2:3] * up
    )
    return Skeleton3D(world, np.ones(JOINT_COUNT, dtype=bool))
