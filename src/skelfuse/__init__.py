"""Marker-less multi-view 3D human pose fusion and tracking.

Lifts per-camera 2D skeleton detections into 3D with depth, registers them
into a shared world frame, and fuses the asynchronous streams into per-person
pose tracks using per-joint constant-velocity linear Kalman filters (module
``ukf``) with Mahalanobis-gated Munkres data association.
"""

from .model import (
    CHEST,
    JOINT_COUNT,
    JOINT_NAMES,
    LIMB_JOINTS,
    CameraModel,
    DetectionSet,
    Skeleton2D,
    Skeleton3D,
    joint_name,
)
from .tracker import FusedSnapshot, PoseTracker, Track, TrackerConfig, TrackEvent
from .ukf import FilterState, NoiseConfig

__version__ = "0.1.0"

__all__ = [
    "CHEST",
    "JOINT_COUNT",
    "JOINT_NAMES",
    "LIMB_JOINTS",
    "CameraModel",
    "DetectionSet",
    "FilterState",
    "FusedSnapshot",
    "NoiseConfig",
    "PoseTracker",
    "Skeleton2D",
    "Skeleton3D",
    "Track",
    "TrackEvent",
    "TrackerConfig",
    "joint_name",
]
