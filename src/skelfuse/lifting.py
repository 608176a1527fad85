"""Single-view detector tail: 2D skeletons + depth -> world-frame 3D detections.

Each valid 2D joint is lifted by sampling a robust median depth around its
pixel and back-projecting; joints with missing depth (or invalid 2D input)
become invalid 3D joints. A partial skeleton never aborts the pipeline.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .model import (
    JOINT_COUNT,
    CameraModel,
    DepthMap,
    DetectionSet,
    Skeleton2D,
    Skeleton3D,
    Timestamp,
)


def lift_skeleton(
    s2d: Skeleton2D,
    dm: DepthMap,
    cam: CameraModel,
    radius_px: float = geometry.DEFAULT_NEIGHBORHOOD_PX,
) -> Skeleton3D:
    """Lift one 2D skeleton into ``cam``'s 3D frame using the depth image.

    A valid 2D joint whose pixel falls outside the image, or whose depth
    neighborhood holds no valid sample, yields an invalid 3D joint.
    """
    joints = np.zeros((JOINT_COUNT, 3))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    for i in range(JOINT_COUNT):
        if not s2d.valid[i]:
            continue
        px = geometry.Pixel(s2d.pixels[i, 0], s2d.pixels[i, 1])
        if not (0.0 <= px.x < dm.width and 0.0 <= px.y < dm.height):
            continue
        depth = geometry.median_depth(dm, px, radius_px)
        if depth is None:
            continue
        joints[i] = geometry.back_project(px, depth, cam)
        valid[i] = True
    return Skeleton3D(joints, valid, cam.frame)


def make_detection_set(
    skeletons: list[Skeleton2D],
    depth_maps: list[DepthMap],
    cam: CameraModel,
    stamp: Timestamp,
    radius_px: float = geometry.DEFAULT_NEIGHBORHOOD_PX,
) -> DetectionSet:
    """Lift a camera frame's skeletons, register them to the world, stamp them.

    Skeleton i is lifted with ``depth_maps[i]`` (the two lists pair up one to
    one). Skeletons whose joints are ALL invalid after lifting are dropped: an
    empty skeleton is unassociable evidence and would only create ghost
    detections downstream. The result may legitimately hold zero skeletons.
    """
    lifted = []
    for s2d, dm in zip(skeletons, depth_maps, strict=True):
        s3d = lift_skeleton(s2d, dm, cam, radius_px)
        if s3d.n_valid > 0:
            lifted.append(geometry.transform_skeleton(s3d, cam))
    return DetectionSet(camera_id=cam.camera_id, stamp=stamp, skeletons=tuple(lifted))
