"""Single-view detector tail: 2D skeletons + depth -> world-frame 3D detections.

Each valid 2D joint is lifted by sampling a robust median depth around its
pixel and back-projecting; joints with missing depth (or invalid 2D input)
become invalid 3D joints. A partial skeleton never aborts the pipeline. The
back-projected camera-frame joints stay a plain (15, 3) array that is
registered into the world frame before the ``Skeleton3D`` is built.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .model import JOINT_COUNT, CameraModel, DetectionSet, Skeleton2D, Skeleton3D, Timestamp


def lift_skeleton(s2d: Skeleton2D, depth: np.ndarray, cam: CameraModel) -> Skeleton3D:
    """Lift one 2D skeleton to world-frame 3D with ``cam``'s (height, width) depth image.

    A valid 2D joint whose pixel falls outside the image, or whose depth
    neighborhood holds no valid sample, yields an invalid 3D joint.
    """
    h, w = depth.shape
    joints = np.zeros((JOINT_COUNT, 3))
    valid = np.zeros(JOINT_COUNT, dtype=bool)
    for i in range(JOINT_COUNT):
        if not s2d.valid[i]:
            continue
        px = geometry.Pixel(s2d.pixels[i, 0], s2d.pixels[i, 1])
        if not (0.0 <= px.x < w and 0.0 <= px.y < h):
            continue
        d = geometry.median_depth(depth, px)
        if d is None:
            continue
        joints[i] = geometry.back_project(px, d, cam)
        valid[i] = True
    return Skeleton3D(geometry.to_world(joints, valid, cam), valid)


def make_detection_set(
    skeletons: list[Skeleton2D],
    depth_maps: list[np.ndarray],
    cam: CameraModel,
    stamp: Timestamp,
) -> DetectionSet:
    """Lift a camera frame's skeletons and stamp them.

    Skeleton i is lifted with ``depth_maps[i]`` (the two lists pair up one to
    one). Skeletons whose joints are ALL invalid after lifting are dropped: an
    empty skeleton is unassociable evidence and would only create ghost
    detections downstream. The result may legitimately hold zero skeletons.
    """
    lifted = [lift_skeleton(s2d, dm, cam) for s2d, dm in zip(skeletons, depth_maps, strict=True)]
    return DetectionSet(
        camera_id=cam.camera_id, stamp=stamp, skeletons=tuple(s for s in lifted if s.n_valid > 0)
    )
