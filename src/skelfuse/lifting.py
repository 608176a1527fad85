"""Single-view detector tail: 2D skeletons + depth -> world-frame 3D detections.

A 2D skeleton is a plain (15, 2) pixel array with a (15,) validity mask,
and its depth image a ``geometry.DepthWindow``. Each valid in-image joint
gets a robust median depth sampled around its pixel; joints with missing depth (or invalid 2D input) become invalid 3D
joints. A partial skeleton never aborts the pipeline. The joints that found
a depth are back-projected together in one call, and the resulting (15, 3)
camera-frame array is registered into the world frame before the
``Skeleton3D`` is built.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .model import JOINT_COUNT, CameraModel, DetectionSet, Skeleton3D, Timestamp


def lift_skeleton(
    pixels: np.ndarray, valid: np.ndarray, window: geometry.DepthWindow, cam: CameraModel
) -> Skeleton3D:
    """Lift one (15, 2) pixel skeleton to world-frame 3D with ``cam``'s depth image.

    ``valid`` is the (15,) mask of detected joints and ``window`` the window
    of the depth image that holds its samples; pixels are in image
    coordinates, whatever the window's origin. A valid 2D joint whose pixel
    falls outside the image, or whose depth neighborhood holds no valid
    sample, yields an invalid 3D joint.
    """
    h, w = window.image_shape
    lifted = np.zeros(JOINT_COUNT, dtype=bool)
    depths = []
    for i, (ok, (x, y)) in enumerate(zip(valid.tolist(), pixels.tolist())):
        if ok and 0.0 <= x < w and 0.0 <= y < h:
            d = geometry.median_depth(window, (x, y))
            if d is not None:
                lifted[i] = True
                depths.append(d)
    joints = np.zeros((JOINT_COUNT, 3))
    if depths:
        joints[lifted] = geometry.back_project(pixels[lifted], depths, cam)
    return Skeleton3D(geometry.to_world(joints, lifted, cam), lifted)


def make_detection_set(
    pixels: np.ndarray,
    valid: np.ndarray,
    windows: list[geometry.DepthWindow],
    cam: CameraModel,
    stamp: Timestamp,
) -> DetectionSet:
    """Lift a camera frame's skeletons and stamp them as one stack.

    Skeleton i is ``pixels[i]`` (15, 2) with mask ``valid[i]``, lifted with
    the depth window ``windows[i]``; the three pair up one to one. Skeletons
    whose joints are ALL invalid after lifting are dropped: an empty skeleton
    is unassociable evidence and would only create ghost detections
    downstream. The result may legitimately hold zero skeletons.
    """
    lifted = [
        lift_skeleton(px, v, window, cam)
        for px, v, window in zip(pixels, valid, windows, strict=True)
    ]
    return DetectionSet(camera_id=cam.camera_id, stamp=stamp,
                        skeletons=Skeleton3D.stack([s for s in lifted if s.valid.any()]))
