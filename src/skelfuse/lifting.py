"""Single-view detector tail: 2D skeletons + depth -> world-frame 3D detections.

A camera frame's 2D skeletons are a plain (P, 15, 2) pixel array with a
(P, 15) validity mask, and each skeleton's depth image a
``geometry.DepthWindow``. Each valid in-image joint gets a robust median
depth sampled around its pixel; joints with missing depth (or invalid 2D
input) become invalid 3D joints. A partial skeleton never aborts the
pipeline. The whole frame is lifted at once: one ``geometry.median_depth``
call samples every candidate joint of every skeleton, the joints that found
a depth are back-projected together in one call, and the resulting
(P, 15, 3) camera-frame array is registered into the world frame before the
``Skeleton3D`` stack is built.
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .model import JOINT_COUNT, CameraModel, DetectionSet, Skeleton3D, Timestamp


def lift_skeleton(
    pixels: np.ndarray, valid: np.ndarray, windows: list[geometry.DepthWindow], cam: CameraModel
) -> Skeleton3D:
    """Lift a camera frame's (P, 15, 2) pixel skeletons to a world-frame stack of P rows.

    ``valid`` is the (P, 15) mask of detected joints and ``windows[i]`` the
    window of the depth image that holds skeleton i's samples; pixels are in
    image coordinates, whatever a window's origin. A valid 2D joint whose
    pixel falls outside the image, or whose depth neighborhood holds no
    valid sample, yields an invalid 3D joint.

    Raises:
        ValueError: if there is not exactly one window per skeleton.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, JOINT_COUNT, 2)
    valid = np.asarray(valid, dtype=bool).reshape(-1, JOINT_COUNT)
    if len(windows) != len(pixels):
        raise ValueError(f"{len(pixels)} skeletons need as many depth windows, got {len(windows)}")
    # Each skeleton's image (width, height), to compare with its (x, y) pixels.
    size = np.array([win.image_shape[::-1] for win in windows], dtype=float).reshape(-1, 1, 2)
    candidate = valid & ((0.0 <= pixels) & (pixels < size)).all(axis=-1)
    which, _ = np.nonzero(candidate)
    depth = geometry.median_depth(windows, which, pixels[candidate])
    found = ~np.isnan(depth)
    lifted = np.zeros_like(candidate)
    lifted[candidate] = found
    joints = np.zeros((len(pixels), JOINT_COUNT, 3))
    joints[lifted] = geometry.back_project(pixels[lifted], depth[found], cam)
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
    lifted = lift_skeleton(pixels, valid, windows, cam)
    return DetectionSet(camera_id=cam.camera_id, stamp=stamp,
                        skeletons=lifted[lifted.valid.any(axis=1)])
