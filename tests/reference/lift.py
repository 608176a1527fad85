"""The single-view lifting path as of commit a3c2b2f, one joint at a time.

``lift_skeleton`` lifts one (15, 2) skeleton from its depth window: every
valid in-image joint gets its own ``median_depth`` call over the disk
window around its pixel, and the joints that found a depth are
back-projected and registered together. ``test_lifting.py`` lifts the same
frames with ``skelfuse.lifting.lift_skeleton``, a whole frame at a time, and
requires every row to equal this function's skeleton bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from skelfuse import geometry
from skelfuse.model import JOINT_COUNT, Skeleton3D


def _disk_window(bounds, x, y, radius):
    top, left, h, w = bounds
    x0 = max(left, math.ceil(x - radius))
    x1 = min(left + w - 1, math.floor(x + radius))
    y0 = max(top, math.ceil(y - radius))
    y1 = min(top + h - 1, math.floor(y + radius))
    if x0 > x1 or y0 > y1:
        return None
    d2 = (np.arange(x0, x1 + 1)[None, :] - x) ** 2 + (np.arange(y0, y1 + 1)[:, None] - y) ** 2
    return slice(y0 - top, y1 + 1 - top), slice(x0 - left, x1 + 1 - left), d2


def median_depth(window, p, radius_px=geometry.DEFAULT_NEIGHBORHOOD_PX):
    """Lower median of the valid samples within ``radius_px`` of ``p``, None if none."""
    found = _disk_window((window.top, window.left, *window.depth.shape), p[0], p[1], radius_px)
    if found is None:
        return None
    rows, cols, d2 = found
    patch = window.depth[rows, cols]
    samples = patch[(d2 < radius_px**2) & np.isfinite(patch) & (patch > 0)]
    if samples.size == 0:
        return None
    samples = np.sort(samples)
    return float(samples[(samples.size - 1) // 2])


def lift_skeleton(pixels, valid, window, cam):
    """One (15, 2) skeleton lifted with its depth window, as one world-frame row."""
    h, w = window.image_shape
    lifted = np.zeros(JOINT_COUNT, dtype=bool)
    depths = []
    for i, (ok, (x, y)) in enumerate(zip(valid.tolist(), pixels.tolist())):
        if ok and 0.0 <= x < w and 0.0 <= y < h:
            d = median_depth(window, (x, y))
            if d is not None:
                lifted[i] = True
                depths.append(d)
    joints = np.zeros((JOINT_COUNT, 3))
    if depths:
        joints[lifted] = geometry.back_project(pixels[lifted], depths, cam)
    return Skeleton3D(geometry.to_world(joints, lifted, cam), lifted)
