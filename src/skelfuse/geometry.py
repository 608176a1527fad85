"""Pinhole projection, back-projection, robust depth sampling, registration.

The pinhole model maps a camera-frame point P = (X, Y, Z) to the pixel
p = (fx*X/Z + cx, fy*Y/Z + cy) with depth Z; back-projection is its exact
algebraic inverse. Depth for a 2D joint is recovered robustly as the median
over a small pixel disk of the depth image (:func:`disk_window`), which
rejects single outliers and tolerates missing samples.

A depth image is held as a :class:`DepthWindow`: a rectangle of the image
that holds every sample, with its top-left origin in the image and the
image's size; every pixel outside the rectangle is missing. A pixel's
squared distance to a disk centre is always computed from absolute image
coordinates, never from coordinates shifted by the window's origin, so the
same pixel gets the same bits from a window as from its full image.

Camera-frame coordinates live only in these functions' plain arrays:
:func:`to_world` registers a lifted (15, 3) joint array into the world frame,
and :func:`world_to_camera` takes a world point back into a camera's frame
for projection. Every ``Skeleton3D`` is world-frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BehindCameraError, InvalidDepthError
from .model import CameraModel

# Radius (pixels) of the disk used to collect depth samples around a joint.
DEFAULT_NEIGHBORHOOD_PX = 3.0


class Pixel(NamedTuple):
    x: float
    y: float


def project(point_cam: np.ndarray, cam: CameraModel) -> tuple[Pixel, float]:
    """Project a camera-frame 3D point to a pixel and its depth.

    Raises:
        BehindCameraError: if the point has Z <= 0.
    """
    x, y, z = float(point_cam[0]), float(point_cam[1]), float(point_cam[2])
    if z <= 0.0:
        raise BehindCameraError(f"point has non-positive depth {z}")
    return Pixel(cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy), z


def back_project(
    p: np.ndarray | tuple[float, float], depth: np.ndarray | float, cam: CameraModel
) -> np.ndarray:
    """Lift pixels at known depths back to camera-frame 3D points.

    ``p`` holds (..., 2) pixels and ``depth`` the matching (...) depths; the
    result is (..., 3), so one pixel and a scalar depth give one (3,) point.
    Exact inverse of :func:`project` for positive depth.

    Raises:
        InvalidDepthError: if any depth is not positive and finite.
    """
    p = np.asarray(p, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if not ((depth > 0.0) & (depth < math.inf)).all():
        raise InvalidDepthError(f"depths must be positive and finite, got {depth}")
    out = np.empty(depth.shape + (3,))
    out[..., 0] = (p[..., 0] - cam.cx) * depth / cam.fx
    out[..., 1] = (p[..., 1] - cam.cy) * depth / cam.fy
    out[..., 2] = depth
    return out


class DepthWindow(NamedTuple):
    """A rectangle of a depth image that holds all of its samples.

    ``depth[i, j]`` is the image's depth in meters at row ``top + i`` and
    column ``left + j``, NaN where missing; every pixel outside the rectangle
    is missing too. ``image_shape`` is the full image's (height, width). An
    image with no sample is a 0x0 window.
    """

    depth: np.ndarray
    top: int
    left: int
    image_shape: tuple[int, int]


def disk_window(
    bounds: tuple[int, int, int, int], x: float, y: float, radius: float
) -> tuple[slice, slice, np.ndarray] | None:
    """The integer pixels near (x, y), clipped to a rectangle of the image.

    ``bounds`` is the rectangle's ``(top, left, height, width)`` in image
    pixels. Returns the row and column slices, relative to the rectangle's
    top-left corner, of the window holding every pixel of the rectangle
    within ``radius`` of (x, y), and the window's squared distances ``d2`` to
    (x, y); the disk itself is ``d2 < radius**2``. ``d2`` is computed from
    absolute pixel coordinates, so a pixel's ``d2`` does not depend on the
    rectangle. Returns None when the window misses the rectangle.
    """
    top, left, h, w = bounds
    x0 = max(left, math.ceil(x - radius))
    x1 = min(left + w - 1, math.floor(x + radius))
    y0 = max(top, math.ceil(y - radius))
    y1 = min(top + h - 1, math.floor(y + radius))
    if x0 > x1 or y0 > y1:
        return None
    d2 = (np.arange(x0, x1 + 1)[None, :] - x) ** 2 + (np.arange(y0, y1 + 1)[:, None] - y) ** 2
    return slice(y0 - top, y1 + 1 - top), slice(x0 - left, x1 + 1 - left), d2


def median_depth(
    window: DepthWindow, p: Pixel | tuple[float, float], radius_px: float = DEFAULT_NEIGHBORHOOD_PX
) -> float | None:
    """Median of the valid depth samples within ``radius_px`` of pixel ``p``.

    ``window`` holds the depth image and ``p`` is in image pixels. Samples
    are the integer pixels whose Euclidean distance to ``p`` is strictly
    below the radius. Depths that are 0, NaN, or negative count as missing,
    as does every pixel outside the window. On an even sample count the
    LOWER median is returned, so the result is always an observed sample and
    never a fabricated value between two surfaces at a depth discontinuity.

    Returns None when the neighborhood holds no valid sample. ``p`` must lie
    in the image: ``lifting.lift_skeleton`` checks that first and marks a
    joint outside it invalid.

    Raises:
        ValueError: if ``radius_px`` is not positive.
    """
    if radius_px <= 0:
        raise ValueError("neighborhood radius must be positive")
    x, y = float(p[0]), float(p[1])
    found = disk_window((window.top, window.left, *window.depth.shape), x, y, radius_px)
    if found is None:
        return None
    rows, cols, d2 = found
    patch = window.depth[rows, cols]
    samples = patch[(d2 < radius_px**2) & np.isfinite(patch) & (patch > 0)]
    if samples.size == 0:
        return None
    samples = np.sort(samples)
    return float(samples[(samples.size - 1) // 2])


def to_world(joints: np.ndarray, valid: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Map a (15, 3) joint array from ``cam``'s frame to the world frame.

    Valid rows go through the rigid extrinsic; invalid rows come out zero.
    """
    r = cam.extrinsic[:3, :3]
    t = cam.extrinsic[:3, 3]
    world = joints @ r.T
    world[valid] += t
    world[~valid] = 0.0
    return world


def world_to_camera(point_world: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Express a world-frame point in ``cam``'s frame as ``R @ p + t``.

    One point per call on purpose: a batched ``P @ R.T + t`` rounds some
    coordinates differently, which would move the simulated stream's bytes.
    """
    m = cam.camera_from_world
    return m[:3, :3] @ np.asarray(point_world, dtype=float) + m[:3, 3]
