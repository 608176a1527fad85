"""Pinhole projection, back-projection, robust depth sampling, registration.

The pinhole model maps a camera-frame point P = (X, Y, Z) to the pixel
p = (fx*X/Z + cx, fy*Y/Z + cy) with depth Z; back-projection is its exact
algebraic inverse. Depth for a 2D joint is recovered robustly as the median
over a small pixel disk of the depth image, which rejects single outliers
and tolerates missing samples.

Camera-frame coordinates live only in these functions' plain arrays:
:func:`to_world` registers a lifted (15, 3) joint array into the world frame,
and :func:`world_to_camera` takes a world point back into a camera's frame
for projection. Every ``Skeleton3D`` is world-frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BehindCameraError, InvalidDepthError, OutOfImageError
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


def back_project(p: Pixel | tuple[float, float], depth: float, cam: CameraModel) -> np.ndarray:
    """Lift a pixel at a known depth back to a camera-frame 3D point.

    Exact inverse of :func:`project` for positive depth.

    Raises:
        InvalidDepthError: if ``depth`` is not positive and finite.
    """
    if not (depth > 0.0 and math.isfinite(depth)):
        raise InvalidDepthError(f"depth must be positive and finite, got {depth}")
    x, y = float(p[0]), float(p[1])
    return np.array([
        (x - cam.cx) * depth / cam.fx,
        (y - cam.cy) * depth / cam.fy,
        depth,
    ])


def median_depth(
    depth: np.ndarray, p: Pixel | tuple[float, float], radius_px: float = DEFAULT_NEIGHBORHOOD_PX
) -> float | None:
    """Median of the valid depth samples within ``radius_px`` of pixel ``p``.

    ``depth`` is a (height, width) image in meters. Samples are the integer
    pixels whose Euclidean distance to ``p`` is strictly below the radius.
    Depths that are 0, NaN, or negative count as missing. On an even sample
    count the LOWER median is returned, so the result is always an observed
    sample and never a fabricated value between two surfaces at a depth
    discontinuity.

    Returns None when the neighborhood holds no valid sample.

    Raises:
        OutOfImageError: if ``p`` itself lies outside the image (this is an
            error, not a missing value).
        ValueError: if ``radius_px`` is not positive.
    """
    if radius_px <= 0:
        raise ValueError("neighborhood radius must be positive")
    x, y = float(p[0]), float(p[1])
    h, w = depth.shape
    if not (0.0 <= x < w and 0.0 <= y < h):
        raise OutOfImageError(f"pixel ({x}, {y}) outside {w}x{h} image")

    x0 = max(0, math.ceil(x - radius_px))
    x1 = min(w - 1, math.floor(x + radius_px))
    y0 = max(0, math.ceil(y - radius_px))
    y1 = min(h - 1, math.floor(y + radius_px))
    if x0 > x1 or y0 > y1:
        return None

    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    d2 = (xs[None, :] - x) ** 2 + (ys[:, None] - y) ** 2
    window = depth[y0:y1 + 1, x0:x1 + 1]
    samples = window[(d2 < radius_px**2) & np.isfinite(window) & (window > 0)]
    if samples.size == 0:
        return None
    samples = np.sort(samples)
    return float(samples[(samples.size - 1) // 2])


def transform_point(point: np.ndarray, transform: np.ndarray) -> np.ndarray:
    """Apply a 4x4 rigid transform to a 3D point."""
    return transform[:3, :3] @ np.asarray(point, dtype=float) + transform[:3, 3]


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
    """Express a world-frame point in ``cam``'s frame."""
    return transform_point(point_world, cam.camera_from_world)
