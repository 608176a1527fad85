"""Pinhole projection, back-projection, robust depth sampling, registration.

The pinhole model maps a camera-frame point P = (X, Y, Z) to the pixel
p = (fx*X/Z + cx, fy*Y/Z + cy) with depth Z; back-projection is its exact
algebraic inverse. :func:`world_to_camera`, :func:`project` and
:func:`back_project` take stacks, (..., 3) points or (..., 2) pixels, and
give each point the same bits as a call for that point alone. Depth for a
2D joint is recovered robustly as the median over a small pixel disk of the
depth image (:func:`median_depth`), which rejects single outliers and
tolerates missing samples. Disks are taken many
at a time (:func:`disks`): one broadcast covers every joint of a camera
frame, whether the simulator splats depth into them or lifting samples it.

A depth image is held as a :class:`DepthWindow`: a rectangle of the image
that holds every sample, with its top-left origin in the image and the
image's size; every pixel outside the rectangle is missing. A pixel's
squared distance to a disk centre is always computed from absolute image
coordinates, never from coordinates shifted by the window's origin, so the
same pixel gets the same bits from a window as from its full image.

Camera-frame coordinates live only in these functions' plain arrays:
:func:`to_world` registers lifted (..., 15, 3) joint arrays into the world frame,
and :func:`world_to_camera` takes (..., 3) world points back into a camera's
frame for projection, which :func:`world_to_pixels` does in one step. Every
``Skeleton3D`` is world-frame.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BehindCameraError, InvalidDepthError
from .model import CameraModel

# Radius (pixels) of the disk used to collect depth samples around a joint.
DEFAULT_NEIGHBORHOOD_PX = 3.0


def project(points_cam: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project (..., 3) camera-frame points to (..., 2) pixels and their (...) depths.

    Raises:
        BehindCameraError: if any point has Z <= 0.
    """
    p = np.asarray(points_cam, dtype=float)
    z = p[..., 2]
    if (z <= 0.0).any():
        raise BehindCameraError(f"a point has non-positive depth {z.min()}")
    return np.stack((cam.fx * p[..., 0] / z + cam.cx, cam.fy * p[..., 1] / z + cam.cy), axis=-1), z


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


class Disks(NamedTuple):
    """The integer pixels of N disks, each clipped to a rectangle of the image.

    Disk ``i``'s window is rows ``top[i]:bottom[i]`` and columns
    ``left[i]:right[i]`` of the image, empty where ``bottom <= top`` or
    ``right <= left``. ``rows`` (N, ky, 1) and ``cols`` (N, 1, kx) are the
    absolute image coordinates of a (ky, kx) box at each window's top-left
    corner, large enough for every window; ``d2`` (N, ky, kx) is each box
    pixel's squared distance to its centre, and ``inside`` marks the box
    pixels that lie in the window and in the disk, ``d2 < radius**2``.
    """

    top: np.ndarray
    left: np.ndarray
    bottom: np.ndarray
    right: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    d2: np.ndarray
    inside: np.ndarray


def disks(bounds, x: np.ndarray, y: np.ndarray, radius: float) -> Disks:
    """The pixels within ``radius`` of each centre ``(x[i], y[i])``, clipped to a rectangle.

    ``bounds`` is the rectangle's ``(top, left, height, width)`` in image
    pixels, each a scalar or one value per centre. ``d2`` is computed from
    absolute pixel coordinates, one broadcast for all centres, so a pixel's
    ``d2`` does not depend on the rectangle or on the other centres.
    """
    top, left, h, w = (np.asarray(b, dtype=np.intp) for b in bounds)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x0 = np.maximum(left, np.ceil(x - radius)).astype(np.intp)
    x1 = np.minimum(left + w - 1, np.floor(x + radius)).astype(np.intp)
    y0 = np.maximum(top, np.ceil(y - radius)).astype(np.intp)
    y1 = np.minimum(top + h - 1, np.floor(y + radius)).astype(np.intp)
    kx = max(0, int((x1 - x0).max(initial=-1)) + 1)
    ky = max(0, int((y1 - y0).max(initial=-1)) + 1)
    cols = x0[:, None, None] + np.arange(kx)
    rows = y0[:, None, None] + np.arange(ky)[:, None]
    d2 = (cols - x[:, None, None]) ** 2 + (rows - y[:, None, None]) ** 2
    inside = (cols <= x1[:, None, None]) & (rows <= y1[:, None, None]) & (d2 < radius**2)
    return Disks(y0, x0, y1 + 1, x1 + 1, rows, cols, d2, inside)


def median_depth(
    windows: list[DepthWindow], which: np.ndarray, p: np.ndarray,
    radius_px: float = DEFAULT_NEIGHBORHOOD_PX,
) -> np.ndarray:
    """Median of the valid depth samples within ``radius_px`` of each pixel ``p[i]``.

    ``p`` holds (N, 2) image pixels and ``which`` (N,) indexes ``windows``:
    pixel ``i`` is sampled in ``windows[which[i]]``, so one call serves a
    whole camera frame. Samples are the integer pixels whose Euclidean
    distance to ``p[i]`` is strictly below the radius. Depths that are 0,
    NaN, or negative count as missing, as does every pixel outside the
    window. On an even sample count the LOWER median is returned, so the
    result is always an observed sample and never a fabricated value between
    two surfaces at a depth discontinuity.

    The windows are read in one indexed gather and every neighborhood's
    samples in one masked sort (missing samples sort last as +inf), so a
    median is picked by index, bit for bit a sample.

    Returns the (N,) medians, NaN where a neighborhood holds no valid
    sample. Each ``p[i]`` must lie in the image: ``lifting.lift_skeleton``
    checks that first and marks a joint outside it invalid.

    Raises:
        ValueError: if ``radius_px`` is not positive.
    """
    if radius_px <= 0:
        raise ValueError("neighborhood radius must be positive")
    p = np.asarray(p, dtype=float).reshape(-1, 2)
    which = np.asarray(which, dtype=np.intp)
    shape = np.array([win.depth.shape for win in windows], dtype=np.intp).reshape(-1, 2)
    origin = np.array([(win.top, win.left) for win in windows], dtype=np.intp).reshape(-1, 2)
    size = shape[:, 0] * shape[:, 1]
    start = np.cumsum(size) - size
    # Every window's samples, then one missing sample that pixels off a window read.
    flat = np.concatenate([win.depth.ravel() for win in windows] + [np.full(1, np.nan)])
    top, left = origin[which].T
    width = shape[which, 1]
    d = disks((top, left, shape[which, 0], width), p[:, 0], p[:, 1], radius_px)
    at = (start[which][:, None, None] + (d.rows - top[:, None, None]) * width[:, None, None]
          + (d.cols - left[:, None, None]))
    _, ky, kx = d.d2.shape
    samples = flat[np.where(d.inside, at, flat.size - 1)].reshape(len(p), ky * kx)
    ok = np.isfinite(samples) & (samples > 0)
    samples = np.sort(np.where(ok, samples, np.inf), axis=1)
    n = np.count_nonzero(ok, axis=1)
    out = np.full(len(p), np.nan)
    found = n > 0
    out[found] = samples[found, (n[found] - 1) // 2]
    return out


def to_world(joints: np.ndarray, valid: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Map (..., 15, 3) joint arrays from ``cam``'s frame to the world frame.

    Valid joints go through the rigid extrinsic; invalid joints come out zero.
    """
    r = cam.extrinsic[:3, :3]
    t = cam.extrinsic[:3, 3]
    world = joints @ r.T
    world[valid] += t
    world[~valid] = 0.0
    return world


def world_to_camera(points_world: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Express (..., 3) world-frame points in ``cam``'s frame as ``R @ p + t``.

    Each point is its own matrix-vector product, which rounds as one point
    alone does; ``P @ R.T`` would round some coordinates differently.
    """
    m = cam.camera_from_world
    return (m[:3, :3] @ np.asarray(points_world, dtype=float)[..., None])[..., 0] + m[:3, 3]


def world_to_pixels(points_world: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """(..., 2) pixels of (..., 3) world points in ``cam`` and their (...) depths.

    :func:`world_to_camera`, then :func:`project` of the points in front of
    the camera; any other point gets a NaN pixel instead of an error.
    """
    p_cam = world_to_camera(points_world, cam)
    z = p_cam[..., 2]
    front = z > 0.0
    pixels = np.full(z.shape + (2,), np.nan)
    pixels[front] = project(p_cam[front], cam)[0]
    return pixels, z
