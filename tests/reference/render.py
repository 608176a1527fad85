"""The simulator's full-frame depth renderer as of commit e7bef20.

Every person-frame allocates whole (height, width) depth and ``best_d2``
images, splats each in-image joint's disk into them and adds depth noise to
every finite pixel in the image's row-major order. ``test_sim.py`` renders
the same frames with this function and with ``simulate.render_detection``
from equally seeded generators and requires equal pixels, validity and
generator state, and each depth window pasted into a NaN image to equal
this function's image bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from skelfuse import geometry
from skelfuse.model import JOINT_COUNT


def _disk_window(shape, x, y, radius):
    h, w = shape
    x0 = max(0, math.ceil(x - radius))
    x1 = min(w - 1, math.floor(x + radius))
    y0 = max(0, math.ceil(y - radius))
    y1 = min(h - 1, math.floor(y + radius))
    if x0 > x1 or y0 > y1:
        return None
    d2 = (np.arange(x0, x1 + 1)[None, :] - x) ** 2 + (np.arange(y0, y1 + 1)[:, None] - y) ** 2
    return slice(y0, y1 + 1), slice(x0, x1 + 1), d2


def _splat_disk(depth, best_d2, px, py, z, radius):
    found = _disk_window(depth.shape, px, py, radius)
    if found is None:
        return
    rows, cols, d2 = found
    sel = (d2 < radius**2) & (d2 < best_d2[rows, cols])
    depth[rows, cols][sel] = z
    best_d2[rows, cols][sel] = d2[sel]


def render_detection(gt, spec, t, rng):
    """``(pixels, valid, depth_maps)`` with one full (height, width) image per person, or None."""
    if rng.random() < spec.detection_dropout:
        return None
    cam = spec.camera
    w, h = spec.width, spec.height
    person_ids = gt.person_ids

    pixels = np.zeros((len(person_ids), JOINT_COUNT, 2))
    valid = np.zeros((len(person_ids), JOINT_COUNT), dtype=bool)
    depth_maps = []
    for k, person_id in enumerate(person_ids):
        truth = gt.truth_at(person_id, t)
        noise = rng.normal(0.0, spec.pixel_sigma, size=(JOINT_COUNT, 2))
        drops = rng.random(JOINT_COUNT)
        depth = np.full((h, w), np.nan)
        best_d2 = np.full((h, w), np.inf)
        for j in range(JOINT_COUNT):
            p_cam = geometry.world_to_camera(truth.joints[j], cam)
            if p_cam[2] <= 0.0:
                continue
            px, d = geometry.project(p_cam, cam)
            if not (0.0 <= px[0] < w and 0.0 <= px[1] < h):
                continue
            _splat_disk(depth, best_d2, px[0], px[1], d, spec.splat_radius)
            nx, ny = px[0] + noise[j, 0], px[1] + noise[j, 1]
            if not (0.0 <= nx < w and 0.0 <= ny < h):
                continue
            if drops[j] < spec.joint_dropout:
                continue
            pixels[k, j] = (nx, ny)
            valid[k, j] = True
        holes = np.isfinite(depth)
        n = int(np.count_nonzero(holes))
        if n:
            depth[holes] += rng.normal(0.0, spec.depth_sigma, size=n)
        depth_maps.append(depth)
    return pixels, valid, depth_maps
