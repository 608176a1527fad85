"""Evaluation protocol: reprojection error against a reference camera.

Fused 3D joints are projected into a designated reference camera and compared
to the ground-truth 2D joint there; per-joint mean/std pixel errors are
reported per camera-count configuration for the tracker output ("ours") and
for moving-average-filter baselines (MAF_k: each joint is the mean of its
last k valid observations).

Both methods pick a person's estimate with the same oracle: the row whose
centroid lies nearest that person's true chest. "Ours" takes the nearest
fused track at each sample time. Each person's MAF window is fed, per
detection set, the detection nearest the person's true chest at the set's
capture stamp, so a set with one detection feeds it to every person's
window. A report cell with no sample reads ``nan`` in the CSV and ``-`` in
the table.

Each camera configuration keeps one ``MovingAverage`` for all persons: a
``(persons, 15, size, 3)`` array of windows, each right-aligned after zeros,
``size`` the largest k or the number of sets if fewer (a joint gains at most
one observation per set). A push shifts only the windows of the joints it
observes. A joint's MAF_k estimate sums its window's last k slots in order,
leading zeros included, over its number of observations, at most k: the
bits of ``np.mean`` over those observations, NaN if it has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import association, geometry
from .errors import ConfigError
from .model import CHEST, JOINT_COUNT, LIMB_JOINTS, CameraModel, joint_name
from .simulate import GroundTruth, ScenarioConfig, run_scenario
from .tracker import PoseTracker

OVERFLOW_FLAG_PX = 100.0  # cells above this are flagged in the text table
WARMUP_S = 1.0  # seconds of stream before the first scored sample
DEFAULT_MAF_K = (30, 40)  # MAF window sizes scored when none are given


def reprojection_error(
    fused_joint: np.ndarray, truth_pixel, ref_cam: CameraModel
) -> float:
    """Pixel distance between a truth pixel and the reprojected fused joint.

    Raises:
        BehindCameraError: if the fused joint lands behind the reference
            camera (the caller excludes and counts such samples).
    """
    p_cam = geometry.world_to_camera(fused_joint, ref_cam)
    px, _ = geometry.project(p_cam, ref_cam)
    return math.hypot(px[0] - truth_pixel[0], px[1] - truth_pixel[1])


class MovingAverage:
    """The MAF baseline's state: every person's joints' last ``size`` valid observations.

    Missing observations are skipped, never zero-filled; see the module
    docstring for the window's layout.
    """

    def __init__(self, size: int, persons: int):
        self._size = size
        self._window = np.zeros((persons, JOINT_COUNT, size, 3))
        self._count = np.zeros((persons, JOINT_COUNT), dtype=int)

    def push(self, joints: np.ndarray, valid: np.ndarray) -> None:
        """Append every valid joint of ``joints (P, 15, 3)``; ``valid (P, 15)`` skips the rest."""
        w = self._window[valid]
        self._window[valid] = np.concatenate((w, joints[valid][:, None]), axis=1)[:, 1:]
        self._count += valid

    def means(self, k: int) -> np.ndarray:
        """``(P, 15, 3)`` means of every joint's last ``k`` observations, NaN if never observed."""
        k = min(k, self._size)
        n = np.where(self._count > 0, np.minimum(self._count, k), np.nan)
        return self._window[..., self._size - k:, :].sum(axis=-2) / n[..., None]


@dataclass(frozen=True)
class ReportCell:
    mean_px: float
    std_px: float
    n_samples: int
    n_excluded: int


@dataclass
class EvalReport:
    """Per (configuration, method, joint) reprojection-error statistics."""

    configs: list[str]
    methods: list[str]
    joints: list[int]
    cells: dict[tuple[str, str, int], ReportCell]

    def aggregate_mean(self, config: str, method: str) -> float:
        """Mean error pooled over all reported joints of one table row group."""
        total, n = 0.0, 0
        for j in self.joints:
            cell = self.cells.get((config, method, j))
            if cell is not None and cell.n_samples > 0:
                total += cell.mean_px * cell.n_samples
                n += cell.n_samples
        if n == 0:
            return math.nan
        return total / n

    def to_csv(self) -> str:
        lines = ["config,method,joint,mean_px,std_px,n_samples,n_excluded"]
        for config in self.configs:
            for method in self.methods:
                for j in self.joints:
                    cell = self.cells.get((config, method, j))
                    if cell is None:
                        continue
                    lines.append(
                        f"{config},{method},{joint_name(j)},"
                        f"{cell.mean_px!r},{cell.std_px!r},{cell.n_samples},{cell.n_excluded}"
                    )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        """Render a fixed-width table; cells above 100 px carry a '*' flag."""
        col_w = 14
        header = f"{'config':<12} {'method':<8}" + "".join(
            f"{joint_name(j):>{col_w}}" for j in self.joints
        )
        lines = [header, "-" * len(header)]
        for config in self.configs:
            for mi, method in enumerate(self.methods):
                label = config if mi == 0 else ""
                row = f"{label:<12} {method:<8}"
                for j in self.joints:
                    cell = self.cells.get((config, method, j))
                    if cell is None or cell.n_samples == 0:
                        row += f"{'-':>{col_w}}"
                    else:
                        flag = "*" if cell.mean_px > OVERFLOW_FLAG_PX else ""
                        row += f"{f'{cell.mean_px:.1f}±{cell.std_px:.1f}{flag}':>{col_w}}"
                lines.append(row)
            lines.append("-" * len(header))
        lines.append("* mean exceeds 100 px")
        return "\n".join(lines) + "\n"


def _nearest_rows(centroids: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Oracle association: for each of ``points (P, 3)``, the first row of
    ``centroids (R, 3)`` nearest to it, never a NaN; -1 where no row lies at
    a finite distance."""
    if not len(centroids):
        return np.full(len(points), -1)
    d = np.linalg.norm(centroids - points[:, None], axis=-1)
    d[np.isnan(d)] = np.inf
    rows = np.argmin(d, axis=1)
    return np.where(np.isinf(d.min(axis=1)), -1, rows)


def evaluate(
    cfg: ScenarioConfig,
    camera_subsets: Sequence[Sequence[str]] | None = None,
    k_values: Sequence[int] = DEFAULT_MAF_K,
    seeds: Sequence[int] | None = None,
    ref_camera_id: str | None = None,
) -> EvalReport:
    """Run the full protocol over camera subsets, methods, and seeds.

    For every seed the scenario is simulated once and its arrival-ordered
    stream replayed once: each detection set goes to the fresh default
    tracker ("ours") and the per-person MAF windows of every subset that
    holds its camera. All subsets are sampled at the reference camera's
    frame times from ``WARMUP_S`` on. The truth pixel is the simulator pose
    projected into the reference camera: one ``GroundTruth.poses`` and one
    ``geometry.world_to_pixels`` call for all seeds. One ``poses`` call per
    set gives every person's chest at its stamp. Each sample projects every
    (subset, method, person, joint) estimate in one ``world_to_pixels``
    call; a missing one is NaN and is skipped. Samples where truth or an
    estimate falls behind the reference camera are excluded and counted.
    Statistics pool all seeds, each cell's errors in sample, then person
    order. A report row is labelled by its camera count and method, so a
    subset that names a camera twice, two subsets of one size, or a repeated
    window size raise ConfigError, and so does a scenario with no sample
    time or no person to score.
    """
    camera_ids = [c.camera.camera_id for c in cfg.cameras]
    if camera_subsets is None:
        camera_subsets = _default_subsets(camera_ids)
    for subset in camera_subsets:
        if not subset:
            raise ConfigError("camera subsets must be non-empty")
        for cid in subset:
            if cid not in camera_ids:
                raise ConfigError(f"camera subset references unknown camera {cid!r}")
        if len(set(subset)) < len(subset):
            raise ConfigError(f"camera subset {list(subset)} names a camera twice")
    configs = [f"{len(s)}-cam" for s in camera_subsets]
    if len(set(configs)) < len(configs):
        raise ConfigError(f"camera subsets must differ in size, got {configs}")
    ref_id = ref_camera_id if ref_camera_id is not None else camera_ids[0]
    if ref_id not in camera_ids:
        raise ConfigError(f"unknown reference camera {ref_id!r}")
    ref_spec = cfg.cameras[camera_ids.index(ref_id)]
    ref_cam = ref_spec.camera
    if any(k < 1 for k in k_values):
        raise ConfigError(f"MAF window sizes must be >= 1, got {list(k_values)}")
    if len(set(k_values)) < len(k_values):
        raise ConfigError(f"MAF window sizes must differ, got {list(k_values)}")
    if seeds is None:
        seeds = [cfg.seed]
    if not seeds:
        raise ConfigError("at least one seed is required")

    sample_times = [
        k / ref_spec.frame_rate
        for k in range(math.ceil(cfg.duration * ref_spec.frame_rate))
        if WARMUP_S <= k / ref_spec.frame_rate < cfg.duration
    ]
    if not sample_times:
        raise ConfigError(
            f"no reference-camera frame lies in [{WARMUP_S}, {cfg.duration}) s: nothing to score"
        )
    if not cfg.persons:
        raise ConfigError("the scenario has no persons: nothing to score")

    methods = [f"MAF_{k}" for k in k_values] + ["ours"]
    joints = list(LIMB_JOINTS)
    cameras = [set(subset) for subset in camera_subsets]
    gt = GroundTruth(cfg.persons, cfg.duration)
    pids = gt.person_ids
    truth = gt.poses(sample_times)
    truth_px, truth_z = geometry.world_to_pixels(truth[:, :, joints], ref_cam)
    # Each (configuration, method, joint) cell's errors, by sample, then person.
    errors = [[[[] for _ in joints] for _ in methods] for _ in configs]
    excluded = np.zeros((len(configs), len(methods), len(joints)), dtype=int)
    for seed in seeds:
        events, _ = run_scenario(replace(cfg, seed=int(seed)))
        trackers = [PoseTracker() for _ in configs]
        # A joint gains at most one observation per set.
        size = min(max(k_values, default=0), len(events))
        mafs = [MovingAverage(size, len(pids)) for _ in configs]
        ei = 0
        for s, t_s in enumerate(sample_times):
            while ei < len(events) and events[ei].arrival <= t_s:
                dets = events[ei].detections
                ei += 1
                takers = [i for i, cams in enumerate(cameras) if dets.camera_id in cams]
                for i in takers:
                    trackers[i].ingest(dets)
                if k_values and takers and len(dets.skeletons):
                    chests = gt.poses([dets.stamp])[0, :, CHEST]
                    rows = _nearest_rows(association.centroid(dets.skeletons), chests)
                    valid = dets.skeletons.valid[rows] & (rows >= 0)[:, None]
                    for i in takers:
                        mafs[i].push(dets.skeletons.joints[rows], valid)

            estimates = np.full((len(configs), len(methods), len(pids), len(joints), 3), np.nan)
            for est, tracker, maf in zip(estimates, trackers, mafs):
                for m, k in enumerate(k_values):
                    est[m] = maf.means(k)[:, joints]
                fused = tracker.snapshot(t_s).tracks
                rows = _nearest_rows(association.centroid(fused), truth[s, :, CHEST])
                nearest = np.ix_(rows[rows >= 0], joints)
                est[-1, rows >= 0] = np.where(fused.valid[nearest][..., None],
                                              fused.joints[nearest], np.nan)
            est_px, est_z = geometry.world_to_pixels(estimates, ref_cam)
            present = ~np.isnan(estimates[..., 0])
            scored = present & (est_z > 0.0) & (truth_z[s] > 0.0)
            excluded += np.count_nonzero((truth_z[s] <= 0.0) | present & (est_z <= 0.0), axis=2)
            offsets = (est_px - truth_px[s])[scored].tolist()
            for c, m, _, i, (dx, dy) in zip(*(a.tolist() for a in np.nonzero(scored)), offsets):
                errors[c][m][i].append(math.hypot(dx, dy))

    cells = {}
    for c, config in enumerate(configs):
        for m, method in enumerate(methods):
            for i, j in enumerate(joints):
                e = np.asarray(errors[c][m][i])
                mean, std = (float(e.mean()), float(e.std())) if len(e) else (math.nan, math.nan)
                cells[(config, method, j)] = ReportCell(mean, std, len(e), int(excluded[c, m, i]))
    return EvalReport(configs=configs, methods=methods, joints=joints, cells=cells)


def _default_subsets(camera_ids: list[str]) -> list[list[str]]:
    """1-camera, 2-camera and full network, whatever the reference camera.

    The 1-camera subset is the first listed camera; the 2-camera subset adds
    the camera halfway down the list.
    """
    subsets = [[camera_ids[0]]]
    if len(camera_ids) >= 2:
        subsets.append([camera_ids[0], camera_ids[len(camera_ids) // 2]])
    if len(camera_ids) > 2:
        subsets.append(list(camera_ids))
    return subsets
