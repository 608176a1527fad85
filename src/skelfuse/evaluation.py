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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import association, geometry
from .errors import ConfigError
from .model import CHEST, JOINT_COUNT, LIMB_JOINTS, CameraModel, joint_name
from .simulate import ScenarioConfig, run_scenario
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
    """The MAF baseline's state: per joint, a window of the last ``size`` valid observations.

    ``mean(j, k)`` is the arithmetic mean of joint ``j``'s last ``k`` valid
    observations (fewer while the window fills). Missing observations are
    skipped, never zero-filled, and a joint never observed has no mean.

    Each joint's observations are rows of one contiguous (2 * size, 3)
    buffer, appended in order and moved back to its start, keeping the last
    ``size``, when it is full; a mean reads its rows in place.
    """

    def __init__(self, size: int):
        self._size = size
        self._rows = np.empty((JOINT_COUNT, 2 * size, 3))
        self._count = [0] * JOINT_COUNT

    def push(self, joints: np.ndarray, valid: np.ndarray) -> None:
        """Append every valid joint of one skeleton row; missing joints are skipped."""
        if not self._size:
            return
        for j in np.flatnonzero(valid).tolist():
            rows, n = self._rows[j], self._count[j]
            if n == len(rows):
                rows[:self._size] = rows[n - self._size:]
                n = self._size
            rows[n] = joints[j]
            self._count[j] = n + 1

    def mean(self, j: int, k: int) -> np.ndarray | None:
        """Mean of joint ``j``'s last ``k`` observations, None if never observed."""
        n = self._count[j]
        if not n:
            return None
        return np.mean(self._rows[j, max(0, n - min(k, self._size)):n], axis=0)


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


def _nearest_row(centroids: np.ndarray, point: np.ndarray) -> int | None:
    """Oracle association: the first row whose centroid is nearest to ``point``; never a NaN."""
    best, best_d = None, math.inf
    for row, c in enumerate(centroids):
        d = float(np.linalg.norm(c - point))
        if d < best_d:
            best, best_d = row, d
    return best


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
    projected into the reference camera. Each sample projects every
    person's truth, and every estimate of every (subset, method, person,
    joint), in one ``geometry.world_to_pixels`` call each; a missing
    estimate is a NaN row and is skipped. Samples where truth or an estimate
    falls behind the reference camera are excluded and counted. Statistics
    pool all seeds, each cell's errors in sample, then person order. A
    report row is labelled by its camera count and method, so a subset that
    names a camera twice, two subsets of one size, or a repeated window size
    raise ConfigError, and so does a scenario with no sample time or no
    person to score.
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
    # Each (configuration, method, joint) cell's errors, by sample, then person.
    errors = [[[[] for _ in joints] for _ in methods] for _ in configs]
    excluded = np.zeros((len(configs), len(methods), len(joints)), dtype=int)
    for seed in seeds:
        events, gt = run_scenario(replace(cfg, seed=int(seed)))
        pids = gt.person_ids
        trackers = [PoseTracker() for _ in configs]
        mafs = [{pid: MovingAverage(max(k_values, default=0)) for pid in pids} for _ in configs]
        ei = 0
        for t_s in sample_times:
            while ei < len(events) and events[ei].arrival <= t_s:
                dets = events[ei].detections
                ei += 1
                takers = [i for i, cams in enumerate(cameras) if dets.camera_id in cams]
                for i in takers:
                    trackers[i].ingest(dets)
                if k_values and takers and len(dets.skeletons):
                    _feed_mafs(dets, gt, pids, [mafs[i] for i in takers])

            truth = np.array([gt.truth_at(pid, t_s).joints for pid in pids])
            estimates = np.full((len(configs), len(methods), len(pids), len(joints), 3), np.nan)
            for est, tracker, windows in zip(estimates, trackers, mafs):
                fused = tracker.snapshot(t_s).tracks
                centroids = association.centroid(fused)
                for p, pid in enumerate(pids):
                    for m, k in enumerate(k_values):
                        for i, j in enumerate(joints):
                            mean = windows[pid].mean(j, k)
                            if mean is not None:
                                est[m, p, i] = mean
                    row = _nearest_row(centroids, truth[p, CHEST])
                    if row is not None:
                        ok = fused.valid[row, joints]
                        est[-1, p, ok] = fused.joints[row, joints][ok]
            truth_px, truth_z = geometry.world_to_pixels(truth[:, joints], ref_cam)
            est_px, est_z = geometry.world_to_pixels(estimates, ref_cam)
            present = ~np.isnan(estimates[..., 0])
            scored = present & (est_z > 0.0) & (truth_z > 0.0)
            excluded += np.count_nonzero((truth_z <= 0.0) | present & (est_z <= 0.0), axis=2)
            offsets = (est_px - truth_px)[scored].tolist()
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


def _feed_mafs(dets, gt, pids, mafs) -> None:
    """Push to each person's MAF in ``mafs`` the set's row nearest their true chest at its stamp."""
    centroids = association.centroid(dets.skeletons)
    for pid in pids:
        row = _nearest_row(centroids, gt.truth_at(pid, dets.stamp).joints[CHEST])
        if row is not None:
            for windows in mafs:
                windows[pid].push(dets.skeletons.joints[row], dets.skeletons.valid[row])


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
