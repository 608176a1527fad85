"""Evaluation protocol: reprojection error against a reference camera.

Fused 3D joints are projected into a designated reference camera and compared
to the ground-truth 2D joint there; per-joint mean/std pixel errors are
reported per camera-count configuration for the tracker output ("ours") and
for moving-average-filter baselines (MAF_k: each joint is the mean of its
last k valid observations on the merged detection stream).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import association, geometry
from .errors import BehindCameraError, ConfigError
from .model import (
    CHEST,
    JOINT_COUNT,
    LIMB_JOINTS,
    CameraModel,
    Skeleton3D,
    joint_name,
)
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


class _JointWindows:
    """Per-joint windows of the last ``size`` valid observations: the MAF state."""

    def __init__(self, size: int):
        self._windows = [deque(maxlen=size) for _ in range(JOINT_COUNT)]

    def push(self, skel: Skeleton3D) -> None:
        """Append every valid joint of ``skel``; missing joints are skipped."""
        for j in range(JOINT_COUNT):
            if skel.valid[j]:
                self._windows[j].append(skel.joints[j])

    def mean(self, j: int, k: int) -> np.ndarray | None:
        """Mean of joint ``j``'s last ``k`` observations, None if never observed."""
        window = self._windows[j]
        if not window:
            return None
        return np.mean(list(window)[-k:], axis=0)


def maf_baseline(history: Sequence[Skeleton3D], k: int) -> list[Skeleton3D]:
    """Moving-average smoothing of a joint-observation series.

    Output entry i holds, per joint, the arithmetic mean of that joint's last
    k valid observations among history[0..i] (fewer while the window fills);
    joints never observed so far stay missing. Missing observations are
    skipped, never zero-filled.
    """
    if k < 1:
        raise ValueError("window size k must be >= 1")
    windows = _JointWindows(k)
    out = []
    for skel in history:
        windows.push(skel)
        joints = np.zeros((JOINT_COUNT, 3))
        valid = np.zeros(JOINT_COUNT, dtype=bool)
        for j in range(JOINT_COUNT):
            est = windows.mean(j, k)
            if est is not None:
                joints[j] = est
                valid[j] = True
        out.append(Skeleton3D(joints, valid))
    return out


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


class _Accumulator:
    def __init__(self):
        self.errors: list[float] = []
        self.n_excluded = 0

    def cell(self) -> ReportCell:
        if not self.errors:
            return ReportCell(math.nan, math.nan, 0, self.n_excluded)
        arr = np.asarray(self.errors)
        return ReportCell(float(arr.mean()), float(arr.std()), len(arr), self.n_excluded)


def _nearest_skeleton(skeletons, point: np.ndarray):
    """Oracle association: the skeleton whose centroid is nearest to ``point``."""
    best, best_d = None, math.inf
    for s in skeletons:
        c = association.centroid(s)
        if c is None:
            continue
        d = float(np.linalg.norm(c - point))
        if d < best_d:
            best, best_d = s, d
    return best


def evaluate(
    cfg: ScenarioConfig,
    camera_subsets: Sequence[Sequence[str]] | None = None,
    k_values: Sequence[int] = DEFAULT_MAF_K,
    seeds: Sequence[int] | None = None,
    ref_camera_id: str | None = None,
) -> EvalReport:
    """Run the full protocol over camera subsets, methods, and seeds.

    For every seed the scenario is simulated once; for every camera subset
    the subset's arrival-ordered stream is replayed into a fresh tracker with
    the default config ("ours") and into one MAF_k window per k in
    ``k_values``, all sampled at the reference camera's frame times from
    ``WARMUP_S`` on. The truth pixel is the simulator pose projected into the
    reference camera. Samples where truth or a fused joint falls behind the
    reference camera are excluded and counted. Statistics pool all seeds.
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
    ref_id = ref_camera_id if ref_camera_id is not None else camera_ids[0]
    if ref_id not in camera_ids:
        raise ConfigError(f"unknown reference camera {ref_id!r}")
    ref_spec = cfg.cameras[camera_ids.index(ref_id)]
    ref_cam = ref_spec.camera
    if any(k < 1 for k in k_values):
        raise ConfigError(f"MAF window sizes must be >= 1, got {list(k_values)}")
    if seeds is None:
        seeds = [cfg.seed]
    if not seeds:
        raise ConfigError("at least one seed is required")

    sample_times = [
        k / ref_spec.frame_rate
        for k in range(math.ceil(cfg.duration * ref_spec.frame_rate))
        if WARMUP_S <= k / ref_spec.frame_rate < cfg.duration
    ]

    configs = [f"{len(s)}-cam" for s in camera_subsets]
    method_labels = _method_labels(k_values)
    acc: dict[tuple[str, str, int], _Accumulator] = {
        (c, m, j): _Accumulator()
        for c in configs
        for m in method_labels
        for j in LIMB_JOINTS
    }

    for seed in seeds:
        scenario = replace(cfg, seed=int(seed))
        events, gt = run_scenario(scenario)
        for subset, config_label in zip(camera_subsets, configs):
            subset_set = set(subset)
            sub_events = [e for e in events if e.detections.camera_id in subset_set]
            _run_pass(sub_events, gt, sample_times, ref_cam, config_label, k_values, acc)

    cells = {key: a.cell() for key, a in acc.items()}
    return EvalReport(
        configs=configs, methods=method_labels, joints=list(LIMB_JOINTS), cells=cells
    )


def _default_subsets(camera_ids: list[str]) -> list[list[str]]:
    """1-camera, 2-camera (reference + farthest in list order), full network."""
    subsets = [[camera_ids[0]]]
    if len(camera_ids) >= 2:
        subsets.append([camera_ids[0], camera_ids[len(camera_ids) // 2]])
    if len(camera_ids) > 2:
        subsets.append(list(camera_ids))
    return subsets


def _method_labels(k_values) -> list[str]:
    return [f"MAF_{k}" for k in k_values] + ["ours"]


def _run_pass(sub_events, gt, sample_times, ref_cam, config_label, k_values, acc):
    tracker = PoseTracker()
    person_ids = gt.person_ids
    maf_windows = {pid: _JointWindows(max(k_values, default=0)) for pid in person_ids}

    ei = 0
    for t_s in sample_times:
        while ei < len(sub_events) and sub_events[ei].arrival <= t_s:
            dets = sub_events[ei].detections
            tracker.ingest(dets)
            if k_values and dets.skeletons:
                for pid in person_ids:
                    truth_chest = gt.truth_at(pid, dets.stamp).joints[CHEST]
                    skel = _nearest_skeleton(dets.skeletons, truth_chest)
                    if skel is not None:
                        maf_windows[pid].push(skel)
            ei += 1

        snap = tracker.snapshot(t_s)
        for pid in person_ids:
            truth = gt.truth_at(pid, t_s)
            fused = None
            if snap.tracks:
                fused = _nearest_skeleton(
                    [tp.skeleton for tp in snap.tracks], truth.joints[CHEST]
                )
            for j in LIMB_JOINTS:
                try:
                    p_star, _ = geometry.project(
                        geometry.world_to_camera(truth.joints[j], ref_cam), ref_cam
                    )
                except BehindCameraError:
                    for m in _method_labels(k_values):
                        acc[(config_label, m, j)].n_excluded += 1
                    continue
                if fused is not None and fused.valid[j]:
                    try:
                        err = reprojection_error(fused.joints[j], p_star, ref_cam)
                        acc[(config_label, "ours", j)].errors.append(err)
                    except BehindCameraError:
                        acc[(config_label, "ours", j)].n_excluded += 1
                for k in k_values:
                    est = maf_windows[pid].mean(j, k)
                    if est is None:
                        continue
                    try:
                        err = reprojection_error(est, p_star, ref_cam)
                        acc[(config_label, f"MAF_{k}", j)].errors.append(err)
                    except BehindCameraError:
                        acc[(config_label, f"MAF_{k}", j)].n_excluded += 1
