"""Detection-to-track assignment: centroids, Mahalanobis costs, Munkres, gating.

Each incoming skeleton is reduced to a centroid (the chest joint, or a
weighted mean of torso-proximal joints when the chest is missing). A cost
matrix of squared Mahalanobis innovation distances between track centroid
filters and detection centroids is solved one-to-one by the Munkres
(Hungarian) algorithm, and an assigned pair is kept only if its original
cost lies strictly below the gate. The result partitions detections and
tracks into matches, track births, and removal candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import ukf
from .model import CHEST, L_HIP, L_SHOULDER, NECK, R_HIP, R_SHOULDER, DetectionSet, Skeleton3D
from .ukf import FilterState, NoiseConfig

# Squared-Mahalanobis gate; 9.49 is the chi-square 95th percentile at 3 dof.
DEFAULT_GATE = 9.49

# Fallback centroid weights when the chest is missing, renormalized over
# whichever of these joints are valid. Torso-proximal joints approximate the
# chest best; the neck dominates, hips outweigh shoulders.
CENTROID_FALLBACK_WEIGHTS = (
    (NECK, 0.4),
    (R_SHOULDER, 0.1),
    (L_SHOULDER, 0.1),
    (R_HIP, 0.2),
    (L_HIP, 0.2),
)

# Stand-in cost for unassociable (missing-centroid) detections. Kept finite
# only inside the solver; such pairs are never reported as assignments.
_SENTINEL_SUBSTITUTE = 1e15


@dataclass(frozen=True)
class AssociationResult:
    """Partition of one detection set against the current tracks.

    Every detection index lands in exactly one of matches /
    unmatched_detections, every track id in matches / unmatched_tracks, and
    no id or index repeats inside matches.
    """

    matches: tuple[tuple[int, int], ...]  # (detection index, track id)
    unmatched_detections: tuple[int, ...]
    unmatched_tracks: tuple[int, ...]


def centroid(s: Skeleton3D) -> np.ndarray | None:
    """Representative point of a skeleton: the chest, or a torso-joint mean.

    Returns None when neither the chest nor any fallback joint is valid —
    a skeleton with no torso is unassociable evidence.
    """
    if s.valid[CHEST]:
        return s.joints[CHEST].copy()
    total = 0.0
    acc = np.zeros(3)
    for joint_id, weight in CENTROID_FALLBACK_WEIGHTS:
        if s.valid[joint_id]:
            acc += weight * s.joints[joint_id]
            total += weight
    if total == 0.0:
        return None
    return acc / total


def build_cost_matrix(
    track_filters: Sequence[FilterState],
    dets: Sequence[Skeleton3D],
    t: float,
    cfg: NoiseConfig,
) -> np.ndarray:
    """Squared-Mahalanobis cost matrix, tracks on rows, detections on columns.

    Each track's centroid filter is predicted once to ``t`` (clamped so a
    stale detection never rewinds a filter) and scored against every
    detection centroid. Detections with a missing centroid cost +inf against
    every track.
    """
    costs = np.full((len(track_filters), len(dets)), np.inf)
    if len(track_filters) == 0 or len(dets) == 0:
        return costs
    cents = [centroid(d) for d in dets]
    for i, state in enumerate(track_filters):
        predicted = ukf.predict(state, max(t, state.last_update), cfg)
        z_hat, S = ukf.predicted_measurement(predicted, cfg)
        S_inv = np.linalg.inv(S)
        for j, c in enumerate(cents):
            if c is None:
                continue
            ztilde = c - z_hat
            costs[i, j] = float(ztilde @ S_inv @ ztilde)
    return costs


def munkres(cost: np.ndarray) -> dict[int, int]:
    """Minimum-cost one-to-one assignment of rows to columns, possibly partial.

    Rectangular matrices are handled natively (the smaller side is fully
    assigned); non-finite entries are substituted with a large constant for
    the solver and any assignment that lands on one is discarded, so sentinel
    pairs are never returned. Ties resolve deterministically (fixed solver
    pivoting), keeping replays bit-stable.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return {}
    finite = np.isfinite(cost)
    solver_cost = np.where(finite, cost, _SENTINEL_SUBSTITUTE)
    rows, cols = linear_sum_assignment(solver_cost)
    return {int(r): int(c) for r, c in zip(rows, cols) if finite[r, c]}


def data_association(
    dets: DetectionSet,
    tracks: Sequence,
    eps: float = DEFAULT_GATE,
    cfg: NoiseConfig = NoiseConfig(),
) -> AssociationResult:
    """Assign a detection set to tracks with gated optimal matching.

    ``tracks`` may be any objects exposing ``track_id`` and
    ``centroid_filter``. An assignment survives only if its original cost is
    strictly below ``eps``; leftover detections become track births, leftover
    tracks removal candidates.
    """
    if eps <= 0:
        raise ValueError("gating threshold must be positive")

    cost = build_cost_matrix(
        [trk.centroid_filter for trk in tracks], dets.skeletons, dets.stamp, cfg
    )
    assignment = munkres(cost)

    matches = []
    matched_rows = set()
    matched_cols = set()
    for i, trk in enumerate(tracks):
        j = assignment.get(i)
        if j is not None and cost[i, j] < eps:
            matches.append((j, trk.track_id))
            matched_rows.add(i)
            matched_cols.add(j)
    unmatched_dets = tuple(j for j in range(len(dets.skeletons)) if j not in matched_cols)
    unmatched_tracks = tuple(
        trk.track_id for i, trk in enumerate(tracks) if i not in matched_rows
    )
    return AssociationResult(
        matches=tuple(matches),
        unmatched_detections=unmatched_dets,
        unmatched_tracks=unmatched_tracks,
    )
