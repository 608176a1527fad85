"""Detection-to-track assignment: centroids, Mahalanobis costs, Munkres, gating.

Each incoming skeleton is reduced to a centroid (the chest joint, or a
weighted mean of torso-proximal joints when the chest is missing). A cost
matrix of squared Mahalanobis innovation distances between track centroid
filters and detection centroids is solved one-to-one by the Munkres
(Hungarian) algorithm, and an assigned pair is kept only if its original
cost lies strictly below the gate. The result partitions detections into
matches and track births. Scoring is pure:
the tracker predicts the centroid filters and drops centroid-less skeletons
first, so this module knows neither time nor track identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import ukf
from .model import CHEST, L_HIP, L_SHOULDER, NECK, R_HIP, R_SHOULDER, Skeleton3D
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

# Stand-in cost for non-finite entries (a distance that overflows). Kept
# finite only inside the solver; such pairs are never reported as assignments.
_SENTINEL_SUBSTITUTE = 1e15


@dataclass(frozen=True)
class AssociationResult:
    """Partition of one detection set against the current tracks.

    Every detection index lands in exactly one of matches /
    unmatched_detections, and no row or index repeats inside matches.
    """

    matches: tuple[tuple[int, int], ...]  # (detection index, track row)
    unmatched_detections: tuple[int, ...]


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
    predicted: Sequence[FilterState],
    centroids: Sequence[np.ndarray],
    cfg: NoiseConfig,
) -> np.ndarray:
    """Squared-Mahalanobis cost matrix, tracks on rows, detections on columns.

    Each row scores one track's centroid filter, already predicted to the
    detection stamp, against every detection centroid. The innovation
    covariance is isotropic, so a cost is ``|z - z_hat|^2 / S``.
    """
    z_hat = np.array([s.position() for s in predicted]).reshape(-1, 3)
    var = np.array([ukf.innovation_var(s, cfg.meas_sigma) for s in predicted])
    z = np.array(centroids).reshape(-1, 3)
    # A distance past float range costs inf by design; munkres never assigns it.
    with np.errstate(over="ignore"):
        return ((z[None, :, :] - z_hat[:, None, :]) ** 2).sum(axis=2) / var[:, None]


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
    predicted: Sequence[FilterState],
    centroids: Sequence[np.ndarray],
    eps: float,
    cfg: NoiseConfig,
) -> AssociationResult:
    """Assign detection centroids to predicted track centroid filters.

    An assignment survives only if its original cost is strictly below
    ``eps``; leftover detections become track births.
    """
    cost = build_cost_matrix(predicted, centroids, cfg)
    assignment = munkres(cost)

    matches = tuple((j, i) for i, j in assignment.items() if cost[i, j] < eps)
    matched = {j for j, _ in matches}
    return AssociationResult(
        matches=matches,
        unmatched_detections=tuple(j for j in range(len(centroids)) if j not in matched),
    )
