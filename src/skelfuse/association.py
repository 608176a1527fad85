"""Detection-to-track assignment: centroids, Mahalanobis costs, Munkres, gating.

Each incoming skeleton is reduced to a centroid (the chest joint, or a
weighted mean of torso-proximal joints when the chest is missing), every row
of a stack in one call. A cost
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
import numpy as np
from scipy.optimize import linear_sum_assignment

from . import ukf
from .model import CHEST, L_HIP, L_SHOULDER, NECK, R_HIP, R_SHOULDER, Skeleton3D
from .ukf import FilterState, NoiseConfig

# Squared-Mahalanobis gate on a 3D centroid. 9.49 is the chi-square 95th
# percentile at 4 dof, about the 97.7th at 3 dof (whose 95th is 7.81).
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


def centroid(s: Skeleton3D) -> np.ndarray:
    """Representative point of every row: the chest, or a torso-joint mean.

    Returns ``(..., 3)`` for skeletons ``(..., 15, 3)``, NaN for a row with no
    torso joint: unassociable evidence. A chest-less row sums its fallback
    joints in the weights' order, as one skeleton at a time would.
    """
    out = s.joints[..., CHEST, :].copy()
    lost = ~s.valid[..., CHEST]
    if lost.any():
        joints, valid = s.joints[lost], s.valid[lost]
        total, acc = np.zeros(len(valid)), np.zeros((len(valid), 3))
        for joint_id, weight in CENTROID_FALLBACK_WEIGHTS:
            # An invalid joint is zero, so it adds exactly +0.0 to its row's sum.
            acc += weight * joints[:, joint_id]
            total += weight * valid[:, joint_id]
        with np.errstate(invalid="ignore"):  # a torso-less row is 0 / 0: NaN
            out[lost] = acc / total[:, None]
    return out


def build_cost_matrix(
    predicted: FilterState,
    centroids: np.ndarray,
    cfg: NoiseConfig,
) -> np.ndarray:
    """Squared-Mahalanobis cost matrix, tracks on rows, detections on columns.

    Each row of ``predicted`` is one track's centroid filter, already
    predicted to the detection stamp, and is scored against every detection
    centroid. The innovation covariance is isotropic, so a cost is
    ``|z - z_hat|^2 / S``.
    """
    z_hat = predicted.position()
    var = ukf.innovation_var(predicted, cfg.meas_sigma)
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
    predicted: FilterState,
    centroids: np.ndarray,
    eps: float,
    cfg: NoiseConfig,
) -> AssociationResult:
    """Assign detection centroids to the rows of predicted track centroid filters.

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
