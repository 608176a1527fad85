"""Tests for reprojection error, the MAF baseline, and the report protocol."""

import numpy as np
import pytest

from skelfuse.errors import BehindCameraError, ConfigError
from skelfuse.evaluation import (
    EvalReport,
    ReportCell,
    evaluate,
    maf_baseline,
    reprojection_error,
)
from skelfuse.model import LIMB_JOINTS
from skelfuse.simulate import PersonSpec, look_at_extrinsic
from conftest import make_camera, sparse_skeleton, walking_scenario


# --- reprojection_error ---------------------------------------------------------

def test_reprojection_error_zero_on_truth_ray():
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    # truth pixel of world point (0,0,2) with identity extrinsic
    assert reprojection_error(np.array([0.0, 0.0, 2.0]), (320.0, 240.0), cam) == 0.0


def test_reprojection_error_lateral_displacement_oracle():
    # 0.1 m lateral at 2 m depth with fx=500 -> 500*0.1/2 = 25 px.
    cam = make_camera(fx=500, fy=500, cx=320, cy=240)
    err = reprojection_error(np.array([0.1, 0.0, 2.0]), (320.0, 240.0), cam)
    assert err == pytest.approx(25.0, abs=1e-12)


def test_reprojection_error_behind_camera_excluded():
    cam = make_camera()
    with pytest.raises(BehindCameraError):
        reprojection_error(np.array([0.0, 0.0, -1.0]), (320.0, 240.0), cam)


def test_reprojection_error_world_frame_invariance():
    rng = np.random.default_rng(19)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    redefine = np.eye(4)
    redefine[:3, :3] = q
    redefine[:3, 3] = rng.standard_normal(3)

    base_ext = look_at_extrinsic((3.0, 1.0, 1.5), (0.0, 0.0, 1.0))
    cam = make_camera("c", extrinsic=base_ext)
    cam2 = make_camera("c", extrinsic=redefine @ base_ext)

    for _ in range(20):
        p = rng.uniform([-1, -1, 0.2], [1, 1, 2.0])
        px = rng.uniform([0, 0], [640, 480])
        e1 = reprojection_error(p, px, cam)
        p2 = redefine[:3, :3] @ p + redefine[:3, 3]
        e2 = reprojection_error(p2, px, cam2)
        assert e2 == pytest.approx(e1, rel=1e-9, abs=1e-9)


# --- maf_baseline ---------------------------------------------------------------

def _series(values, joint=0):
    """Per-frame skeletons with a single joint following ``values``; None = missing."""
    out = []
    for v in values:
        if v is None:
            out.append(sparse_skeleton({}))
        else:
            out.append(sparse_skeleton({joint: (v, 0.0, 0.0)}))
    return out


def test_maf_constant_input_identity():
    hist = _series([2.0] * 8)
    smoothed = maf_baseline(hist, 4)
    for s in smoothed:
        assert s.joints[0][0] == pytest.approx(2.0)


def test_maf_k1_is_identity():
    hist = _series([1.0, 5.0, -2.0, 0.5])
    smoothed = maf_baseline(hist, 1)
    for s, h in zip(smoothed, hist):
        assert np.array_equal(s.joints[0], h.joints[0])


def test_maf_step_response_oracle():
    # Step 0 -> 1 at frame 10; at frame 12 the last 4 samples are {0,1,1,1}.
    values = [0.0] * 10 + [1.0] * 5
    smoothed = maf_baseline(_series(values), 4)
    assert smoothed[12].joints[0][0] == pytest.approx(0.75)
    assert smoothed[9].joints[0][0] == pytest.approx(0.0)
    assert smoothed[10].joints[0][0] == pytest.approx(0.25)


def test_maf_skips_missing_not_zero_fills():
    values = [2.0, None, None, 4.0]
    smoothed = maf_baseline(_series(values), 2)
    assert smoothed[0].joints[0][0] == pytest.approx(2.0)
    assert smoothed[1].joints[0][0] == pytest.approx(2.0)  # holds last window
    assert smoothed[3].joints[0][0] == pytest.approx(3.0)  # mean of {2, 4}


def test_maf_never_observed_joint_stays_missing():
    smoothed = maf_baseline(_series([None, None]), 3)
    assert not smoothed[-1].valid[0]


def test_maf_window_shorter_history_uses_what_exists():
    smoothed = maf_baseline(_series([1.0, 3.0]), 30)
    assert smoothed[1].joints[0][0] == pytest.approx(2.0)


def test_maf_per_joint_independence():
    hist = [sparse_skeleton({0: (1.0, 0, 0), 5: (10.0, 0, 0)}),
            sparse_skeleton({0: (3.0, 0, 0)})]
    smoothed = maf_baseline(hist, 2)
    assert smoothed[1].joints[0][0] == pytest.approx(2.0)
    assert smoothed[1].joints[5][0] == pytest.approx(10.0)


def test_maf_rejects_bad_window():
    with pytest.raises(ValueError):
        maf_baseline(_series([1.0]), 0)


# --- evaluate -------------------------------------------------------------------

def _noiseless_line_scenario(n_cameras=1):
    # Constant-velocity straight walk with rigid limbs: the motion model is
    # exact, so tracking error reduces to numerics.
    person = PersonSpec("p0", waypoints=np.array([[0.0, -1.2, -0.4], [6.0, 1.2, 0.4]]),
                        swing_amplitude=0.0)
    base = walking_scenario(duration=6.0, n_cameras=n_cameras, persons=(person,))
    return base


def test_evaluate_noiseless_single_camera_subpixel():
    cfg = _noiseless_line_scenario(n_cameras=1)
    report = evaluate(cfg, camera_subsets=[["c0"]], k_values=())
    for j in LIMB_JOINTS:
        cell = report.cells[("1-cam", "ours", j)]
        assert cell.n_samples > 0
        assert cell.mean_px < 1.0


def test_evaluate_rejects_unknown_camera():
    cfg = _noiseless_line_scenario()
    with pytest.raises(ConfigError):
        evaluate(cfg, camera_subsets=[["nope"]])
    with pytest.raises(ConfigError):
        evaluate(cfg, camera_subsets=[[]])


def test_evaluate_rejects_a_subset_that_repeats_a_camera():
    # Labelled "2-cam", it would hold one camera.
    cfg = _noiseless_line_scenario(n_cameras=2)
    with pytest.raises(ConfigError, match="twice"):
        evaluate(cfg, camera_subsets=[["c0", "c0"]])


def test_evaluate_rejects_two_subsets_of_one_size():
    # Both would be labelled "1-cam" and their samples merged into one row.
    cfg = _noiseless_line_scenario(n_cameras=2)
    with pytest.raises(ConfigError, match="differ in size"):
        evaluate(cfg, camera_subsets=[["c0"], ["c1"]])


def test_evaluate_deterministic():
    cfg = walking_scenario(duration=3.0, n_cameras=2, pixel_sigma=2.0,
                           depth_sigma=0.02, joint_dropout=0.1)
    r1 = evaluate(cfg, camera_subsets=[["c0", "c1"]], k_values=(5,))
    r2 = evaluate(cfg, camera_subsets=[["c0", "c1"]], k_values=(5,))
    assert r1.to_csv() == r2.to_csv()


def test_evaluate_report_structure_and_rendering():
    cfg = walking_scenario(duration=3.0, n_cameras=2, pixel_sigma=2.0)
    report = evaluate(cfg, camera_subsets=[["c0"], ["c0", "c1"]], k_values=(5,))
    assert report.configs == ["1-cam", "2-cam"]
    assert report.methods == ["MAF_5", "ours"]
    csv = report.to_csv()
    header = csv.splitlines()[0]
    assert header == "config,method,joint,mean_px,std_px,n_samples,n_excluded"
    assert len(csv.splitlines()) == 1 + 2 * 2 * 12
    table = report.to_table()
    assert "r-shoulder" in table and "ours" in table
    agg = report.aggregate_mean("1-cam", "ours")
    assert np.isfinite(agg) and agg >= 0.0


def test_evaluate_seed_pooling_changes_counts():
    cfg = walking_scenario(duration=3.0, n_cameras=1, pixel_sigma=1.0)
    r1 = evaluate(cfg, camera_subsets=[["c0"]], k_values=())
    r2 = evaluate(cfg, camera_subsets=[["c0"]], k_values=(), seeds=[cfg.seed, cfg.seed + 1])
    j = LIMB_JOINTS[0]
    assert r2.cells[("1-cam", "ours", j)].n_samples > r1.cells[("1-cam", "ours", j)].n_samples


def test_table_flags_large_cells():
    report = EvalReport(
        configs=["1-cam"], methods=["ours"], joints=list(LIMB_JOINTS),
        cells={("1-cam", "ours", j): ReportCell(
            150.0 if j == LIMB_JOINTS[0] else 10.0, 1.0, 5, 0) for j in LIMB_JOINTS},
    )
    table = report.to_table()
    assert "150.0±1.0*" in table
    assert "10.0±1.0*" not in table
