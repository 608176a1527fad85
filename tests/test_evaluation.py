"""Tests for reprojection error, the MAF baseline, and the report protocol."""

import hashlib

import numpy as np
import pytest

from skelfuse.errors import BehindCameraError, ConfigError
from skelfuse.evaluation import (
    EvalReport,
    MovingAverage,
    ReportCell,
    _nearest_rows,
    evaluate,
    reprojection_error,
)
from skelfuse.model import JOINT_COUNT, LIMB_JOINTS
from skelfuse.simulate import PersonSpec, look_at_extrinsic, run_scenario
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


# --- MovingAverage -------------------------------------------------------------

def _maf_means(values, k, joint=0):
    """Joint ``joint``'s MAF_k estimate after each pushed frame; a None value is missing.

    Estimates are x coordinates, None while the joint was never observed.
    """
    maf = MovingAverage(k, 1)
    out = []
    for v in values:
        skel = sparse_skeleton({} if v is None else {joint: (v, 0.0, 0.0)})
        maf.push(skel.joints[None], skel.valid[None])
        est = maf.means(k)[0, joint]
        out.append(None if np.isnan(est).all() else est[0])
    return out


def test_maf_constant_input_identity():
    for est in _maf_means([2.0] * 8, 4):
        assert est == pytest.approx(2.0)


def test_maf_k1_is_identity():
    values = [1.0, 5.0, -2.0, 0.5]
    assert _maf_means(values, 1) == values


def test_maf_step_response_oracle():
    # Step 0 -> 1 at frame 10; at frame 12 the last 4 samples are {0,1,1,1}.
    means = _maf_means([0.0] * 10 + [1.0] * 5, 4)
    assert means[12] == pytest.approx(0.75)
    assert means[9] == pytest.approx(0.0)
    assert means[10] == pytest.approx(0.25)


def test_maf_skips_missing_not_zero_fills():
    means = _maf_means([2.0, None, None, 4.0], 2)
    assert means[0] == pytest.approx(2.0)
    assert means[1] == pytest.approx(2.0)  # holds last window
    assert means[3] == pytest.approx(3.0)  # mean of {2, 4}


def test_maf_never_observed_joint_stays_missing():
    assert _maf_means([None, None], 3) == [None, None]


def test_maf_window_shorter_history_uses_what_exists():
    assert _maf_means([1.0, 3.0], 30)[1] == pytest.approx(2.0)


def test_maf_per_joint_independence():
    maf = MovingAverage(2, 1)
    for skel in (sparse_skeleton({0: (1.0, 0, 0), 5: (10.0, 0, 0)}),
                 sparse_skeleton({0: (3.0, 0, 0)})):
        maf.push(skel.joints[None], skel.valid[None])
    assert maf.means(2)[0, 0][0] == pytest.approx(2.0)
    assert maf.means(2)[0, 5][0] == pytest.approx(10.0)


def test_maf_means_equal_the_last_k_observations_bit_for_bit():
    # Many times the window's size, so the buffer moves its rows back often.
    rng = np.random.default_rng(8)
    maf = MovingAverage(7, 1)
    seen = [[] for _ in range(JOINT_COUNT)]
    for _ in range(60):
        joints = rng.normal(size=(JOINT_COUNT, 3)) * 10.0 ** rng.integers(-3, 4)
        valid = rng.random(JOINT_COUNT) < 0.7
        maf.push(joints[None], valid[None])
        for j in np.flatnonzero(valid):
            seen[j].append(joints[j])
        for j in range(JOINT_COUNT):
            for k in (1, 3, 7):
                got = maf.means(k)[0, j]
                if not seen[j]:
                    assert np.isnan(got).all()
                else:
                    assert got.tobytes() == np.mean(seen[j][-k:], axis=0).tobytes()


@pytest.mark.parametrize("size", [1, 7, 40])
def test_maf_means_over_persons_equal_the_last_k_observations_bit_for_bit(size):
    # Several persons, each joint observed on its own schedule, over many
    # times the window's size; a k above the size reads the whole window.
    rng = np.random.default_rng(size)
    persons = 4
    maf = MovingAverage(size, persons)
    seen = [[[] for _ in range(JOINT_COUNT)] for _ in range(persons)]
    k_values = sorted({1, 3, size, size + 5})
    for _ in range(3 * size + 20):
        joints = rng.normal(size=(persons, JOINT_COUNT, 3)) * 10.0 ** rng.integers(-3, 4)
        valid = rng.random((persons, JOINT_COUNT)) < rng.random()
        maf.push(joints, valid)
        for p, j in zip(*np.nonzero(valid)):
            seen[p][j].append(joints[p, j])
        for k in k_values:
            got = maf.means(k)
            for p in range(persons):
                for j in range(JOINT_COUNT):
                    if not seen[p][j]:
                        assert np.isnan(got[p, j]).all()
                    else:
                        last = seen[p][j][-min(k, size):]
                        assert got[p, j].tobytes() == np.mean(last, axis=0).tobytes()


def test_maf_window_is_sized_by_the_stream_not_by_k():
    # A window of 10**13 slots would need petabytes; it holds one slot per
    # set, since a joint gains at most one observation per set.
    cfg = walking_scenario(duration=1.5, n_cameras=1, pixel_sigma=1.0)
    n_sets = len(run_scenario(cfg)[0])
    huge = evaluate(cfg, k_values=(10**13,))
    whole = evaluate(cfg, k_values=(n_sets,))
    for (config, method, j), cell in whole.cells.items():
        if method.startswith("MAF_"):
            method = f"MAF_{10**13}"
        assert huge.cells[(config, method, j)] == cell
    assert any(c.n_samples for (_, m, _), c in huge.cells.items() if m.startswith("MAF_"))


def test_maf_rejects_bad_window():
    cfg = walking_scenario(duration=1.5, n_cameras=1)
    with pytest.raises(ConfigError, match="MAF window sizes must be >= 1"):
        evaluate(cfg, k_values=(0,))


# --- oracle association ---------------------------------------------------------

def _nearest_row(centroids, point):
    """The per-point loop ``_nearest_rows`` replaced: first nearest row, never NaN, or None."""
    best, best_d = None, np.inf
    for row, c in enumerate(centroids):
        d = float(np.linalg.norm(c - point))
        if d < best_d:
            best, best_d = row, d
    return best


def test_nearest_rows_equal_the_per_point_loop():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n_rows = int(rng.integers(0, 7))
        centroids = rng.normal(size=(n_rows, 3)) * 10.0 ** rng.integers(-2, 3)
        if n_rows > 1 and trial % 3 == 0:  # exact duplicates: the lower row wins
            centroids[rng.integers(1, n_rows)] = centroids[0]
        if n_rows and trial % 4 == 0:  # NaN rows are never chosen
            centroids[rng.random(n_rows) < 0.4] = np.nan
        points = rng.normal(size=(int(rng.integers(0, 5)), 3))
        if n_rows and trial % 5 == 0:
            points[:1] = centroids[:1]
        got = _nearest_rows(centroids, points)
        assert got.shape == (len(points),)
        want = [_nearest_row(centroids, q) for q in points]
        assert got.tolist() == [-1 if w is None else w for w in want]


def test_nearest_rows_ties_nan_and_empty():
    centroids = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0]])
    points = np.zeros((2, 3))
    assert _nearest_rows(centroids, points).tolist() == [1, 1]
    assert _nearest_rows(np.full((3, 3), np.nan), points).tolist() == [-1, -1]
    assert _nearest_rows(np.zeros((0, 3)), points).tolist() == [-1, -1]
    assert _nearest_rows(centroids, np.zeros((0, 3))).shape == (0,)


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


# A person walks from in front of the reference camera c0 to behind it, so
# both branches of the scoring show: excluded samples and scored ones.
PIN_PERSONS = (
    PersonSpec("p0", waypoints=np.array([[0.0, -1.0, -0.5], [3.0, 1.0, 0.5]])),
    PersonSpec("p1", waypoints=np.array([[0.0, 1.0, 2.5], [3.0, 3.0, 6.0]])),
)
REPORT_SHA256 = "2d4ad83c17eff192487ca2fef82c1018ef3ca8f497fe560a158b31cb86989c7f"


def test_evaluate_report_bytes_pinned():
    cfg = walking_scenario(duration=3.0, n_cameras=2, persons=PIN_PERSONS, pixel_sigma=2.0,
                           depth_sigma=0.02, joint_dropout=0.1)
    report = evaluate(cfg, camera_subsets=[["c0"], ["c0", "c1"]], k_values=(1, 5),
                      seeds=[cfg.seed, cfg.seed + 1])
    cells = report.cells
    assert any(c.n_excluded > 0 for c in cells.values())
    assert any(c.n_samples > 0 for (_, m, _), c in cells.items() if m.startswith("MAF_"))
    text = report.to_csv() + report.to_table()
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256
