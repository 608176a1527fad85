"""Acceptance suite: the release gate, one test per criterion.

Every criterion pins its tolerance (and runtime budget, where one applies)
inside its own test. Run with ``pytest tests/test_acceptance.py -v -s`` to
see one pass line per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np

from skelfuse.association import build_cost_matrix, centroid, data_association, munkres
from skelfuse.cli import main
from skelfuse.evaluation import evaluate
from skelfuse.geometry import back_project, median_depth, project, world_to_camera
from skelfuse.lifting import lift_skeleton
from skelfuse.model import JOINT_COUNT, LIMB_JOINTS
from skelfuse.simulate import GroundTruth, load_scenario, bundled_scenario_path, render_detection, run_scenario
from skelfuse.tracker import PoseTracker, TrackerConfig
from skelfuse.ukf import NoiseConfig, init_filter, predict, update

from conftest import make_camera, make_camera_spec, sparse_skeleton, walking_scenario
from test_association import assert_partition, brute_force_min_cost, _brute_force_gated
from test_ukf import LinearKalman, full_cov


def _bundled(name):
    path = bundled_scenario_path(name)
    assert path is not None, f"bundled scenario {name} missing"
    return load_scenario(str(path))


# -----------------------------------------------------------------------------
# 1. The ukf module == an independent linear KF on the constant-velocity model
# -----------------------------------------------------------------------------

def test_criterion_1_ukf_linear_kf_equivalence():
    cfg = NoiseConfig()
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(100):
        z0 = rng.uniform(-3, 3, 3)
        s = init_filter(z0, 0.0, cfg)
        kf = LinearKalman(z0, 0.0, cfg)
        t = 0.0
        for _ in range(50):
            t += rng.uniform(0.005, 0.5)
            z = rng.uniform(-4, 4, 3)
            s = update(predict(s, t, cfg), z, cfg)
            kf.predict(t)
            kf.update(z)
            worst_mean = max(worst_mean, float(np.max(np.abs(s.mean - kf.x))))
            worst_cov = max(worst_cov, float(np.max(np.abs(full_cov(s) - kf.P))))
    elapsed = time.perf_counter() - t0
    assert worst_mean < 1e-9
    assert worst_cov < 1e-9
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: ukf==KF over 100x50 steps "
          f"(mean dev {worst_mean:.2e}, cov dev {worst_cov:.2e}, {elapsed:.2f}s)")


# -----------------------------------------------------------------------------
# 2. Munkres optimality against exhaustive permutations
# -----------------------------------------------------------------------------

def _pair_total(cost, mapping):
    return float(sum(cost[i, j] for i, j in sorted(mapping.items())))


def test_criterion_2_munkres_exhaustive_optimality():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    for trial in range(500):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 8))
        if trial % 2 == 0:
            cost = rng.integers(0, 100, size=(rows, cols)).astype(float)
        else:
            cost = rng.uniform(0.0, 50.0, size=(rows, cols))
        got = munkres(cost)
        assert len(got) == min(rows, cols)
        best, best_map = brute_force_min_cost(cost)
        assert _pair_total(cost, got) == _pair_total(cost, best_map)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: Munkres == brute force on 500 matrices up to 7x7 "
          f"({elapsed:.2f}s)")


# -----------------------------------------------------------------------------
# 3. Geometry round trips
# -----------------------------------------------------------------------------

def test_criterion_3_geometry_roundtrips():
    rng = np.random.default_rng(1003)
    cam = make_camera(fx=483.2, fy=529.7, cx=312.4, cy=247.1)
    pts = rng.uniform([-5, -5, 0.05], [5, 5, 12.0], size=(100_000, 3))
    projected = [project(p, cam) for p in pts]
    q = back_project([px for px, _ in projected], [d for _, d in projected], cam)
    worst = float(np.max(np.linalg.norm(q - pts, axis=1) / np.linalg.norm(pts, axis=1)))
    assert worst < 1e-12

    # lift -> project pixel round trip on simulator-rendered skeletons
    spec = make_camera_spec(pixel_sigma=3.0, depth_sigma=0.03, joint_dropout=0.15)
    scen = walking_scenario(duration=4.0)
    gt = GroundTruth(scen.persons, scen.duration)
    rng2 = np.random.default_rng(1033)
    worst_px = 0.0
    checked = 0
    for t in np.arange(0.0, 4.0, 0.25):
        rendered = render_detection(gt, spec, float(t), rng2)
        if rendered is None:
            continue
        for px2d, v2d, dm in zip(*rendered):
            s3d = lift_skeleton(px2d, v2d, dm, spec.camera)
            for j in range(JOINT_COUNT):
                if not s3d.valid[j]:
                    continue
                px, _ = project(world_to_camera(s3d.joints[j], spec.camera), spec.camera)
                err = math.hypot(px.x - px2d[j, 0], px.y - px2d[j, 1])
                worst_px = max(worst_px, err)
                checked += 1
    assert checked > 100
    assert worst_px < 0.5
    print(f"\nACCEPTANCE 3 PASS: project/back_project rel err {worst:.2e} over 1e5 pts; "
          f"lift/project {worst_px:.2e} px over {checked} rendered joints")


# -----------------------------------------------------------------------------
# 4. median_depth vs sort-based brute force
# -----------------------------------------------------------------------------

def test_criterion_4_median_depth_brute_force():
    from test_geometry import _brute_force_median

    rng = np.random.default_rng(1004)
    for _ in range(1000):
        h = int(rng.integers(3, 16))
        w = int(rng.integers(3, 16))
        vals = rng.uniform(0.05, 8.0, size=(h, w))
        vals[rng.random((h, w)) < 0.25] = np.nan
        vals[rng.random((h, w)) < 0.15] = 0.0
        dm = vals
        p = (float(rng.uniform(0, w - 1e-9)), float(rng.uniform(0, h - 1e-9)))
        r = float(rng.uniform(0.5, 5.0))
        assert median_depth(dm, p, r) == _brute_force_median(dm, p, r)
    print("\nACCEPTANCE 4 PASS: median_depth == sort-based oracle on 1000 neighborhoods")


# -----------------------------------------------------------------------------
# 5. Data association partition + gated optimality
# -----------------------------------------------------------------------------

def test_criterion_5_association_partition_and_gated_optimum():
    cfg = NoiseConfig()
    rng = np.random.default_rng(1005)
    from skelfuse.model import CHEST

    compared = 0
    for _ in range(1000):
        n_tracks = int(rng.integers(0, 6))
        n_dets = int(rng.integers(0, 6))
        filters = [init_filter(rng.uniform(-3, 3, 3), 0.0, cfg) for _ in range(n_tracks)]
        skels = []
        for _ in range(n_dets):
            if rng.random() < 0.1:
                skels.append(sparse_skeleton({0: (0.0, 0.0, 1.0)}))  # no centroid
            else:
                skels.append(sparse_skeleton({CHEST: tuple(rng.uniform(-3, 3, 3))}))
        stamp = float(rng.uniform(0, 0.4))
        # As the tracker does: drop centroid-less skeletons, predict each filter once.
        cents = [c for c in map(centroid, skels) if c is not None]
        predicted = [predict(f, stamp, cfg) for f in filters]
        eps = float(rng.uniform(0.5, 25.0))
        res = data_association(predicted, cents, eps, cfg)
        assert_partition(res, n_tracks, len(cents))

        if predicted and cents:
            cost = build_cost_matrix(predicted, cents, cfg)
            expect, unique = _brute_force_gated(cost, eps)
            if unique:
                assert tuple(sorted(res.matches)) == expect
                compared += 1
    assert compared > 300
    print(f"\nACCEPTANCE 5 PASS: partition invariant on 1000 configs; "
          f"gated optimum matched on {compared} unique-optimum cases")


# -----------------------------------------------------------------------------
# 6. Table-style ordinal reproduction
# -----------------------------------------------------------------------------

def test_criterion_6_ordinal_reproduction():
    cfg = _bundled("four_kinect_walk")
    spec0 = cfg.cameras[0]
    assert spec0.pixel_sigma == 3.0 and spec0.depth_sigma == 0.03
    assert spec0.joint_dropout == 0.15

    t0 = time.perf_counter()
    seeds = [cfg.seed + i for i in range(10)]
    report = evaluate(cfg, seeds=seeds, k_values=(30, 40))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0

    assert report.configs == ["1-cam", "2-cam", "4-cam"]
    # (a) ours beats MAF_30 and MAF_40 in every configuration (joint aggregate)
    for config in report.configs:
        ours = report.aggregate_mean(config, "ours")
        for maf in ("MAF_30", "MAF_40"):
            baseline = report.aggregate_mean(config, maf)
            assert ours < baseline, f"{config}: ours {ours:.2f} !< {maf} {baseline:.2f}"

    # (b) 4-cam < 2-cam < 1-cam on at least 9 of the 12 joints
    ordered = 0
    for j in LIMB_JOINTS:
        m1 = report.cells[("1-cam", "ours", j)].mean_px
        m2 = report.cells[("2-cam", "ours", j)].mean_px
        m4 = report.cells[("4-cam", "ours", j)].mean_px
        if m4 < m2 < m1:
            ordered += 1
    assert ordered >= 9, f"camera-count ordering held on only {ordered}/12 joints"
    print(f"\nACCEPTANCE 6 PASS: ours < MAF_30/MAF_40 in all configs; "
          f"4<2<1 cam ordering on {ordered}/12 joints ({elapsed:.1f}s, 10 seeds)")


# -----------------------------------------------------------------------------
# 7. Multi-person track integrity
# -----------------------------------------------------------------------------

def _track_integrity_run(cfg, n_persons, warmup=1.0, snap_hz=10.0):
    """Returns (fraction of exact-N snapshots, stale rejections, id-reuse free)."""
    exact = 0
    total = 0
    stale = 0
    reuse_free = True
    for i in range(10):
        scenario = replace(cfg, seed=cfg.seed + i)
        events, _ = run_scenario(scenario)
        tracker = PoseTracker(TrackerConfig())
        seen_ids = set()
        ei = 0
        n_samples = int(cfg.duration * snap_hz)
        for k in range(n_samples):
            t_s = k / snap_hz
            while ei < len(events) and events[ei].arrival <= t_s:
                for ev in tracker.ingest(events[ei].detections):
                    if ev.kind == "created":
                        if ev.track_id in seen_ids:
                            reuse_free = False
                        seen_ids.add(ev.track_id)
                ei += 1
            if t_s < warmup:
                continue
            total += 1
            exact += (len(tracker.snapshot(t_s).tracks) == n_persons)
        stale += tracker.stale_rejections
    return exact / total, stale, reuse_free


def test_criterion_7_multi_person_track_integrity():
    cfg = _bundled("three_person")
    frac, stale, reuse_free = _track_integrity_run(cfg, n_persons=3)
    assert frac >= 0.95, f"exact-3 fraction {frac:.3f} < 0.95"
    assert reuse_free
    print(f"\nACCEPTANCE 7 PASS: exactly-3-confirmed in {frac:.1%} of snapshots "
          f"across 10 seeds; no id reuse")


# -----------------------------------------------------------------------------
# 8. Asynchrony robustness under latency jitter
# -----------------------------------------------------------------------------

def test_criterion_8_asynchrony_robustness():
    cfg = _bundled("three_person_jitter")
    assert all(spec.latency_jitter[1] <= 0.1 for spec in cfg.cameras)
    # jitter must genuinely reorder capture stamps across cameras
    events, _ = run_scenario(cfg)
    running_max, inversions = -1.0, 0
    for e in events:
        if e.detections.stamp < running_max:
            inversions += 1
        running_max = max(running_max, e.detections.stamp)
    assert inversions > 0, "scenario produced no out-of-order capture stamps"

    frac, stale, reuse_free = _track_integrity_run(cfg, n_persons=3)
    assert frac >= 0.95, f"exact-3 fraction {frac:.3f} < 0.95 under jitter"
    assert reuse_free
    assert stale == 0, f"{stale} ingests rejected for staleness under 0.5s tolerance"
    print(f"\nACCEPTANCE 8 PASS: {inversions} stamp inversions; exact-3 in {frac:.1%} "
          f"of snapshots; zero staleness rejections")


# -----------------------------------------------------------------------------
# 9. Pipeline determinism
# -----------------------------------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    outs = []
    for run in ("a", "b"):
        base = tmp_path / run
        sim = base / "sim"
        trk = base / "trk"
        ev = base / "eval"
        assert main(["simulate", "--scenario", "four_kinect_walk", "--out", str(sim)]) == 0
        assert main(["track", "--stream", str(sim / "stream.jsonl"),
                     "--calib", str(sim / "calibration.json"), "--out", str(trk)]) == 0
        assert main(["evaluate", "--scenario", "four_kinect_walk", "--out", str(ev)]) == 0
        outs.append({
            "stream": (sim / "stream.jsonl").read_bytes(),
            "truth": (sim / "truth.jsonl").read_bytes(),
            "calib": (sim / "calibration.json").read_bytes(),
            "events": (trk / "events.jsonl").read_bytes(),
            "snapshots": (trk / "snapshots.jsonl").read_bytes(),
            "csv": (ev / "report.csv").read_bytes(),
            "table": (ev / "report.txt").read_bytes(),
        })
    for key in outs[0]:
        assert outs[0][key] == outs[1][key], f"{key} differs between runs"
    print("\nACCEPTANCE 9 PASS: simulate->track->evaluate byte-identical across two runs")
