"""The calls the benchmark (``perfbench/``) makes into skelfuse, on real data.

The benchmark is not part of this suite, so this test makes each of its
calls here: it rebuilds a detection set positionally with a shifted stamp,
writes and reads streams, runs ``track``, parses a snapshot track with
``Skeleton3D.from_dict`` and picks tracks by ``association.centroid`` the way
its scorer does, with ``math.dist`` skipping a NaN centroid.
"""

import json
import math

import numpy as np

from skelfuse import association, io
from skelfuse.cli import main
from skelfuse.model import CHEST, JOINT_COUNT, DetectionSet, Skeleton3D
from skelfuse.simulate import run_scenario
from skelfuse.tracker import PoseTracker

from conftest import walking_scenario


def test_benchmark_calls_work_on_a_simulated_stream(tmp_path):
    cfg = walking_scenario(duration=2.0, n_cameras=2)
    events, _ = run_scenario(cfg)
    shifted = [
        DetectionSet(e.detections.camera_id, e.detections.stamp + 4.0, e.detections.skeletons)
        for e in events
    ]
    assert [len(ds.skeletons) for ds in shifted] == [len(e.detections.skeletons) for e in events]
    assert sum(len(ds.skeletons) for ds in shifted) > 0
    empty = DetectionSet("c0", shifted[-1].stamp + 0.1, Skeleton3D.stack([]))
    sets = shifted + [empty]

    stream = tmp_path / "stream.jsonl"
    io.write_detections(stream, sets)
    io.write_calibration(tmp_path / "calibration.json", cfg.camera_models())
    assert io.read_detections(stream) == sets
    assert len(io.read_detections(stream)[-1].skeletons) == 0

    out = tmp_path / "out"
    assert main(["track", "--stream", str(stream), "--calib", str(tmp_path / "calibration.json"),
                 "--out", str(out)]) == 0
    record = json.loads((out / "snapshots.jsonl").read_text().splitlines()[-1])
    assert record["tracks"]
    tracks = [Skeleton3D.from_dict(track) for track in record["tracks"]]
    pose = tracks[0]
    assert pose.valid[CHEST] and np.isfinite(pose.joints[CHEST]).all()
    c = association.centroid(pose)
    assert c.shape == (3,) and np.array_equal(c, pose.joints[CHEST])

    # The scorer's nearest-centroid pick: a torso-less track is never chosen.
    torsoless = Skeleton3D.from_dict({"joints": [{"id": 0, "x": 0.0, "y": 0.0, "z": 1.0,
                                                  "valid": True}]})
    best, best_d = None, math.inf
    for s in [torsoless, *tracks]:
        d = math.dist(association.centroid(s), pose.joints[CHEST])
        if d < best_d:
            best, best_d = s, d
    assert best is pose

    tracker = PoseTracker()
    for ds in sets:
        tracker.ingest(ds)
    snap = tracker.snapshot(empty.stamp)
    assert len(snap.tracks) == len(record["tracks"]) == len(snap.track_ids)
    assert snap.tracks.joints.shape == (len(snap.tracks), JOINT_COUNT, 3)
