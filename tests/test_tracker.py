"""Tests for asynchronous detection ingestion and track lifecycle."""

import numpy as np
import pytest

from skelfuse import ukf
from skelfuse.model import CHEST, DetectionSet
from skelfuse.tracker import PoseTracker, TrackerConfig
from skelfuse.ukf import NoiseConfig

from conftest import full_skeleton, sparse_skeleton, walking_scenario
from skelfuse.simulate import run_scenario


def _dets(camera_id, stamp, skeletons):
    return DetectionSet(camera_id, stamp, tuple(skeletons))


def test_first_detection_creates_track():
    tracker = PoseTracker()
    events = tracker.ingest(_dets("c0", 0.0, [full_skeleton()]))
    assert [e.kind for e in events] == ["created"]
    assert len(tracker.tracks) == 1
    assert tracker.tracks[0].hits == 1


def test_near_detection_updates_not_creates():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c1", 0.05, [sparse_skeleton({CHEST: (0.02, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated"]
    assert len(tracker.tracks) == 1
    assert tracker.tracks[0].hits == 2


def test_far_detection_creates_second_track():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c0", 0.1, [
        sparse_skeleton({CHEST: (0.0, 0.0, 1.3)}),
        sparse_skeleton({CHEST: (4.0, 4.0, 1.3)}),
    ]))
    kinds = sorted(e.kind for e in events)
    assert kinds == ["created", "updated"]
    assert len(tracker.tracks) == 2


def test_track_ids_never_reused():
    tracker = PoseTracker(TrackerConfig(max_track_age=0.2))
    seen = set()
    t = 0.0
    for cycle in range(5):
        ev = tracker.ingest(_dets("c0", t, [sparse_skeleton({CHEST: (cycle * 3.0, 0.0, 1.3)})]))
        created = [e.track_id for e in ev if e.kind == "created"]
        assert len(created) == 1
        for tid in created:
            assert tid not in seen
            seen.add(tid)
        # an empty frame past the age limit retires the current track
        t += 0.5
        retired = [e.kind for e in tracker.ingest(_dets("c0", t, []))]
        assert retired == ["retired"]
        t += 0.5
    assert len(seen) == 5


def test_retirement_after_max_age():
    tracker = PoseTracker(TrackerConfig(max_track_age=0.5))
    tracker.ingest(_dets("c0", 0.0, [full_skeleton()]))
    # keep the scene alive with an empty detection set past the age limit
    events = tracker.ingest(_dets("c0", 0.6, []))
    assert [e.kind for e in events] == ["retired"]
    assert tracker.tracks == []


def test_stale_detection_rejected_and_counted():
    tracker = PoseTracker(TrackerConfig(stale_tolerance=0.5))
    tracker.ingest(_dets("c0", 2.0, [full_skeleton()]))
    events = tracker.ingest(_dets("c1", 1.2, [full_skeleton()]))
    assert events == []
    assert tracker.stale_rejections == 1
    assert len(tracker.tracks) == 1  # nothing changed


def test_stale_within_tolerance_applied_with_clamped_dt():
    tracker = PoseTracker(TrackerConfig(stale_tolerance=0.5))
    tracker.ingest(_dets("c0", 1.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c1", 0.8, [sparse_skeleton({CHEST: (0.01, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated"]
    assert tracker.stale_rejections == 0
    # the filter never rewinds
    assert tracker.tracks[0].centroid_filter.last_update == 1.0


def test_invalid_joint_is_predict_only():
    cfgn = NoiseConfig()
    tracker = PoseTracker(TrackerConfig(noise=cfgn))
    s0 = sparse_skeleton({CHEST: (0.0, 0.0, 1.3), 4: (0.5, 0.0, 1.0)})
    tracker.ingest(_dets("c0", 0.0, [s0]))
    track = tracker.tracks[0]
    mean_before = track.joint_filters[4].mean.copy()

    # matched update whose skeleton is missing joint 4: mean must not move
    s1 = sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})
    tracker.ingest(_dets("c0", 0.1, [s1]))
    f4 = track.joint_filters[4]
    assert f4.last_update == 0.1
    assert np.allclose(f4.mean[:3], mean_before[:3], atol=1e-12)  # zero velocity holds it


def test_lazy_joint_filter_initialization():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    track = tracker.tracks[0]
    assert track.joint_filters[7] is None
    tracker.ingest(_dets("c0", 0.1, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3),
                                                      7: (0.3, 0.1, 1.1)})]))
    assert track.joint_filters[7] is not None
    assert track.joint_filters[7].last_update == 0.1


def test_centroidless_detection_never_births():
    tracker = PoseTracker()
    events = tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({4: (1.0, 1.0, 1.0)})]))
    assert events == []
    assert tracker.tracks == []


def _filter_bytes(track):
    filters = [track.centroid_filter, *(f for f in track.joint_filters if f is not None)]
    return [(f.mean.tobytes(), np.array([f.p, f.c, f.v]).tobytes(), f.last_update) for f in filters]


@pytest.mark.parametrize("extra, births", [
    (sparse_skeleton({4: (1.0, 1.0, 1.0)}), 0),
    # A finite centroid whose squared Mahalanobis cost overflows to inf.
    (sparse_skeleton({CHEST: (1e200, 0.0, 1.3)}), 1),
], ids=["centroid-less", "chest-at-1e200m"])
def test_unmatchable_detection_leaves_match_bit_identical(extra, births):
    def run(skeletons):
        tracker = PoseTracker()
        tracker.ingest(_dets("c0", 0.0, [full_skeleton()]))
        return tracker, tracker.ingest(_dets("c1", 0.1, skeletons))

    alone, alone_events = run([full_skeleton(base=(0.02, 0.0, 1.0))])
    both, both_events = run([extra, full_skeleton(base=(0.02, 0.0, 1.0))])
    assert [e.kind for e in alone_events] == ["updated"]
    assert both_events[:1] == alone_events
    assert [e.kind for e in both_events[1:]] == ["created"] * births
    assert _filter_bytes(both.tracks[0]) == _filter_bytes(alone.tracks[0])


def test_ingest_predicts_each_centroid_filter_once(monkeypatch):
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)}),
                                     sparse_skeleton({CHEST: (3.0, 0.0, 1.3)})]))
    centroid_filters = [trk.centroid_filter for trk in tracker.tracks]
    predicted = []
    real_predict = ukf.predict

    def counting_predict(state, t, cfg):
        predicted.append(state)
        return real_predict(state, t, cfg)

    monkeypatch.setattr(ukf, "predict", counting_predict)
    events = tracker.ingest(_dets("c1", 0.1, [sparse_skeleton({CHEST: (0.01, 0.0, 1.3)}),
                                              sparse_skeleton({CHEST: (3.01, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated", "updated"]
    assert [sum(s is f for s in predicted) for f in centroid_filters] == [1, 1]


def test_snapshot_empty_for_fresh_tracker():
    tracker = PoseTracker()
    snap = tracker.snapshot(0.0)
    assert snap.tracks == ()


def test_snapshot_confirmation_gate():
    tracker = PoseTracker(TrackerConfig(min_hits_to_confirm=3))
    s = sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})
    tracker.ingest(_dets("c0", 0.0, [s]))
    assert tracker.snapshot(0.0).tracks == ()
    tracker.ingest(_dets("c0", 0.1, [s]))
    assert tracker.snapshot(0.1).tracks == ()
    tracker.ingest(_dets("c0", 0.2, [s]))
    snap = tracker.snapshot(0.2)
    assert len(snap.tracks) == 1
    assert snap.tracks[0].skeleton.valid[CHEST]


def test_snapshot_extrapolates_constant_velocity():
    tracker = PoseTracker(TrackerConfig(min_hits_to_confirm=1))
    # feed a joint moving at 1 m/s in x until the filter locks the velocity
    t = 0.0
    for k in range(40):
        t = k * 0.1
        s = sparse_skeleton({CHEST: (t * 1.0, 0.0, 1.3)})
        tracker.ingest(_dets("c0", t, [s]))
    snap_now = tracker.snapshot(t)
    snap_later = tracker.snapshot(t + 0.2)
    dx = snap_later.tracks[0].skeleton.joints[CHEST][0] - snap_now.tracks[0].skeleton.joints[CHEST][0]
    assert abs(dx - 0.2) < 0.02
    # read-only: tracker state untouched
    assert tracker.tracks[0].centroid_filter.last_update == t


def test_snapshot_at_last_seen_matches_filter_mean():
    tracker = PoseTracker(TrackerConfig(min_hits_to_confirm=1))
    s = sparse_skeleton({CHEST: (0.5, -0.5, 1.2)})
    tracker.ingest(_dets("c0", 1.0, [s]))
    snap = tracker.snapshot(1.0)
    track = tracker.tracks[0]
    assert np.array_equal(
        snap.tracks[0].skeleton.joints[CHEST], track.joint_filters[CHEST].position()
    )


def test_deterministic_replay_bit_identical():
    cfg = walking_scenario(seed=5, duration=2.0, n_cameras=2,
                           pixel_sigma=2.0, depth_sigma=0.02, joint_dropout=0.1)
    events, _ = run_scenario(cfg)

    def run():
        tracker = PoseTracker()
        history = []
        for e in events:
            tracker.ingest(e.detections)
        for trk in tracker.tracks:
            history.append(trk.centroid_filter.mean.tobytes())
            history.append(np.array([trk.centroid_filter.p, trk.centroid_filter.c,
                                     trk.centroid_filter.v]).tobytes())
            for f in trk.joint_filters:
                if f is not None:
                    history.append(f.mean.tobytes())
        return b"".join(history)

    assert run() == run()


def test_two_alternating_cameras_single_static_person():
    # Two cameras alternately observing one static person: exactly one track,
    # converging to the true position within the measurement sigma.
    tracker = PoseTracker()
    target = np.array([0.3, -0.2, 1.3])
    rng = np.random.default_rng(71)
    t = 0.0
    for k in range(60):
        t = k * 0.05
        cam = "c0" if k % 2 == 0 else "c1"
        z = target + rng.normal(0, 0.02, 3)
        tracker.ingest(_dets(cam, t, [sparse_skeleton({CHEST: tuple(z)})]))
    assert len(tracker.tracks) == 1
    err = np.linalg.norm(tracker.tracks[0].joint_filters[CHEST].position() - target)
    assert err < 0.05
