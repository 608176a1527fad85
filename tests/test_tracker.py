"""Tests for asynchronous detection ingestion and track lifecycle."""

import numpy as np
import pytest

from skelfuse import ukf
from skelfuse.model import CHEST, DetectionSet, Skeleton3D
from skelfuse.tracker import CENTROID, CENTROID_MEAS_SIGMA, PoseTracker, TrackerConfig
from skelfuse.ukf import NoiseConfig

from conftest import full_skeleton, sparse_skeleton, walking_scenario
from skelfuse.simulate import run_scenario


def _dets(camera_id, stamp, skeletons):
    return DetectionSet(camera_id, stamp, Skeleton3D.stack(skeletons))


def test_first_detection_creates_track():
    tracker = PoseTracker()
    events = tracker.ingest(_dets("c0", 0.0, [full_skeleton()]))
    assert [e.kind for e in events] == ["created"]
    assert tracker.track_ids.tolist() == [1]
    assert tracker.hits.tolist() == [1]


def test_near_detection_updates_not_creates():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c1", 0.05, [sparse_skeleton({CHEST: (0.02, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated"]
    assert len(tracker.track_ids) == 1
    assert tracker.hits.tolist() == [2]


def test_far_detection_creates_second_track():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c0", 0.1, [
        sparse_skeleton({CHEST: (0.0, 0.0, 1.3)}),
        sparse_skeleton({CHEST: (4.0, 4.0, 1.3)}),
    ]))
    kinds = sorted(e.kind for e in events)
    assert kinds == ["created", "updated"]
    assert len(tracker.track_ids) == 2


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
    assert len(tracker.track_ids) == 0
    assert tracker.filters.mean.shape == (0, 16, 6)


def test_stale_detection_rejected_and_counted():
    tracker = PoseTracker(TrackerConfig(stale_tolerance=0.5))
    tracker.ingest(_dets("c0", 2.0, [full_skeleton()]))
    events = tracker.ingest(_dets("c1", 1.2, [full_skeleton()]))
    assert events == []
    assert tracker.stale_rejections == 1
    assert len(tracker.track_ids) == 1  # nothing changed


def test_stale_within_tolerance_applied_with_clamped_dt():
    tracker = PoseTracker(TrackerConfig(stale_tolerance=0.5))
    tracker.ingest(_dets("c0", 1.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    events = tracker.ingest(_dets("c1", 0.8, [sparse_skeleton({CHEST: (0.01, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated"]
    assert tracker.stale_rejections == 0
    # the filter never rewinds
    assert tracker.filters.last_update[0, CENTROID] == 1.0


def test_invalid_joint_is_predict_only():
    cfgn = NoiseConfig()
    tracker = PoseTracker(TrackerConfig(noise=cfgn))
    s0 = sparse_skeleton({CHEST: (0.0, 0.0, 1.3), 4: (0.5, 0.0, 1.0)})
    tracker.ingest(_dets("c0", 0.0, [s0]))
    mean_before = tracker.filters.mean[0, 4].copy()

    # matched update whose skeleton is missing joint 4: mean must not move
    s1 = sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})
    tracker.ingest(_dets("c0", 0.1, [s1]))
    f4 = tracker.filters[0, 4]
    assert f4.last_update == 0.1
    assert np.allclose(f4.mean[:3], mean_before[:3], atol=1e-12)  # zero velocity holds it


def test_lazy_joint_filter_initialization():
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})]))
    assert tracker.filters.p[0, 7] == 0
    tracker.ingest(_dets("c0", 0.1, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3),
                                                      7: (0.3, 0.1, 1.1)})]))
    assert tracker.filters.p[0, 7] > 0
    assert tracker.filters.last_update[0, 7] == 0.1


def test_centroidless_detection_never_births():
    tracker = PoseTracker()
    events = tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({4: (1.0, 1.0, 1.0)})]))
    assert events == []
    assert len(tracker.track_ids) == 0


def _filter_bytes(tracker, row):
    """The bytes of every started filter of one table row."""
    f = tracker.filters[row][tracker.filters.p[row] > 0]
    return [a.tobytes() for a in (f.mean, f.p, f.c, f.v, f.last_update)]


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
    assert _filter_bytes(both, 0) == _filter_bytes(alone, 0)


def _row_keys(state):
    """One hashable key per filter row: the bytes of its mean and covariance numbers."""
    return [(m.tobytes(), p, c, v, t) for m, p, c, v, t in zip(
        state.mean, state.p.tolist(), state.c.tolist(), state.v.tolist(),
        state.last_update.tolist())]


def test_one_predict_call_covers_the_centroid_column_once(monkeypatch):
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [sparse_skeleton({CHEST: (0.0, 0.0, 1.3)}),
                                     sparse_skeleton({CHEST: (3.0, 0.0, 1.3)})]))
    centroid_rows = _row_keys(tracker.filters[:, CENTROID])
    calls = []
    real_predict = ukf.predict

    def counting_predict(state, t, cfg):
        calls.append(_row_keys(state))
        return real_predict(state, t, cfg)

    monkeypatch.setattr(ukf, "predict", counting_predict)
    events = tracker.ingest(_dets("c1", 0.1, [sparse_skeleton({CHEST: (0.01, 0.0, 1.3)}),
                                              sparse_skeleton({CHEST: (3.01, 0.0, 1.3)})]))
    assert [e.kind for e in events] == ["updated", "updated"]
    covering = [keys for keys in calls if set(keys) & set(centroid_rows)]
    assert covering == [centroid_rows]


def test_one_update_and_one_init_call_fuse_the_centroid_with_the_joints(monkeypatch):
    # One set both matches a track with all joints seen and births a track: the
    # centroid column rides in the joints' update call and in their init call.
    tracker = PoseTracker()
    tracker.ingest(_dets("c0", 0.0, [full_skeleton()]))
    calls = []
    for name in ("update", "init_filter"):
        def spy(first, second, r, real=getattr(ukf, name), name=name):
            calls.append((name, first if name == "init_filter" else second, r))
            return real(first, second, r)
        monkeypatch.setattr(ukf, name, spy)
    predicted_rows = []
    real_predict = ukf.predict
    monkeypatch.setattr(ukf, "predict", lambda state, t, cfg: (
        predicted_rows.append(state.p.size) or real_predict(state, t, cfg)))
    matched = full_skeleton((0.02, 0.0, 1.0))
    newborn = sparse_skeleton({CHEST: (4.0, 4.0, 1.3)})
    events = tracker.ingest(_dets("c1", 0.1, [matched, newborn]))
    assert sorted(e.kind for e in events) == ["created", "updated"]
    # Association predicts the track's centroid; fusion predicts only its 15 joints.
    assert predicted_rows == [1, 15]
    assert [name for name, _, _ in calls] == ["update", "init_filter"]
    # The matched row's 15 joints and centroid; the newborn's chest and centroid.
    assert [len(z) for _, z, _ in calls] == [16, 2]
    for (_, z, r), centroid in zip(calls, (matched.joints[CHEST], newborn.joints[CHEST])):
        is_centroid = np.asarray(r) == CENTROID_MEAS_SIGMA**2
        assert np.array_equal(z[is_centroid], [centroid])


def test_snapshot_empty_for_fresh_tracker():
    tracker = PoseTracker()
    snap = tracker.snapshot(0.0)
    assert len(snap.tracks) == len(snap.track_ids) == len(snap.cov_traces) == 0


def test_snapshot_confirmation_gate():
    tracker = PoseTracker(TrackerConfig(min_hits_to_confirm=3))
    s = sparse_skeleton({CHEST: (0.0, 0.0, 1.3)})
    tracker.ingest(_dets("c0", 0.0, [s]))
    assert len(tracker.snapshot(0.0).tracks) == 0
    tracker.ingest(_dets("c0", 0.1, [s]))
    assert len(tracker.snapshot(0.1).tracks) == 0
    tracker.ingest(_dets("c0", 0.2, [s]))
    snap = tracker.snapshot(0.2)
    assert len(snap.tracks) == 1
    assert snap.tracks.valid[0, CHEST]


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
    dx = snap_later.tracks.joints[0, CHEST, 0] - snap_now.tracks.joints[0, CHEST, 0]
    assert abs(dx - 0.2) < 0.02
    # read-only: tracker state untouched
    assert tracker.filters.last_update[0, CENTROID] == t


def test_snapshot_at_last_seen_matches_filter_mean():
    tracker = PoseTracker(TrackerConfig(min_hits_to_confirm=1))
    s = sparse_skeleton({CHEST: (0.5, -0.5, 1.2)})
    tracker.ingest(_dets("c0", 1.0, [s]))
    snap = tracker.snapshot(1.0)
    assert np.array_equal(
        snap.tracks.joints[0, CHEST], tracker.filters[0, CHEST].position()
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
        for row in range(len(tracker.track_ids)):
            history.extend(_filter_bytes(tracker, row))
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
    assert len(tracker.track_ids) == 1
    err = np.linalg.norm(tracker.filters[0, CHEST].position() - target)
    assert err < 0.05
