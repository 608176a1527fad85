"""Differential oracle: the table tracker against the frozen per-filter tracker.

A hypothesis state machine feeds the same generated detection sets to
``skelfuse.tracker.PoseTracker`` and to the reference tracker of
``tests/reference`` (one ``FilterState`` of Python floats per filter, as of
commit 060cd9b). Sets arrive in order, out of order within the stale
tolerance, stale, empty, with centroid-less skeletons, with new persons, and
after gaps longer than the age limit. After every step both trackers must
return equal events and bit-equal snapshots, and every table row, unconfirmed
ones included, must hold the reference track's id, hits, last-seen stamp and
started joints.
"""

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from reference import tracker as ref_tracker
from reference import ukf as ref_ukf
from skelfuse.model import CHEST, JOINT_COUNT, L_HIP, L_SHOULDER, NECK, R_HIP, R_SHOULDER
from skelfuse.model import DetectionSet, Skeleton3D
from skelfuse.tracker import CENTROID, PoseTracker, TrackerConfig
from skelfuse.ukf import NoiseConfig

# Persons walk at constant velocity from these chest positions (m, m/s); one
# of them is far enough from the others to birth its own track.
STARTS = np.array([[0.0, 0.0, 1.3], [1.2, 0.3, 1.3], [6.0, -4.0, 1.3]])
VELOCITIES = np.array([[0.8, 0.0, 0.0], [-0.5, 0.4, 0.0], [0.0, 0.0, 0.0]])
TORSO = (CHEST, NECK, R_SHOULDER, L_SHOULDER, R_HIP, L_HIP)
CAMERAS = ("c0", "c1", "c2")

skeleton_specs = st.tuples(
    st.integers(0, len(STARTS)),        # person; the last value is a stranger far away
    st.integers(0, 2**JOINT_COUNT - 1),  # joint validity bits
    st.booleans(),                       # drop every torso joint: centroid-less
    st.integers(0, 2**32 - 1),           # noise seed
)
set_specs = st.lists(skeleton_specs, max_size=4)


def _skeleton(stamp, spec) -> Skeleton3D:
    person, bits, torsoless, seed = spec
    rng = np.random.default_rng(seed)
    if person == len(STARTS):
        chest = rng.uniform(-20.0, 20.0, 3)
    else:
        chest = STARTS[person] + VELOCITIES[person] * stamp
    joints = chest + 0.3 * rng.standard_normal((JOINT_COUNT, 3))
    joints[CHEST] = chest + 0.02 * rng.standard_normal(3)
    valid = np.array([(bits >> j) & 1 for j in range(JOINT_COUNT)], dtype=bool)
    if torsoless:
        valid[list(TORSO)] = False
    return Skeleton3D(joints, valid)


def _event_tuples(events):
    return [(e.kind, type(e.track_id), e.track_id, repr(e.stamp), e.camera_id) for e in events]


def _snapshot_bytes(snap):
    """Everything a snapshot holds, exactly: ids, joint bytes, validity, trace reprs.

    A trace is None where its joint is invalid, as the reference writes it.
    """
    return (repr(snap.stamp), [
        (track_id, snap.tracks[row].joints.tobytes(), snap.tracks[row].valid.tobytes(),
         [repr(x if ok else None) for x, ok in zip(snap.cov_traces[row].tolist(),
                                                     snap.tracks.valid[row].tolist())])
        for row, track_id in enumerate(snap.track_ids.tolist())
    ])


def _reference_snapshot_bytes(snap):
    """``_snapshot_bytes`` of a reference snapshot, one ``TrackPose`` per track."""
    return (repr(snap.stamp), [
        (tp.track_id, tp.skeleton.joints.tobytes(), tp.skeleton.valid.tobytes(),
         [repr(x) for x in tp.cov_traces])
        for tp in snap.tracks
    ])


class TrackerPair(RuleBasedStateMachine):
    """The tracker under test and the reference, fed identical sets."""

    @initialize(max_age=st.sampled_from([0.3, 1.0]), min_hits=st.sampled_from([1, 3]),
                tolerance=st.sampled_from([0.1, 0.5]))
    def start(self, max_age, min_hits, tolerance):
        self.config = dict(max_track_age=max_age, min_hits_to_confirm=min_hits,
                           stale_tolerance=tolerance)
        self.tracker = PoseTracker(TrackerConfig(noise=NoiseConfig(), **self.config))
        self.reference = ref_tracker.PoseTracker(
            ref_tracker.TrackerConfig(noise=ref_ukf.NoiseConfig(), **self.config))
        # An empty first set fixes the newest stamp, so stale and late stamps
        # computed from it stay non-negative.
        self.latest = 2.0
        self._ingest(self.latest, [], CAMERAS[0])

    def _ingest(self, stamp, specs, camera):
        dets = DetectionSet(camera, stamp, Skeleton3D.stack([_skeleton(stamp, s) for s in specs]))
        events = self.tracker.ingest(dets)
        assert _event_tuples(events) == _event_tuples(self.reference.ingest(dets))
        assert (_snapshot_bytes(self.tracker.snapshot(stamp))
                == _reference_snapshot_bytes(self.reference.snapshot(stamp)))
        self.latest = max(self.latest, stamp)

    @rule(dt=st.floats(0.0, 0.2), specs=set_specs, camera=st.sampled_from(CAMERAS))
    def in_order(self, dt, specs, camera):
        self._ingest(self.latest + dt, specs, camera)

    @rule(lag=st.floats(0.0, 1.0), specs=set_specs, camera=st.sampled_from(CAMERAS))
    def out_of_order_within_tolerance(self, lag, specs, camera):
        self._ingest(self.latest - lag * self.config["stale_tolerance"], specs, camera)

    @rule(extra=st.floats(0.001, 1.0), specs=set_specs, camera=st.sampled_from(CAMERAS))
    def stale(self, extra, specs, camera):
        before = self.tracker.stale_rejections
        self._ingest(self.latest - self.config["stale_tolerance"] - extra, specs, camera)
        assert self.tracker.stale_rejections == before + 1

    @rule(extra=st.floats(0.001, 2.0), specs=set_specs, camera=st.sampled_from(CAMERAS))
    def gap_past_max_age(self, extra, specs, camera):
        self._ingest(self.latest + self.config["max_track_age"] + extra, specs, camera)

    @rule(offset=st.floats(-1.0, 1.0))
    def snapshot_elsewhere(self, offset):
        t = self.latest + offset
        assert _snapshot_bytes(self.tracker.snapshot(t)) == _reference_snapshot_bytes(
            self.reference.snapshot(t))

    @invariant()
    def same_counters(self):
        if hasattr(self, "tracker"):
            assert self.tracker.stale_rejections == self.reference.stale_rejections
            tracker, tracks = self.tracker, self.reference.tracks
            assert tracker.track_ids.tolist() == [trk.track_id for trk in tracks]
            assert tracker.hits.tolist() == [trk.hits for trk in tracks]
            # Every row, unconfirmed ones too: last seen when its centroid
            # filter last changed, and started where p > 0.
            assert tracker.filters.last_update[:, CENTROID].tolist() == [
                trk.last_seen for trk in tracks]
            assert (tracker.filters.p[:, :JOINT_COUNT] > 0).tolist() == [
                [f is not None for f in trk.joint_filters] for trk in tracks]


TrackerPair.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
test_tracker_matches_reference = TrackerPair.TestCase
