"""Master-node fusion: asynchronous detection ingestion and track lifecycle.

The tracker is a single logical writer: detection sets are ingested in
arrival order (cross-camera capture stamps may interleave out of order), each
one is associated against the live tracks, matched tracks update their
per-joint and centroid filters, unmatched detections birth tracks, and tracks
unseen for longer than the age limit are retired. Stale detections within a
small tolerance are applied with their filter time clamped (dt = 0); older
ones are dropped with a logged staleness error and counted.

Track ids are never reused within a tracker instance. Identical ingest
sequences produce bit-identical track histories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import association, ukf
from .errors import ConfigError
from .model import JOINT_COUNT, DetectionSet, Skeleton3D, Timestamp
from .ukf import FilterState, NoiseConfig

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrackerConfig:
    """Gating, noise, and lifecycle knobs for the fusion tracker.

    ``min_hits_to_confirm`` gates snapshot output only; raw tracks take part
    in association from birth. ``stale_tolerance`` bounds how far behind the
    newest processed stamp a detection may lag before it is dropped.
    """

    gating_eps: float = association.DEFAULT_GATE
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    max_track_age: float = 1.0
    min_hits_to_confirm: int = 3
    stale_tolerance: float = 0.5

    def __post_init__(self):
        if not self.gating_eps > 0:
            raise ConfigError("gating_eps must be positive")
        if not self.max_track_age > 0:
            raise ConfigError("max_track_age must be positive")
        if not self.stale_tolerance >= 0:
            raise ConfigError("stale_tolerance must be non-negative")


@dataclass
class Track:
    """Persistent person identity: one filter per joint plus a centroid filter.

    ``joint_filters`` entries stay None until the joint's first valid
    measurement (lazy initialization).
    """

    track_id: int
    centroid_filter: FilterState
    joint_filters: list[FilterState | None]
    last_seen: Timestamp
    hits: int = 1


@dataclass(frozen=True)
class TrackEvent:
    kind: str  # "created" | "updated" | "retired"
    track_id: int
    stamp: Timestamp
    camera_id: str


@dataclass(frozen=True)
class TrackPose:
    """One confirmed track's fused skeleton and per-joint covariance traces."""

    track_id: int
    skeleton: Skeleton3D
    cov_traces: tuple[float | None, ...]


@dataclass(frozen=True)
class FusedSnapshot:
    stamp: Timestamp
    tracks: tuple[TrackPose, ...]


class PoseTracker:
    """Fuses asynchronous world-frame detection streams into person tracks."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self._centroid_noise = self.config.noise.for_centroid()
        self._tracks: dict[int, Track] = {}
        self._next_id = 1
        self._latest_stamp: Timestamp | None = None
        self.stale_rejections = 0

    @property
    def tracks(self) -> list[Track]:
        return list(self._tracks.values())

    def ingest(self, dets: DetectionSet) -> list[TrackEvent]:
        """Associate one detection set and update the track table.

        Returns the created/updated/retired events in deterministic order.
        A detection set older than the newest processed stamp by more than
        the configured tolerance is rejected (logged + counted), leaving the
        tracker untouched.
        """
        cfg = self.config
        t = dets.stamp
        if self._latest_stamp is not None and t < self._latest_stamp - cfg.stale_tolerance:
            self.stale_rejections += 1
            log.error(
                "dropping stale detection set from %s: stamp %.6f lags %.6f by more than %.3fs",
                dets.camera_id, t, self._latest_stamp, cfg.stale_tolerance,
            )
            return []

        track_list = list(self._tracks.values())
        result = association.data_association(dets, track_list, cfg.gating_eps, self._centroid_noise)

        events: list[TrackEvent] = []
        for det_idx, track_id in result.matches:
            self._apply_match(self._tracks[track_id], dets.skeletons[det_idx], t)
            events.append(TrackEvent("updated", track_id, t, dets.camera_id))

        for det_idx in result.unmatched_detections:
            track = self._birth(dets.skeletons[det_idx], t)
            if track is not None:
                events.append(TrackEvent("created", track.track_id, t, dets.camera_id))

        for track_id in [tid for tid, trk in self._tracks.items()
                         if t - trk.last_seen > cfg.max_track_age]:
            del self._tracks[track_id]
            events.append(TrackEvent("retired", track_id, t, dets.camera_id))

        self._latest_stamp = t if self._latest_stamp is None else max(self._latest_stamp, t)
        return events

    def snapshot(self, t: Timestamp) -> FusedSnapshot:
        """Read-only view of the confirmed tracks with filters extrapolated to ``t``.

        The tracker state is not modified; filters older than ``t`` are
        predicted forward, never rewound.
        """
        cfg = self.config
        poses = []
        for track in self._tracks.values():
            if track.hits < cfg.min_hits_to_confirm:
                continue
            joints = np.zeros((JOINT_COUNT, 3))
            valid = np.zeros(JOINT_COUNT, dtype=bool)
            traces: list[float | None] = [None] * JOINT_COUNT
            for j, state in enumerate(track.joint_filters):
                if state is None:
                    continue
                predicted = ukf.predict(state, max(t, state.last_update), cfg.noise)
                joints[j] = predicted.position()
                valid[j] = True
                traces[j] = float(np.trace(predicted.position_cov()))
            poses.append(TrackPose(
                track_id=track.track_id,
                skeleton=Skeleton3D(joints, valid),
                cov_traces=tuple(traces),
            ))
        poses.sort(key=lambda p: p.track_id)
        return FusedSnapshot(stamp=t, tracks=tuple(poses))

    def _apply_match(self, track: Track, skel: Skeleton3D, t: Timestamp) -> None:
        cfg = self.config.noise
        ccfg = self._centroid_noise
        cent = association.centroid(skel)
        # A matched pair always has a finite cost, hence a centroid.
        track.centroid_filter = ukf.update(
            ukf.predict(track.centroid_filter, max(t, track.centroid_filter.last_update), ccfg),
            cent, ccfg,
        )
        for j in range(JOINT_COUNT):
            state = track.joint_filters[j]
            if state is None:
                if skel.valid[j]:
                    track.joint_filters[j] = ukf.init_filter(skel.joints[j], t, cfg)
                continue
            predicted = ukf.predict(state, max(t, state.last_update), cfg)
            if skel.valid[j]:
                track.joint_filters[j] = ukf.update(predicted, skel.joints[j], cfg)
            else:
                track.joint_filters[j] = predicted  # predict-only, mean untouched by update
        track.last_seen = max(track.last_seen, t)
        track.hits += 1

    def _birth(self, skel: Skeleton3D, t: Timestamp) -> Track | None:
        cfg = self.config.noise
        cent = association.centroid(skel)
        if cent is None:
            log.debug("skipping track birth for centroid-less detection at %.6f", t)
            return None
        joint_filters: list[FilterState | None] = [
            ukf.init_filter(skel.joints[j], t, cfg) if skel.valid[j] else None
            for j in range(JOINT_COUNT)
        ]
        track = Track(
            track_id=self._next_id,
            centroid_filter=ukf.init_filter(cent, t, self._centroid_noise),
            joint_filters=joint_filters,
            last_seen=t,
        )
        self._next_id += 1
        self._tracks[track.track_id] = track
        return track
