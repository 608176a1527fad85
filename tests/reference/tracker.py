"""Master-node fusion: asynchronous detection ingestion and track lifecycle.

The tracker is a single logical writer: detection sets are ingested in
arrival order (cross-camera capture stamps may interleave out of order), each
one is associated against the live tracks, matched tracks update their
per-joint and centroid filters, unmatched detections birth tracks, and tracks
unseen for longer than the age limit are retired. Stale detections within a
small tolerance are applied with their filter time clamped (dt = 0); older
ones are dropped with a logged staleness error and counted. The tracker alone
handles time: per set it computes each centroid once, dropping centroid-less
skeletons, predicts each centroid filter once, and association scores those.

Track ids are never reused within a tracker instance. Identical ingest
sequences produce bit-identical track histories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import association, ukf
from skelfuse.errors import ConfigError
from skelfuse.model import JOINT_COUNT, DetectionSet, Skeleton3D, Timestamp
from .ukf import FilterState, NoiseConfig

log = logging.getLogger(__name__)

# Measurement std (m) of the centroid filter. The centroid is a derived
# pseudo-measurement: without the chest, the fallback weighted mean can sit
# decimeters from it, so joint-level noise would gate out genuine detections.
CENTROID_MEAS_SIGMA = 0.2


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
        self._centroid_noise = replace(self.config.noise, meas_sigma=CENTROID_MEAS_SIGMA)
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

        detections: list[tuple[Skeleton3D, np.ndarray]] = []
        for skel in dets.skeletons:
            cent = association.centroid(skel)
            if cent is None:
                log.debug("dropping centroid-less detection from %s at %.6f", dets.camera_id, t)
            else:
                detections.append((skel, cent))

        # A set with no centroid scores nothing, so no filter is predicted for it.
        tracks = list(self._tracks.values()) if detections else []
        predicted = [_predict_to(trk.centroid_filter, t, self._centroid_noise) for trk in tracks]
        result = association.data_association(
            predicted, [cent for _, cent in detections], cfg.gating_eps, self._centroid_noise
        )

        events: list[TrackEvent] = []
        for det_idx, row in result.matches:
            self._apply_match(tracks[row], predicted[row], *detections[det_idx], t)
            events.append(TrackEvent("updated", tracks[row].track_id, t, dets.camera_id))

        for det_idx in result.unmatched_detections:
            track = self._birth(*detections[det_idx], t)
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
                predicted = _predict_to(state, t, cfg.noise)
                joints[j] = predicted.position()
                valid[j] = True
                traces[j] = 3.0 * predicted.p
            poses.append(TrackPose(
                track_id=track.track_id,
                skeleton=Skeleton3D(joints, valid),
                cov_traces=tuple(traces),
            ))
        poses.sort(key=lambda p: p.track_id)
        return FusedSnapshot(stamp=t, tracks=tuple(poses))

    def _apply_match(self, track: Track, centroid_predicted: FilterState, skel: Skeleton3D,
                     cent: np.ndarray, t: Timestamp) -> None:
        cfg = self.config.noise
        track.centroid_filter = ukf.update(centroid_predicted, cent, self._centroid_noise)
        for j in range(JOINT_COUNT):
            state = track.joint_filters[j]
            if state is None:
                if skel.valid[j]:
                    track.joint_filters[j] = ukf.init_filter(skel.joints[j], t, cfg)
                continue
            predicted = _predict_to(state, t, cfg)
            if skel.valid[j]:
                track.joint_filters[j] = ukf.update(predicted, skel.joints[j], cfg)
            else:
                track.joint_filters[j] = predicted  # predict-only, mean untouched by update
        track.last_seen = max(track.last_seen, t)
        track.hits += 1

    def _birth(self, skel: Skeleton3D, cent: np.ndarray, t: Timestamp) -> Track:
        cfg = self.config.noise
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


def _predict_to(state: FilterState, t: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Predict ``state`` to ``t``, clamped so a stale stamp never rewinds it."""
    return ukf.predict(state, max(t, state.last_update), cfg)
