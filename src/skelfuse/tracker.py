"""Master-node fusion: asynchronous detection ingestion and track lifecycle.

The tracker is a single logical writer: detection sets are ingested in
arrival order (cross-camera capture stamps may interleave out of order), each
one is associated against the live tracks, matched tracks update their
per-joint and centroid filters, unmatched detections birth tracks, and tracks
unseen for longer than the age limit are retired. Stale detections within a
small tolerance are applied with their filter time clamped (dt = 0); older
ones are dropped and counted, the first with a logged warning and the rest
at debug level. The tracker alone handles time: per set it computes all
centroids in one call, dropping centroid-less skeletons, predicts the
centroid filters once, and association scores those. Sets arrive, and
snapshots leave, as stacks of skeleton rows.

All filters live in one table, a ``FilterState`` of shape ``(T, 16)``: one
row per track in birth order, columns 0-14 its joints and column 15 its
centroid. Beside it sit only per-row track ids and hit counts; the table
itself holds the rest:

- A filter has started where ``p > 0``. A birth appends a zero-filled row, a
  joint's filter starts at its first valid measurement and the centroid's at
  birth, ``init_filter`` starts ``p`` at its column's measurement variance
  ``r > 0``, and every predict and update rejects a result with ``p <= 0``.
- A track was last seen at ``last_update[:, CENTROID]``. Only a birth's
  ``init_filter`` and a match's predict-and-update write the centroid column,
  and a match moves it to ``max(old, t)``.

An ingest predicts the centroid column once for association, then fuses all
16 columns of the rows it touches in one predict, one update and one
``init_filter`` call; a snapshot predicts all the rows it reads in one. A
birth appends a row; a retirement compacts the table in order.

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

# Measurement std (m) of the centroid filter. The centroid is a derived
# pseudo-measurement: without the chest, the fallback weighted mean can sit
# decimeters from it, so joint-level noise would gate out genuine detections.
CENTROID_MEAS_SIGMA = 0.2

# Filter table columns: the JOINT_COUNT joints, then the centroid.
CENTROID = JOINT_COUNT
COLUMNS = JOINT_COUNT + 1


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
        if self.min_hits_to_confirm < 0:
            raise ConfigError("min_hits_to_confirm must be non-negative")
        if not self.stale_tolerance >= 0:
            raise ConfigError("stale_tolerance must be non-negative")


@dataclass(frozen=True)
class TrackEvent:
    kind: str  # "created" | "updated" | "retired"
    track_id: int
    stamp: Timestamp
    camera_id: str


@dataclass(frozen=True, eq=False)
class FusedSnapshot:
    """The N confirmed tracks at ``stamp``, one row each in birth order (so by track id).

    ``track_ids (N,)``, ``tracks`` one stack of N fused skeletons, and
    per-joint covariance traces ``cov_traces (N, 15)``, 0 where a joint is invalid.
    """

    stamp: Timestamp
    track_ids: np.ndarray
    tracks: Skeleton3D
    cov_traces: np.ndarray


class PoseTracker:
    """Fuses asynchronous world-frame detection streams into person tracks.

    The track table, one row per live track in birth order, is public to
    read: ``filters`` (a ``FilterState`` of shape ``(T, 16)``, columns 0-14
    the joints and ``CENTROID`` the centroid), ``track_ids`` and ``hits``.
    Only ``ingest`` changes it. A filter has started where ``filters.p > 0``,
    and a track was last seen at ``filters.last_update[:, CENTROID]`` (see
    the module docstring for why).
    """

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        # Each column's measurement variance r: the joints', then the centroid's.
        self._r = np.full(COLUMNS, self.config.noise.meas_sigma**2)
        self._r[CENTROID] = CENTROID_MEAS_SIGMA**2
        self.filters = FilterState(mean=np.zeros((0, COLUMNS, 6)), p=np.zeros((0, COLUMNS)),
                                   c=np.zeros((0, COLUMNS)), v=np.zeros((0, COLUMNS)),
                                   last_update=np.zeros((0, COLUMNS)))
        self.track_ids = np.zeros(0, dtype=np.int64)
        self.hits = np.zeros(0, dtype=np.int64)
        self._next_id = 1
        self._latest_stamp: Timestamp = -np.inf
        self.stale_rejections = 0

    def ingest(self, dets: DetectionSet) -> list[TrackEvent]:
        """Associate one detection set and update the track table.

        Returns the created/updated/retired events in deterministic order.
        A detection set older than the newest processed stamp by more than
        the configured tolerance is rejected and counted in
        ``stale_rejections``, leaving the tracker untouched; only the first
        rejection logs a warning, later ones log at debug level.
        """
        cfg = self.config
        t = dets.stamp
        if t < self._latest_stamp - cfg.stale_tolerance:
            self.stale_rejections += 1
            (log.warning if self.stale_rejections == 1 else log.debug)(
                "dropping stale detection set from %s: stamp %.6f lags %.6f by more than %.3fs",
                dets.camera_id, t, self._latest_stamp, cfg.stale_tolerance,
            )
            return []

        centroids = association.centroid(dets.skeletons)
        kept = np.flatnonzero(~np.isnan(centroids[:, 0]))
        if len(kept) < len(centroids):
            log.debug("dropping centroid-less detections from %s at %.6f", dets.camera_id, t)
        centroids = centroids[kept]

        # A set with no centroid scores nothing, so no filter is predicted for it.
        predicted = self.filters[:0, CENTROID]
        if len(centroids) and len(self.track_ids):
            predicted = _predict_to(self.filters[:, CENTROID], t, cfg.noise)
        result = association.data_association(predicted, centroids, cfg.gating_eps,
                                              self._r[CENTROID])

        matched = np.array([row for _, row in result.matches], dtype=np.int64)
        events = [TrackEvent("updated", track_id, t, dets.camera_id)
                  for track_id in self.track_ids[matched].tolist()]
        order = [det for det, _ in result.matches] + list(result.unmatched_detections)
        if order:
            born = self._append(len(result.unmatched_detections))
            events += [TrackEvent("created", track_id, t, dets.camera_id)
                       for track_id in self.track_ids[born].tolist()]
            self.hits[matched] += 1
            # The matched centroids fuse the prediction that association scored.
            _store(self.filters, (matched, CENTROID), predicted[matched])
            rows = kept[order]
            measured = np.concatenate([dets.skeletons.joints[rows], centroids[order, None]], axis=1)
            valid = np.concatenate([dets.skeletons.valid[rows], np.ones((len(rows), 1), bool)],
                                   axis=1)
            self._fuse(np.concatenate([matched, born]), measured, valid, t)

        retired = t - self.filters.last_update[:, CENTROID] > cfg.max_track_age
        if retired.any():
            events += [TrackEvent("retired", track_id, t, dets.camera_id)
                       for track_id in self.track_ids[retired].tolist()]
            self._keep(~retired)

        self._latest_stamp = max(self._latest_stamp, t)
        return events

    def snapshot(self, t: Timestamp) -> FusedSnapshot:
        """Read-only view of the confirmed tracks with filters extrapolated to ``t``.

        The tracker state is not modified; filters older than ``t`` are
        predicted forward, never rewound. Rows are in birth order, so they
        come out sorted by track id.
        """
        confirmed = np.flatnonzero(self.hits >= self.config.min_hits_to_confirm)
        valid = self.filters.p[confirmed, :JOINT_COUNT] > 0
        rows, joints = np.nonzero(valid)
        positions = np.zeros((len(confirmed), JOINT_COUNT, 3))
        traces = np.zeros((len(confirmed), JOINT_COUNT))
        if len(rows):  # every confirmed track has started a joint
            predicted = _predict_to(self.filters[confirmed[rows], joints], t, self.config.noise)
            positions[rows, joints] = predicted.position()
            traces[rows, joints] = 3.0 * predicted.p
        return FusedSnapshot(stamp=t, track_ids=self.track_ids[confirmed],
                             tracks=Skeleton3D(positions, valid), cov_traces=traces)

    def _fuse(self, rows: np.ndarray, measured: np.ndarray, valid: np.ndarray,
              t: Timestamp) -> None:
        """Predict, update and start the filters of ``rows`` from their detections.

        ``measured (R, 16, 3)`` holds each row's detected joints and, as column
        ``CENTROID``, its centroid; ``valid (R, 16)`` is their mask. A matched
        row's centroid is already predicted to ``t``; a newborn row has started
        no filter.
        """
        started = self.filters.p[rows] > 0
        r, j = np.nonzero(started[:, :JOINT_COUNT])  # the matched centroids are predicted
        if len(r):  # an unseen joint stays predict-only
            _store(self.filters, (rows[r], j),
                   _predict_to(self.filters[rows[r], j], t, self.config.noise))
        r, j = np.nonzero(started & valid)
        if len(r):
            _store(self.filters, (rows[r], j),
                   ukf.update(self.filters[rows[r], j], measured[r, j], self._r[j]))
        r, j = np.nonzero(valid & ~started)
        if len(r):
            _store(self.filters, (rows[r], j), ukf.init_filter(measured[r, j], t, self._r[j]))

    def _append(self, n: int) -> np.ndarray:
        """Add ``n`` rows for newborn tracks, with new ids; return their indices.

        A new row has one hit and is zero-filled, so no filter has started yet.
        """
        first_row, first_id = len(self.track_ids), self._next_id
        if not n:
            return np.arange(first_row, first_row)
        self._next_id += n
        f = self.filters
        self.filters = FilterState(*(np.concatenate([a, np.zeros((n, *a.shape[1:]))])
                                     for a in (f.mean, f.p, f.c, f.v, f.last_update)))
        self.track_ids = np.concatenate([self.track_ids, np.arange(first_id, first_id + n)])
        self.hits = np.concatenate([self.hits, np.ones(n, dtype=np.int64)])
        return np.arange(first_row, first_row + n)

    def _keep(self, rows: np.ndarray) -> None:
        """Compact the table to ``rows`` (a mask), keeping their order."""
        self.filters = self.filters[rows]
        self.track_ids = self.track_ids[rows]
        self.hits = self.hits[rows]


def _store(table: FilterState, at, rows: FilterState) -> None:
    """Write ``rows`` into ``table`` at the index ``at``."""
    table.mean[at] = rows.mean
    table.p[at] = rows.p
    table.c[at] = rows.c
    table.v[at] = rows.v
    table.last_update[at] = rows.last_update


def _predict_to(state: FilterState, t: Timestamp, cfg: NoiseConfig) -> FilterState:
    """Predict every row of ``state`` to ``t``, clamped so a stale stamp never rewinds one."""
    return ukf.predict(state, np.maximum(t, state.last_update), cfg)
