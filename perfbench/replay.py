"""Replay workloads: a simulated stream replayed through the ``track`` path.

Set-up simulates the timeline window by window and serializes each window
to JSONL; the windows are then merged into one arrival-ordered stream. The
timed region runs ``skelfuse track`` on the whole stream again and again,
each pass into a fresh tracker and a directory of its own, until the run's
time is used up. Accuracy is scored after the timed region from the first
pass's snapshots.jsonl.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from skelfuse import association, evaluation, geometry, simulate
from skelfuse import io as sfio
from skelfuse.errors import BehindCameraError
from skelfuse.model import CHEST, LIMB_JOINTS, DetectionSet, Skeleton3D

import scenarios
from outcome import Outcome
from trackpath import check_outputs, fusion_metrics, read_jsonl, track_pass

# Snapshots are scored after the same warm-up as the evaluation protocol.
SCORE_WARMUP_S = 1.0


@dataclass
class Stream:
    path: Path
    calib_path: Path
    first_window: Path
    window_setup_s: list[float]
    merge_s: float
    sets: int
    # Camera of each set, in stream order.
    camera_ids: list[str]
    skeletons: int
    out_of_order_sets: int


def build_stream(timeline: scenarios.Timeline, workdir: Path) -> Stream:
    """Simulate and serialize every window, then merge them in arrival order."""
    workdir.mkdir(parents=True, exist_ok=True)
    calib_path = workdir / "calibration.json"
    sfio.write_calibration(calib_path, [c.camera for c in timeline.cameras])

    windows = []
    setup_s = []
    for w in range(timeline.n_windows):
        t0 = time.perf_counter()
        start = w * timeline.window_s
        events, _ = simulate.run_scenario(timeline.window(w))
        path = workdir / f"window{w:03d}.jsonl"
        sfio.write_detections(path, (
            DetectionSet(e.detections.camera_id, e.detections.stamp + start, e.detections.skeletons)
            for e in events
        ))
        setup_s.append(time.perf_counter() - t0)
        windows.append((path, [
            (e.arrival + start, e.detections.camera_id, e.detections.stamp + start,
             len(e.detections.skeletons))
            for e in events
        ]))

    # Merge: a camera's sets stay in capture order (FIFO delivery), and the
    # merged stream is sorted by arrival as run_scenario sorts one window.
    t0 = time.perf_counter()
    last_arrival: dict[str, float] = {}
    rows = []
    for path, keys in windows:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        for line, (arrival, camera_id, stamp, n_skel) in zip(lines, keys, strict=True):
            arrival = max(arrival, last_arrival.get(camera_id, arrival))
            last_arrival[camera_id] = arrival
            rows.append((arrival, camera_id, stamp, n_skel, line))
    rows.sort(key=lambda r: r[:3])
    stream_path = workdir / "stream.jsonl"
    with open(stream_path, "w", encoding="utf-8") as fh:
        fh.writelines(r[4] for r in rows)
    merge_s = time.perf_counter() - t0

    out_of_order = 0
    newest = -math.inf
    for r in rows:
        out_of_order += r[2] < newest
        newest = max(newest, r[2])
    return Stream(
        path=stream_path,
        calib_path=calib_path,
        first_window=windows[0][0],
        window_setup_s=setup_s,
        merge_s=merge_s,
        sets=len(rows),
        camera_ids=[r[1] for r in rows],
        skeletons=sum(r[3] for r in rows),
        out_of_order_sets=out_of_order,
    )


def _nearest(skeletons, point):
    """Oracle association of the evaluation protocol: nearest centroid wins."""
    best, best_d = None, math.inf
    for s in skeletons:
        c = association.centroid(s)
        if c is None:
            continue
        d = math.dist(c, point)
        if d < best_d:
            best, best_d = s, d
    return best


def score(snapshot_records, camera_ids, timeline: scenarios.Timeline, scored) -> tuple[float, int]:
    """Mean limb-joint reprojection error of the snapshots in the reference camera.

    ``snapshot_records`` are the records of snapshots.jsonl, one per set of
    the stream, and ``camera_ids`` the camera of each set. The reference
    camera is the network's first camera, as in the evaluation protocol;
    the snapshots after its sets are the samples. Each scored person is
    matched to the confirmed track nearest its true chest.
    ``scored(truth, person_id, t)`` selects the persons that count at ``t``.
    Returns (mean error in px, number of joint samples).
    """
    if len(snapshot_records) != len(camera_ids):  # the pass failed; its checks say so
        return math.nan, 0
    truth = timeline.ground_truth()
    ref = timeline.cameras[0].camera
    total, n = 0.0, 0
    for rec, camera_id in zip(snapshot_records, camera_ids):
        t = rec["stamp"]
        if camera_id != ref.camera_id or t < SCORE_WARMUP_S:
            continue
        skeletons = [Skeleton3D.from_dict(track) for track in rec["tracks"]]
        for pid in truth.person_ids:
            if not scored(truth, pid, t):
                continue
            true_pose = truth.truth_at(pid, t)
            fused = _nearest(skeletons, true_pose.joints[CHEST])
            if fused is None:
                continue
            for j in LIMB_JOINTS:
                if not fused.valid[j]:
                    continue
                try:
                    p_star, _ = geometry.project(geometry.world_to_camera(true_pose.joints[j], ref), ref)
                    total += evaluation.reprojection_error(fused.joints[j], p_star, ref)
                except BehindCameraError:
                    continue
                n += 1
    return (total / n if n else math.nan), n


def score_all(truth, pid, t) -> bool:
    return True


def score_in_crowd_area(truth, pid, t) -> bool:
    """Persons inside the covered area now and half a second ago."""
    return all(
        scenarios.in_crowd_area(truth.truth_at(pid, s).joints[CHEST])
        for s in (t, max(0.0, t - 0.5))
    )


def run(timeline: scenarios.Timeline, scored, seconds: float, tracer, workdir: Path) -> Outcome:
    """Build the stream, then replay it untraced for ``seconds`` (or, with a
    tracer, untraced and traced by turns) and score the first pass."""
    out = Outcome()
    with tracer.installed() if tracer else contextlib.nullcontext():
        stream = build_stream(timeline, workdir / "input")
    track_pass(stream.first_window, stream.calib_path, workdir / "warmup")

    ids = itertools.count()

    def next_pass():
        return track_pass(stream.path, stream.calib_path, workdir / f"track{next(ids):03d}")

    if tracer is None:
        t0 = time.perf_counter()
        passes = [next_pass()]
        # Stop before a pass that would end after the run's time.
        while time.perf_counter() - t0 + passes[-1].wall_s <= seconds:
            passes.append(next_pass())
        timed = passes
    else:
        timed, traced = tracer.alternate(next_pass)
        passes = timed + traced  # traced passes time the tracer too
        out.per_layer = {**tracer.metrics(), **tracer.overhead_metrics(
            [p.wall_s for p in timed], [p.wall_s for p in traced])}

    check_outputs(passes)
    out.attempted = sum(p.sets for p in passes)
    out.failed = sum(p.failed for p in passes)
    out.check("every track pass exits 0", all(p.exit_code == 0 for p in passes),
              f"exit codes {sorted({p.exit_code for p in passes})}")
    out.check("every set ingested and snapshotted", not any(p.incomplete for p in passes),
              f"{sum(p.incomplete for p in passes)} incomplete")
    out.check("every snapshot finite", not any(p.non_finite for p in passes),
              f"{sum(p.non_finite for p in passes)} non-finite")
    out.check("passes write identical output", len({p.digest for p in passes}) == 1,
              f"{len({p.digest for p in passes})} distinct digests over {len(passes)} passes")

    first = passes[0]
    out.reproj_px, n_samples = score(read_jsonl(first.out_dir / "snapshots.jsonl"),
                                     stream.camera_ids, timeline, scored)
    setup_total_s = sum(stream.window_setup_s) + stream.merge_s
    track_s = statistics.median(p.wall_s for p in timed)
    out.metrics = {
        "setup_s": (statistics.median(stream.window_setup_s), "s",
                    f"median of {len(stream.window_setup_s)} windows of {timeline.window_s:g} s"),
        **fusion_metrics(timed),
        "pipeline_s": (setup_total_s + track_s, "s",
                       f"simulate+serialize {timeline.n_windows} windows and merge "
                       f"({setup_total_s:.4g} s), then track (median of {len(timed)} passes, "
                       f"{track_s:.4g} s)"),
        "reproj_px": (out.reproj_px, "px", f"{n_samples} joint samples"),
    }
    out.info = {
        "sets": stream.sets,
        "skeletons": stream.skeletons,
        "out_of_order_sets": stream.out_of_order_sets,
        "births": first.births,
        "retirements": first.retirements,
        "passes": len(timed),
        "windows": timeline.n_windows,
        "window_s": timeline.window_s,
        "window_setup_s": stream.window_setup_s,
        "merge_s": stream.merge_s,
        "setup_total_s": setup_total_s,
    }
    return out
