"""Command-line surface: simulate, track (replay), evaluate.

Every command is deterministic given its inputs and composes through plain
files: simulate writes a detection stream + calibration + truth, track
replays a stream into track events and fused snapshots, evaluate renders the
reprojection-error report. Log level comes from the SKELFUSE_LOG env var.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import io
from .errors import SkelFuseError
from .evaluation import DEFAULT_MAF_K, evaluate
from .simulate import bundled_scenario_path, load_scenario, run_scenario
from .tracker import PoseTracker, TrackerConfig
from .ukf import NoiseConfig

log = logging.getLogger(__name__)


def _resolve_scenario(name_or_path: str) -> Path:
    """Accept a filesystem path or the name of a bundled scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p
    bundled = bundled_scenario_path(name_or_path)
    if bundled is not None:
        return Path(str(bundled))
    raise SkelFuseError(f"scenario {name_or_path!r} not found (no such file or bundled scenario)")


def cmd_simulate(args) -> int:
    cfg = load_scenario(_resolve_scenario(args.scenario), seed_override=args.seed_override)
    events, gt = run_scenario(cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_detections(out / "stream.jsonl", (e.detections for e in events))
    io.write_calibration(out / "calibration.json", cfg.camera_models())

    io.write_truth(out / "truth.jsonl", gt)
    print(f"wrote {len(events)} detection sets to {out / 'stream.jsonl'}")
    return 0


def _tracker_config(args) -> TrackerConfig:
    noise = NoiseConfig(
        process_accel_sigma=args.accel_sigma,
        meas_sigma=args.meas_sigma,
    )
    return TrackerConfig(
        gating_eps=args.gating_eps,
        noise=noise,
        max_track_age=args.max_track_age,
        min_hits_to_confirm=args.min_hits,
        stale_tolerance=args.stale_tolerance,
    )


def cmd_track(args) -> int:
    cameras = io.read_calibration(args.calib)
    stream = io.read_detections(args.stream)
    for ds in stream:
        if ds.camera_id not in cameras:
            raise SkelFuseError(
                f"stream references camera {ds.camera_id!r} absent from {args.calib}"
            )

    tracker = PoseTracker(_tracker_config(args))
    event_records = []
    snapshot_records = []
    for ds in stream:
        for ev in tracker.ingest(ds):
            event_records.append(io.event_to_dict(ev))
        snapshot_records.append(io.snapshot_to_dict(tracker.snapshot(ds.stamp)))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_jsonl(out / "events.jsonl", event_records)
    io.write_jsonl(out / "snapshots.jsonl", snapshot_records)
    print(f"ingested {len(stream)} detection sets, wrote {len(event_records)} events to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_scenario(_resolve_scenario(args.scenario), seed_override=args.seed_override)
    subsets = None
    if args.cameras:
        subsets = [spec.split(",") for spec in args.cameras]
    seeds = [cfg.seed + i for i in range(args.seeds)]

    report = evaluate(
        cfg,
        camera_subsets=subsets,
        k_values=tuple(args.maf_k or DEFAULT_MAF_K),
        seeds=seeds,
        ref_camera_id=args.ref_camera,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
    sys.stdout.write(report.to_csv() if args.report_format == "csv" else report.to_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelfuse",
        description="Asynchronous multi-camera 3D human pose fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="render a scenario to a detection stream")
    p_sim.add_argument("--scenario", required=True, help="scenario YAML path or bundled name")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed-override", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_trk = sub.add_parser("track", help="replay a detection stream through the tracker")
    tracker_defaults = TrackerConfig()
    p_trk.add_argument("--stream", required=True, help="detection JSONL file")
    p_trk.add_argument("--calib", required=True, help="calibration JSON file")
    p_trk.add_argument("--out", required=True, help="output directory")
    p_trk.add_argument("--gating-eps", type=float, default=tracker_defaults.gating_eps)
    p_trk.add_argument("--max-track-age", type=float, default=tracker_defaults.max_track_age)
    p_trk.add_argument("--min-hits", type=int, default=tracker_defaults.min_hits_to_confirm)
    p_trk.add_argument("--stale-tolerance", type=float, default=tracker_defaults.stale_tolerance)
    p_trk.add_argument("--meas-sigma", type=float, default=tracker_defaults.noise.meas_sigma)
    p_trk.add_argument("--accel-sigma", type=float,
                       default=tracker_defaults.noise.process_accel_sigma)
    p_trk.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("evaluate", help="run the reprojection-error protocol")
    p_eval.add_argument("--scenario", required=True, help="scenario YAML path or bundled name")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument(
        "--cameras", action="append", default=None, metavar="ID[,ID...]",
        help="camera subset (repeatable); default: 1-cam, 2-cam, full network",
    )
    p_eval.add_argument("--maf-k", action="append", type=int, default=None,
                        help=f"MAF window size (repeatable); default {DEFAULT_MAF_K}")
    p_eval.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p_eval.add_argument("--seed-override", type=int, default=None)
    p_eval.add_argument("--ref-camera", default=None, help="reference camera id (default first)")
    p_eval.add_argument("--report-format", choices=("csv", "table"), default="table")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("SKELFUSE_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SkelFuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
