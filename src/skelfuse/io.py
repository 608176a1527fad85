"""Codecs of the record files the commands exchange; no other module reads or writes one.

- ``stream.jsonl``: one world-frame DetectionSet per line in arrival order,
  ``{"camera_id", "stamp", "skeletons": [{"joints": [{"id", "x", "y", "z", "valid"}]}]}``.
- ``calibration.json``: ``{"convention", "cameras": [{"id", "fx", "fy", "cx",
  "cy", "extrinsic": [16 row-major]}]}``; the extrinsic maps camera-frame
  points to world-frame points, as the "convention" field states.
- ``truth.jsonl``: ``{"person_id", "t", "joints": [[x, y, z] x 15]}``.
- ``events.jsonl`` and ``snapshots.jsonl``: the tracker's output; a snapshot
  track is ``{"track_id", "joints"}``, each joint record with a ``cov_trace``.

Writers never emit NaN or Infinity; readers turn a malformed record into a
ConfigError naming the file and the line or camera entry, and a file that
cannot be opened or is not UTF-8 into a ConfigError naming the file.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .errors import ConfigError, reading
from .model import CameraModel, DetectionSet, Skeleton3D, as_number, as_numbers
from .simulate import GroundTruth
from .tracker import FusedSnapshot, TrackEvent

CALIBRATION_CONVENTION = (
    "extrinsic is a 4x4 row-major rigid transform mapping camera-frame points "
    "to world-frame points (camera->world)"
)

TRUTH_SAMPLE_HZ = 20.0

# What parsing a malformed record into model types raises.
_RECORD_ERRORS = (ConfigError, KeyError, TypeError, ValueError, OverflowError)


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def write_detections(path, detections: Iterable[DetectionSet]) -> None:
    write_jsonl(path, (
        {"camera_id": ds.camera_id, "stamp": ds.stamp,
         "skeletons": ds.skeletons.to_dicts()}
        for ds in detections
    ))


def read_detections(path) -> list[DetectionSet]:
    out = []
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                out.append(DetectionSet(
                    camera_id=str(d["camera_id"]),
                    stamp=as_number(d["stamp"]),
                    skeletons=Skeleton3D.from_dicts(d["skeletons"]),
                ))
            except _RECORD_ERRORS as exc:
                raise ConfigError(f"{path}: line {lineno}: bad detection record: {exc}") from exc
    return out


def write_calibration(path, cameras: Iterable[CameraModel]) -> None:
    doc = {
        "convention": CALIBRATION_CONVENTION,
        "cameras": [
            {"id": cam.camera_id, "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
             "extrinsic": cam.extrinsic.reshape(-1).tolist()}
            for cam in cameras
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def read_calibration(path) -> dict[str, CameraModel]:
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("cameras"), list):
        raise ConfigError(f"{path}: calibration file must hold a 'cameras' list")
    cams = {}
    for n, entry in enumerate(doc["cameras"]):
        try:
            fx, fy, cx, cy = (as_number(entry[key]) for key in ("fx", "fy", "cx", "cy"))
            extrinsic = as_numbers(entry["extrinsic"]) if "extrinsic" in entry else np.eye(4)
            cam = CameraModel(str(entry["id"]), fx, fy, cx, cy, extrinsic)
        except _RECORD_ERRORS as exc:
            raise ConfigError(f"{path}: camera entry {n}: {exc}") from exc
        if cam.camera_id in cams:
            raise ConfigError(f"{path}: duplicate camera id {cam.camera_id!r}")
        cams[cam.camera_id] = cam
    return cams


def write_truth(path, gt: GroundTruth) -> None:
    """Every person's true pose at ``TRUTH_SAMPLE_HZ`` over the scenario duration."""
    times = np.arange(int(gt.duration * TRUTH_SAMPLE_HZ)) / TRUTH_SAMPLE_HZ
    poses = gt.poses(times)
    write_jsonl(path, (
        {"person_id": pid, "t": t, "joints": poses[k, p].tolist()}
        for p, pid in enumerate(gt.person_ids)
        for k, t in enumerate(times.tolist())
    ))


def event_to_dict(ev: TrackEvent) -> dict:
    return {"event": ev.kind, "track_id": ev.track_id, "stamp": ev.stamp, "camera_id": ev.camera_id}


def snapshot_to_dict(snap: FusedSnapshot) -> dict:
    tracks = []
    for track_id, record, traces in zip(snap.track_ids.tolist(), snap.tracks.to_dicts(),
                                        snap.cov_traces.tolist()):
        for entry, trace in zip(record["joints"], traces):
            entry["cov_trace"] = trace if entry["valid"] else None
        tracks.append({"track_id": track_id, **record})
    return {"stamp": snap.stamp, "tracks": tracks}


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(_dumps(rec) + "\n")
