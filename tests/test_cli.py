"""End-to-end tests for the command-line surface and its file schemas."""

import json
import logging

import pytest

from skelfuse import io
from skelfuse.cli import main
from skelfuse.model import JOINT_COUNT, DetectionSet, Skeleton3D

from conftest import GROUP_SCENARIO, full_skeleton, make_camera

SCENARIO = """\
seed: 321
duration: 2.0
persons:
  - id: p0
    waypoints: [[0.0, -0.8, 0.0], [2.0, 0.8, 0.0]]
    swing_amplitude: 0.3
cameras:
  - id: c0
    fx: 525.0
    fy: 525.0
    cx: 319.5
    cy: 239.5
    width: 640
    height: 480
    position: [3.5, 3.5, 1.7]
    look_at: [0.0, 0.0, 1.0]
    frame_rate: 10.0
    pixel_sigma: 1.5
    depth_sigma: 0.02
    joint_dropout: 0.1
  - id: c1
    fx: 525.0
    fy: 525.0
    cx: 319.5
    cy: 239.5
    width: 640
    height: 480
    position: [-3.5, -3.5, 1.7]
    look_at: [0.0, 0.0, 1.0]
    frame_rate: 8.0
    latency_jitter: [0.0, 0.05]
    pixel_sigma: 1.5
    depth_sigma: 0.02
    joint_dropout: 0.1
"""


@pytest.fixture()
def scenario_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(SCENARIO, encoding="utf-8")
    return p


def test_simulate_writes_stream_truth_calibration(scenario_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(out)]) == 0
    stream = io.read_detections(out / "stream.jsonl")
    assert stream
    assert {d.camera_id for d in stream} == {"c0", "c1"}
    cams = io.read_calibration(out / "calibration.json")
    assert set(cams) == {"c0", "c1"}
    truth_lines = (out / "truth.jsonl").read_text().splitlines()
    rec = json.loads(truth_lines[0])
    assert rec["person_id"] == "p0"
    assert len(rec["joints"]) == JOINT_COUNT


def test_simulate_deterministic_bytes(scenario_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(out1)])
    main(["simulate", "--scenario", str(scenario_file), "--out", str(out2)])
    for name in ("stream.jsonl", "truth.jsonl", "calibration.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_bundled_scenario_resolves(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", "four_kinect_walk", "--out", str(out),
                 "--seed-override", "5"]) == 0
    stream = io.read_detections(out / "stream.jsonl")
    assert {d.camera_id for d in stream} == {"c0", "c1", "c2", "c3"}


def test_simulate_malformed_scenario_exits_2_no_partial_output(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\nduration: -4\npersons: []\ncameras: []\n", encoding="utf-8")
    out = tmp_path / "boom"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_yaml_syntax_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\nduration: [unclosed\n", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_track_pipeline_single_confirmed_track(scenario_file, tmp_path):
    sim = tmp_path / "sim"
    trk = tmp_path / "trk"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    assert main(["track", "--stream", str(sim / "stream.jsonl"),
                 "--calib", str(sim / "calibration.json"), "--out", str(trk)]) == 0
    events = [json.loads(l) for l in (trk / "events.jsonl").read_text().splitlines()]
    created = [e for e in events if e["event"] == "created"]
    assert len(created) == 1
    snaps = [json.loads(l) for l in (trk / "snapshots.jsonl").read_text().splitlines()]
    assert len({len(s["tracks"]) for s in snaps[12:]}) == 1  # settles to one track


def test_track_empty_stream_ok(tmp_path, scenario_file):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "t"
    assert main(["track", "--stream", str(empty),
                 "--calib", str(sim / "calibration.json"), "--out", str(out)]) == 0
    assert (out / "events.jsonl").read_text() == ""


def test_track_unknown_camera_exits_2_naming_id(tmp_path, scenario_file, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    # calibration with only c0: c1 lines become unknown
    cams = io.read_calibration(sim / "calibration.json")
    io.write_calibration(sim / "partial.json", [cams["c0"]])
    assert main(["track", "--stream", str(sim / "stream.jsonl"),
                 "--calib", str(sim / "partial.json"), "--out", str(tmp_path / "t")]) == 2
    assert "c1" in capsys.readouterr().err


def test_track_stale_drops_warn_once_then_count(tmp_path, caplog, capsys):
    stamps = [("c0", 2.0), ("c1", 1.0), ("c1", 1.1), ("c1", 1.2), ("c0", 2.1)]
    io.write_detections(tmp_path / "stream.jsonl", (
        DetectionSet(cam, stamp, Skeleton3D.stack([full_skeleton()])) for cam, stamp in stamps
    ))
    io.write_calibration(tmp_path / "calib.json", [make_camera("c0"), make_camera("c1")])
    caplog.set_level(logging.DEBUG, logger="skelfuse.tracker")
    assert main(["track", "--stream", str(tmp_path / "stream.jsonl"),
                 "--calib", str(tmp_path / "calib.json"), "--out", str(tmp_path / "t")]) == 0
    stale = [r for r in caplog.records if r.getMessage().startswith("dropping stale")]
    assert [r.levelno for r in stale] == [logging.WARNING, logging.DEBUG, logging.DEBUG]
    assert "from c1: stamp 1.000000 lags 2.000000 by more than 0.500s" in stale[0].getMessage()
    assert capsys.readouterr().err.splitlines() == ["dropped 3 stale detection sets"]


def test_track_deterministic_bytes(scenario_file, tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for t in (t1, t2):
        main(["track", "--stream", str(sim / "stream.jsonl"),
              "--calib", str(sim / "calibration.json"), "--out", str(t)])
    assert (t1 / "events.jsonl").read_bytes() == (t2 / "events.jsonl").read_bytes()
    assert (t1 / "snapshots.jsonl").read_bytes() == (t2 / "snapshots.jsonl").read_bytes()


def test_evaluate_writes_csv_and_table(scenario_file, tmp_path, capsys):
    out = tmp_path / "eval"
    assert main(["evaluate", "--scenario", str(scenario_file), "--out", str(out),
                 "--maf-k", "5", "--cameras", "c0", "--cameras", "c0,c1",
                 "--report-format", "csv"]) == 0
    csv_text = (out / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "config,method,joint,mean_px,std_px,n_samples,n_excluded"
    assert "1-cam,MAF_5," in csv_text
    assert "2-cam,ours," in csv_text
    assert (out / "report.txt").read_text().startswith("config")
    assert capsys.readouterr().out == csv_text


@pytest.mark.parametrize("cameras", [["c0", "c2"], ["c0,c0"]],
                         ids=["two-1-cam-subsets", "repeated-camera"])
def test_evaluate_ambiguous_subsets_exit_2_and_write_no_report(tmp_path, capsys, cameras):
    out = tmp_path / "eval"
    argv = ["evaluate", "--scenario", "four_kinect_walk", "--out", str(out)]
    for spec in cameras:
        argv += ["--cameras", spec]
    assert main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: camera subset")


def test_evaluate_deterministic_bytes(scenario_file, tmp_path):
    o1, o2 = tmp_path / "e1", tmp_path / "e2"
    for o in (o1, o2):
        main(["evaluate", "--scenario", str(scenario_file), "--out", str(o), "--maf-k", "5"])
    assert (o1 / "report.csv").read_bytes() == (o2 / "report.csv").read_bytes()
    assert (o1 / "report.txt").read_bytes() == (o2 / "report.txt").read_bytes()


def test_detection_stream_line_schema(scenario_file, tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    line = (sim / "stream.jsonl").read_text().splitlines()[0]
    rec = json.loads(line)
    assert set(rec) == {"camera_id", "stamp", "skeletons"}
    for skel in rec["skeletons"]:
        assert set(skel) == {"joints"}
        assert len(skel["joints"]) == JOINT_COUNT
        for j in skel["joints"]:
            assert set(j) == {"id", "x", "y", "z", "valid"}


def test_calibration_schema_documents_convention(scenario_file, tmp_path):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    doc = json.loads((sim / "calibration.json").read_text())
    assert "camera" in doc["convention"] and "world" in doc["convention"]
    for cam in doc["cameras"]:
        assert set(cam) == {"id", "fx", "fy", "cx", "cy", "extrinsic"}
        assert len(cam["extrinsic"]) == 16


def test_bad_stream_line_reports_line_number(tmp_path, scenario_file, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(sim)])
    stream = sim / "stream.jsonl"
    lines = stream.read_text().splitlines()
    lines[2] = "{not json"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["track", "--stream", str(stream),
                 "--calib", str(sim / "calibration.json"),
                 "--out", str(tmp_path / "t")]) == 2
    assert "line 3" in capsys.readouterr().err


GOLDEN_SCENARIO = """\
seed: 99
duration: 0.5
persons:
  - id: p0
    waypoints: [[0.0, 0.0, 0.0], [0.5, 0.25, 0.0]]
    swing_amplitude: 0.4
cameras:
  - id: cam0
    fx: 500.0
    fy: 500.0
    cx: 320.0
    cy: 240.0
    width: 640
    height: 480
    position: [3.0, 0.0, 1.5]
    look_at: [0.0, 0.0, 1.0]
    frame_rate: 4.0
    pixel_sigma: 1.0
    depth_sigma: 0.01
    joint_dropout: 0.1
"""

# Pinned for this version: any change to the stream bytes is a deliberate
# format or numerics change and must update this hash.
GOLDEN_STREAM_SHA256 = "9ceeaebf335cbc7d2a93853016e2ea5c3b4e3da8b5890c9b87c5ef85ea0c5e0a"
GOLDEN_FIRST_RECORD_PREFIX = (
    '{"camera_id":"cam0","stamp":0.0,"skeletons":[{"joints":[{"id":0,'
    '"x":-0.00037365295761082606,"y":-0.0028098989677461934,'
    '"z":1.6523445639024836,"valid":true}'
)


def test_golden_stream_bytes_pinned(tmp_path):
    import hashlib

    scen = tmp_path / "golden.yaml"
    scen.write_text(GOLDEN_SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    data = (out / "stream.jsonl").read_bytes()
    assert data.decode().splitlines()[0].startswith(GOLDEN_FIRST_RECORD_PREFIX)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_STREAM_SHA256


# One person walks in through the left border of cam0's image, so many of
# their depth splats are clipped by it; the other stays 30 m to the side,
# in front of the camera but never in its view.
BORDER_SCENARIO = """\
seed: 17
duration: 1.5
persons:
  - id: crosser
    waypoints: [[0.0, 0.0, -2.3], [1.5, 0.0, -1.5]]
    heading_deg: 90.0
    swing_amplitude: 0.4
  - id: absent
    waypoints: [[0.0, -5.0, 30.0], [1.5, -4.5, 30.0]]
cameras:
  - id: cam0
    fx: 500.0
    fy: 500.0
    cx: 320.0
    cy: 240.0
    width: 640
    height: 480
    position: [3.0, 0.0, 1.5]
    look_at: [0.0, 0.0, 1.0]
    frame_rate: 20.0
    pixel_sigma: 1.0
    depth_sigma: 0.01
    joint_dropout: 0.1
"""
BORDER_STREAM_SHA256 = "0ea9e1d78bbaa565bd3e3ab69f4fef0aed69c8454c7e4130cdf263224b23e065"


def test_border_stream_bytes_pinned(tmp_path):
    import hashlib

    scen = tmp_path / "border.yaml"
    scen.write_text(BORDER_SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    sets = [json.loads(line) for line in (out / "stream.jsonl").read_text().splitlines()]
    # The crosser enters the view part-way through; the absent person never does.
    assert [len(s["skeletons"]) for s in sets[:2]] == [0, 0]
    assert all(len(s["skeletons"]) == 1 for s in sets[2:])
    assert hashlib.sha256((out / "stream.jsonl").read_bytes()).hexdigest() == BORDER_STREAM_SHA256


# Five persons in view of one camera at once, splats cut by three image
# borders (conftest.GROUP_SCENARIO). Recorded when each joint was still
# rendered and lifted on its own; rendering and lifting a whole frame at a
# time must keep every byte.
GROUP_STREAM_SHA256 = "9c7a3c70b5db9951627d0af27a61c93d047f06c2958b2c131ba6f7ab81dac579"


def test_group_stream_bytes_pinned(tmp_path):
    import hashlib

    scen = tmp_path / "group.yaml"
    scen.write_text(GROUP_SCENARIO, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scen), "--out", str(out)]) == 0
    sets = [json.loads(line) for line in (out / "stream.jsonl").read_text().splitlines()]
    assert max(len(s["skeletons"]) for s in sets) == 5
    assert hashlib.sha256((out / "stream.jsonl").read_bytes()).hexdigest() == GROUP_STREAM_SHA256


# Simulator and tracker output on the bundled three_person_jitter scenario. The
# stream bytes are pinned exactly: unlike the golden stream, they cover three
# persons seen by four cameras. Events carry only association and lifecycle
# decisions, so their bytes are pinned exactly too; the snapshot fingerprint
# (sums of valid joint coordinates and of cov_trace) is pinned to 1e-9
# relative, so a filter refactor may move the last bits only.
JITTER_STREAM_SHA256 = "c1bc52523136ee4b039f219da9e10cb352822e400536ee9058ee83f0bcbf52c6"
JITTER_EVENTS_SHA256 = "7c8e560a17ce0c80dcd2fd40b5834b632bec1933ed9c748af5ea9f57f6a35a0d"
JITTER_JOINT_COORD_SUM = 13043.026950106438
JITTER_COV_TRACE_SUM = 50.60314917077529


def test_track_output_pinned_on_three_person_jitter(tmp_path):
    import hashlib

    sim, trk = tmp_path / "sim", tmp_path / "trk"
    assert main(["simulate", "--scenario", "three_person_jitter", "--out", str(sim)]) == 0
    stream = (sim / "stream.jsonl").read_bytes()
    assert hashlib.sha256(stream).hexdigest() == JITTER_STREAM_SHA256
    assert main(["track", "--stream", str(sim / "stream.jsonl"),
                 "--calib", str(sim / "calibration.json"), "--out", str(trk)]) == 0
    events = (trk / "events.jsonl").read_bytes()
    assert hashlib.sha256(events).hexdigest() == JITTER_EVENTS_SHA256
    coord_sum, trace_sum = 0.0, 0.0
    for line in (trk / "snapshots.jsonl").read_text().splitlines():
        for track in json.loads(line)["tracks"]:
            for j in track["joints"]:
                if j["valid"]:
                    coord_sum += j["x"] + j["y"] + j["z"]
                    trace_sum += j["cov_trace"]
    assert coord_sum == pytest.approx(JITTER_JOINT_COORD_SUM, rel=1e-9)
    assert trace_sum == pytest.approx(JITTER_COV_TRACE_SUM, rel=1e-9)
