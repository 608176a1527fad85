"""Malformed pipeline inputs exit with status 2 and write no output.

Each regression case runs the CLI in process on a small valid input with
one value broken; the fuzz test breaks one field of a valid two-line stream
or of its calibration at random.
"""

import copy
import functools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from skelfuse import io
from skelfuse.cli import main
from skelfuse.model import JOINT_COUNT, DetectionSet, Skeleton3D
from skelfuse.simulate import load_scenario

from conftest import make_camera

SCENARIO = {
    "seed": 5,
    "duration": 1.0,
    "persons": [{"id": "p0", "waypoints": [[0.0, -0.5, 0.0], [1.0, 0.5, 0.0]]}],
    "cameras": [{
        "id": "c0", "fx": 525.0, "fy": 525.0, "cx": 319.5, "cy": 239.5,
        "position": [3.5, 3.5, 1.7], "look_at": [0.0, 0.0, 1.0], "frame_rate": 5.0,
        "latency_jitter": [0.0, 0.05], "pixel_sigma": 1.5,
    }],
}


@functools.cache
def _valid_text() -> str:
    """JSON of a valid two-line stream (joint 1 invalid) and its calibration."""
    rng = np.random.default_rng(3)
    valid = np.ones(JOINT_COUNT, dtype=bool)
    valid[1] = False
    sets = [
        DetectionSet("c0", stamp, Skeleton3D.stack([Skeleton3D(
            np.array([0.0, 0.0, 1.0]) + 0.2 * rng.standard_normal((JOINT_COUNT, 3)),
            valid)]))
        for stamp in (0.1, 0.2)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        io.write_detections(d / "stream.jsonl", sets)
        io.write_calibration(d / "calibration.json", [make_camera("c0")])
        stream = [json.loads(line) for line in (d / "stream.jsonl").read_text().splitlines()]
        return json.dumps([stream, json.loads((d / "calibration.json").read_text())])


def _valid_inputs() -> tuple[list[dict], dict]:
    """Fresh records of the valid stream and calibration, free to break."""
    stream, calib = json.loads(_valid_text())
    return stream, calib


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _track(d: Path, stream, calib, *flags) -> int:
    """Write the inputs into ``d`` and track them into ``d / "out"``."""
    (d / "stream.jsonl").write_text("".join(json.dumps(r) + "\n" for r in stream))
    (d / "calibration.json").write_text(json.dumps(calib))
    return main(["track", "--stream", str(d / "stream.jsonl"),
                 "--calib", str(d / "calibration.json"), "--out", str(d / "out"), *flags])


JOINT3 = (1, "skeletons", 0, "joints", 3)

STREAM_CASES = {
    "joint id -1": (JOINT3 + ("id",), -1),
    "joint id 15": (JOINT3 + ("id",), 15),
    "duplicate joint id": (JOINT3 + ("id",), 2),
    "joint id 1.7": (JOINT3 + ("id",), 1.7),
    "joint id true": (JOINT3 + ("id",), True),
    "NaN stamp": ((1, "stamp"), math.nan),
    "infinite stamp": ((1, "stamp"), math.inf),
    "NaN coordinate": (JOINT3 + ("x",), math.nan),
    "stamp true": ((1, "stamp"), True),
    "stamp text": ((1, "stamp"), "0.0"),
    "coordinate text": (JOINT3 + ("x",), "1.5"),
    "valid 1": (JOINT3 + ("valid",), 1),
}


@pytest.mark.parametrize("case", STREAM_CASES)
def test_bad_stream_record_exits_2_naming_line(case, tmp_path, capsys):
    stream, calib = _valid_inputs()
    _set(stream, *STREAM_CASES[case])
    assert _track(tmp_path, stream, calib) == 2
    assert not (tmp_path / "out").exists()
    assert "stream.jsonl: line 2" in capsys.readouterr().err


CALIBRATION_CASES = {
    "cx NaN": (("cameras", 0, "cx"), math.nan),
    "fy infinite": (("cameras", 0, "fy"), math.inf),
    "fx not a number": (("cameras", 0, "fx"), "abc"),
    "NaN translation": (("cameras", 0, "extrinsic", 3), math.nan),
    "NaN rotation entry": (("cameras", 0, "extrinsic", 0), math.nan),
    "camera entry not a mapping": (("cameras", 0), 5),
    "fx as text": (("cameras", 0, "fx"), "525"),
    "fx true": (("cameras", 0, "fx"), True),
    "extrinsic entry true": (("cameras", 0, "extrinsic", 0), True),
}


@pytest.mark.parametrize("case", CALIBRATION_CASES)
def test_bad_calibration_exits_2(case, tmp_path):
    stream, calib = _valid_inputs()
    _set(calib, *CALIBRATION_CASES[case])
    assert _track(tmp_path, stream, calib) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gap", [1e110, 1e300])
def test_huge_stamp_gap_exits_2(gap, tmp_path, capsys):
    # Stamps [0, gap]: the process noise over the gap overflows a float.
    stream, calib = _valid_inputs()
    stream[0]["stamp"], stream[1]["stamp"] = 0.0, gap
    assert _track(tmp_path, stream, calib) == 2
    assert not (tmp_path / "out").exists()
    assert "process noise overflows" in capsys.readouterr().err


@pytest.mark.parametrize("gap", [3e4, 1e6, 1e100])
def test_long_stamp_gap_tracks(gap, tmp_path):
    # A pause of hours or more is predicted across and the track updated; the
    # posterior position variance must not cancel to 0 when p dwarfs r.
    stream, calib = _valid_inputs()
    stream[0]["stamp"], stream[1]["stamp"] = 0.0, gap
    assert _track(tmp_path, stream, calib) == 0
    events = (tmp_path / "out" / "events.jsonl").read_text().splitlines()
    assert [json.loads(line)["event"] for line in events] == ["created", "updated"]


@pytest.mark.parametrize("flags", [
    ["--gating-eps", "0"],
    ["--max-track-age", "0"],
    ["--meas-sigma", "-1"],
    ["--stale-tolerance", "-1"],
    ["--meas-sigma", "1e200"],
    ["--meas-sigma", "1e-200"],
    ["--accel-sigma", "1e-200"],
    ["--min-hits", "-1"],
])
def test_bad_track_flag_exits_2(flags, tmp_path):
    assert _track(tmp_path, *_valid_inputs(), *flags) == 2
    assert not (tmp_path / "out").exists()


def _scenario_file(tmp_path, *changes) -> Path:
    """Write the regression scenario with each ``(path, value)`` of ``changes`` applied."""
    scenario = copy.deepcopy(SCENARIO)
    for path, value in changes:
        _set(scenario, path, value)
    p = tmp_path / "scenario.yaml"
    p.write_text(yaml.safe_dump(scenario), encoding="utf-8")
    return p


# The regression scenario ends at the 1 s warmup; run on, it has frames to
# score at 1.0, 1.2 and 1.4 s.
SCORED = (("duration",), 1.5)


def _evaluate(tmp_path, *changes, flags=()) -> int:
    return main(["evaluate", "--scenario", str(_scenario_file(tmp_path, SCORED, *changes)),
                 "--out", str(tmp_path / "eval"), *flags])


def test_valid_scenario_file_evaluates(tmp_path):
    # The base of the evaluate cases below is valid: each exits 2 for what it breaks.
    assert _evaluate(tmp_path) == 0


@pytest.mark.parametrize("flags", [["--maf-k", "0"], ["--maf-k", "-3"], ["--seeds", "0"],
                                   ["--maf-k", "30", "--maf-k", "30"],
                                   ["--seed-override", "-1"]])
def test_bad_evaluate_flag_exits_2(flags, tmp_path):
    assert _evaluate(tmp_path, flags=flags) == 2
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("change", [(("duration",), 1.0), (("persons",), [])],
                         ids=["no-frame-after-warmup", "no-persons"])
def test_evaluate_with_nothing_to_score_exits_2(change, tmp_path, capsys):
    # Either would write a report whose every cell reads nan,nan,0,0.
    assert _evaluate(tmp_path, change) == 2
    assert not (tmp_path / "eval").exists()
    assert "nothing to score" in capsys.readouterr().err


SCENARIO_CASES = {
    "pixel_sigma text": (("cameras", 0, "pixel_sigma"), "abc"),
    "fx text": (("cameras", 0, "fx"), "abc"),
    "latency_jitter scalar": (("cameras", 0, "latency_jitter"), 5),
    "persons scalar": (("persons",), 5),
    "duration NaN": (("duration",), math.nan),
    "frame_rate NaN": (("cameras", 0, "frame_rate"), math.nan),
    "splat_radius NaN": (("cameras", 0, "splat_radius"), math.nan),
    "latency_jitter infinite": (("cameras", 0, "latency_jitter"), [0.0, math.inf]),
    "heading_deg infinite": (("persons", 0, "heading_deg"), math.inf),
    "position of two numbers": (("cameras", 0, "position"), [3.5, 3.5]),
    "splat_radius squared overflows": (("cameras", 0, "splat_radius"), 1e200),
    "seed negative": (("seed",), -1),
    "seed 2.7": (("seed",), 2.7),
    "width true": (("cameras", 0, "width"), True),
    "frame_rate as text": (("cameras", 0, "frame_rate"), "30"),
    "duration true": (("duration",), True),
}


@pytest.mark.parametrize("case", SCENARIO_CASES)
def test_bad_scenario_value_exits_2(case, tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(_scenario_file(tmp_path, SCENARIO_CASES[case])),
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_valid_scenario_file_simulates(tmp_path):
    # The regression scenario is valid before it is broken.
    assert main(["simulate", "--scenario", str(_scenario_file(tmp_path)),
                 "--out", str(tmp_path / "sim")]) == 0


def test_integer_numbers_load(tmp_path):
    # A JSON or YAML int is a number: only bools and strings are refused.
    stream, calib = _valid_inputs()
    calib["cameras"][0]["fx"] = 525
    calib["cameras"][0]["extrinsic"] = np.eye(4, dtype=int).ravel().tolist()
    assert _track(tmp_path, stream, calib) == 0
    ints = ((("duration",), 1), (("cameras", 0, "fx"), 525), (("cameras", 0, "frame_rate"), 5),
            (("cameras", 0, "position"), [3, 3, 2]))
    assert main(["simulate", "--scenario", str(_scenario_file(tmp_path, *ints)),
                 "--out", str(tmp_path / "sim")]) == 0


def _raw_scenario_file(tmp_path, duration: str, splat_radius: str) -> Path:
    """The regression scenario with ``duration`` and c0's ``splat_radius`` written as raw YAML."""
    p = _scenario_file(tmp_path, (("duration",), "@duration@"),
                       (("cameras", 0, "splat_radius"), "@splat_radius@"))
    text = p.read_text(encoding="utf-8")
    text = text.replace("'@duration@'", duration).replace("'@splat_radius@'", splat_radius)
    p.write_text(text, encoding="utf-8")
    return p


@pytest.mark.parametrize("duration, splat_radius",
                         [("1e1", "5e-1"), ("1E+1", "5E-01"), ("+1.e1", ".5e1"), ("2", "6.0")])
def test_exponent_floats_load(duration, splat_radius, tmp_path):
    # YAML 1.2 floats; PyYAML's YAML 1.1 resolver alone reads the first three rows as strings.
    p = _raw_scenario_file(tmp_path, duration, splat_radius)
    cfg = load_scenario(p)
    assert cfg.duration == float(duration)
    assert cfg.cameras[0].splat_radius == float(splat_radius)
    assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "sim")]) == 0


@pytest.mark.parametrize("duration", ['"1e1"', "'1e1'", "1e1s", "e1", "1e", "1e1.5"])
def test_quoted_or_malformed_exponent_exits_2(duration, tmp_path, capsys):
    p = _raw_scenario_file(tmp_path, duration, "5e-1")
    assert main(["simulate", "--scenario", str(p), "--out", str(tmp_path / "sim")]) == 2
    assert "bad 'duration' value" in capsys.readouterr().err


NOT_UTF8 = b"\xff\xfe"

# (command, file, damage): each makes one file of a valid run unreadable.
FILE_CASES = [
    ("track", "stream", "missing"),
    ("track", "calib", "missing"),
    ("track", "stream", "not UTF-8"),
    ("track", "calib", "not UTF-8"),
    ("track", "out", "an existing file"),
    ("simulate", "scenario", "a directory"),
    ("simulate", "scenario", "not UTF-8"),
    ("simulate", "out", "an existing file"),
]


@pytest.mark.parametrize("command, name, damage", FILE_CASES,
                         ids=[" ".join(case) for case in FILE_CASES])
def test_unreadable_file_exits_2_naming_it(command, name, damage, tmp_path, capsys):
    stream, calib = _valid_inputs()
    files = {"stream": tmp_path / "stream.jsonl", "calib": tmp_path / "calibration.json",
             "scenario": _scenario_file(tmp_path), "out": tmp_path / "out"}
    files["stream"].write_text("".join(json.dumps(r) + "\n" for r in stream))
    files["calib"].write_text(json.dumps(calib))
    path = files[name]
    if damage == "missing":
        path.unlink()
    elif damage == "not UTF-8":
        path.write_bytes(NOT_UTF8 + path.read_bytes())
    elif damage == "a directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_text("")
    if command == "track":
        argv = ["track", "--stream", str(files["stream"]), "--calib", str(files["calib"])]
    else:
        argv = ["simulate", "--scenario", str(files["scenario"])]
    assert main([*argv, "--out", str(files["out"])]) == 2
    assert not files["out"].is_dir()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def test_broken_yaml_scenario_exits_2_naming_its_line(tmp_path, capsys):
    lines = _scenario_file(tmp_path).read_text(encoding="utf-8").splitlines()
    # An unclosed flow sequence; the parser finds the error on the line after it.
    lines += ["broken: [1, 2", "after: 3"]
    p = tmp_path / "broken.yaml"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(p), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"invalid YAML (line {len(lines)})" in capsys.readouterr().err


# -- fuzzing: one field of a valid stream or calibration, broken at random --

_REMOVE = object()
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.integers()


def _paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutations(draw):
    """(file, path, value or _REMOVE).

    The value is a new id, stamp or coordinate, a removed key, or a value of
    another type.
    """
    stream, calib = _valid_inputs()
    docs = {"stream": stream, "calib": calib}
    kind = draw(st.sampled_from(["id", "stamp", "coordinate", "remove", "retype"]))
    if kind == "id":
        path = (draw(st.sampled_from((0, 1))), "skeletons", 0, "joints",
                draw(st.integers(0, JOINT_COUNT - 1)), "id")
        return "stream", path, draw(st.integers(-2, JOINT_COUNT + 1) | _NUMBERS | st.booleans())
    if kind == "stamp":
        return "stream", (draw(st.sampled_from((0, 1))), "stamp"), draw(_NUMBERS)
    if kind == "coordinate":
        name, path = draw(st.sampled_from(
            [("stream", p) for p in _paths(stream) if p[-1] in ("x", "y", "z")]
            + [("calib", p) for p in _paths(calib) if isinstance(_get(calib, p), float)]
        ))
        return name, path, draw(_NUMBERS)
    name = draw(st.sampled_from(sorted(docs)))
    path = draw(st.sampled_from(list(_paths(docs[name]))))
    return name, path, _REMOVE if kind == "remove" else draw(_ANY_JSON)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(_mutations())
def test_track_on_one_broken_field_exits_0_or_2_and_never_writes_nan(mutation):
    name, path, value = mutation
    stream, calib = _valid_inputs()
    doc = {"stream": stream, "calib": calib}[name]
    if value is _REMOVE:
        del _get(doc, path[:-1])[path[-1]]
    else:
        _set(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        code = _track(d, stream, calib, "--min-hits", "1")
        assert code in (0, 2)
        if code == 2:
            assert not (d / "out").exists()
        else:
            for f in (d / "out").iterdir():
                assert not re.search(r"NaN|Infinity", f.read_text())
