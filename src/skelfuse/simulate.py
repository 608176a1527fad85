"""Deterministic discrete-event simulation of an asynchronous RGB-D network.

Ground truth is a set of articulated persons: a rigid torso riding a
piecewise-linear waypoint path with sinusoidal limb swing, so every bone
keeps its exact length over time. Each camera renders frames at its own
rate, adds pixel/depth noise and dropout, and delivers them with latency
jitter over a FIFO channel, so capture stamps from different cameras arrive
interleaved out of order while each camera's own stream stays ordered.

Everything is driven by per-camera RNG substreams derived from the scenario
seed and the camera id, so runs are bit-reproducible and adding a camera
never perturbs the other cameras' noise.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError, reading
from .lifting import make_detection_set
from .model import (
    CHEST,
    HEAD,
    JOINT_COUNT,
    L_ANKLE,
    L_ELBOW,
    L_HIP,
    L_KNEE,
    L_SHOULDER,
    L_WRIST,
    NECK,
    R_ANKLE,
    R_ELBOW,
    R_HIP,
    R_KNEE,
    R_SHOULDER,
    R_WRIST,
    CameraModel,
    DetectionSet,
    Skeleton3D,
    as_number,
    as_numbers,
)

# Torso joint heights/offsets in body coordinates (lateral-left, forward, up),
# meters. Limbs hang from the shoulders/hips and swing in the sagittal plane.
_TORSO = {
    HEAD: (0.0, 0.0, 1.66),
    NECK: (0.0, 0.0, 1.50),
    CHEST: (0.0, 0.0, 1.32),
    R_SHOULDER: (-0.19, 0.0, 1.45),
    L_SHOULDER: (0.19, 0.0, 1.45),
    R_HIP: (-0.11, 0.0, 0.95),
    L_HIP: (0.11, 0.0, 0.95),
}
_UPPER_ARM = 0.28
_FOREARM = 0.26
_THIGH = 0.42
_SHIN = 0.43
# Every joint's body coordinates with the limbs hanging straight down.
_BODY = np.array([_TORSO.get(j, (0.0, 0.0, 0.0)) for j in range(JOINT_COUNT)])
# Each limb's (root, middle, end) joints, its two bone lengths and its swing
# sign: each leg swings in antiphase with the same-side arm.
_LIMBS = np.array([(R_SHOULDER, R_ELBOW, R_WRIST), (L_SHOULDER, L_ELBOW, L_WRIST),
                   (R_HIP, R_KNEE, R_ANKLE), (L_HIP, L_KNEE, L_ANKLE)])
_BONES = np.array([(_UPPER_ARM, _FOREARM)] * 2 + [(_THIGH, _SHIN)] * 2)
_SWING_SIGN = np.array([+1.0, -1.0, -1.0, +1.0])
_UP = np.array([0.0, 0.0, 1.0])

DEFAULT_SPLAT_RADIUS_PX = 6.0


@dataclass(frozen=True)
class PersonSpec:
    """A simulated person: a timed 2D waypoint path plus limb articulation."""

    person_id: str
    waypoints: np.ndarray  # (n, 3) rows of (t, x, y), t non-decreasing
    heading_deg: float = 0.0
    swing_amplitude: float = 0.5  # radians of limb swing
    swing_hz: float = 1.4
    swing_phase: float = 0.0

    def __post_init__(self):
        w = np.array(self.waypoints, dtype=float)
        if w.ndim != 2 or w.shape[1] != 3 or w.shape[0] < 1:
            raise ConfigError(f"person {self.person_id!r}: waypoints must be rows of [t, x, y]")
        if np.any(np.diff(w[:, 0]) < 0):
            raise ConfigError(f"person {self.person_id!r}: waypoint times must be non-decreasing")
        motion = (self.heading_deg, self.swing_amplitude, self.swing_hz, self.swing_phase)
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(motion))):
            raise ConfigError(f"person {self.person_id!r}: waypoints and motion must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)


@dataclass(frozen=True)
class CameraSpec:
    """One simulated sensor: camera model, image size, rate, and noise."""

    camera: CameraModel
    width: int = 640
    height: int = 480
    frame_rate: float = 10.0
    latency_jitter: tuple[float, float] = (0.0, 0.0)
    pixel_sigma: float = 0.0
    depth_sigma: float = 0.0
    joint_dropout: float = 0.0
    detection_dropout: float = 0.0
    splat_radius: float = DEFAULT_SPLAT_RADIUS_PX

    def __post_init__(self):
        cid = self.camera.camera_id
        if not 0 < self.frame_rate < math.inf:
            raise ConfigError(f"camera {cid!r}: frame_rate must be positive and finite")
        lo, hi = self.latency_jitter
        if not 0 <= lo <= hi < math.inf:
            raise ConfigError(
                f"camera {cid!r}: latency_jitter bounds must satisfy 0 <= lo <= hi < inf"
            )
        for name in ("joint_dropout", "detection_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"camera {cid!r}: {name} must lie in [0, 1]")
        sizes = (self.pixel_sigma, self.depth_sigma, self.splat_radius)
        if not all(0 <= v and v * v < math.inf for v in sizes):
            raise ConfigError(
                f"camera {cid!r}: noise sigmas and splat_radius must be >= 0 with a finite square"
            )
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"camera {cid!r}: image size must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: float
    persons: tuple[PersonSpec, ...]
    cameras: tuple[CameraSpec, ...]

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.duration < math.inf:
            raise ConfigError("duration must be positive and finite")
        ids = [c.camera.camera_id for c in self.cameras]
        if len(set(ids)) != len(ids):
            raise ConfigError("camera ids must be unique")
        pids = [p.person_id for p in self.persons]
        if len(set(pids)) != len(pids):
            raise ConfigError("person ids must be unique")

    def camera_models(self) -> list[CameraModel]:
        return [c.camera for c in self.cameras]


class GroundTruth:
    """Continuous-time world-frame truth poses for every simulated person."""

    def __init__(self, persons: tuple[PersonSpec, ...], duration: float):
        self._index = {p.person_id: i for i, p in enumerate(persons)}
        self._waypoints = [p.waypoints for p in persons]
        self._amplitude = np.array([p.swing_amplitude for p in persons])
        self._omega = np.array([2.0 * math.pi * p.swing_hz for p in persons])
        self._phase = np.array([p.swing_phase for p in persons])
        psi = [math.radians(p.heading_deg) for p in persons]
        self._fwd = np.array([[math.cos(a), math.sin(a), 0.0] for a in psi]).reshape(-1, 1, 3)
        self._left = np.array([[-math.sin(a), math.cos(a), 0.0] for a in psi]).reshape(-1, 1, 3)
        self.duration = duration

    @property
    def person_ids(self) -> list[str]:
        return list(self._index)

    def poses(self, times) -> np.ndarray:
        """Every person's joints at the 1-D ``times``: ``(T, P, 15, 3)``, persons in id order.

        Raises:
            ValueError: a time outside [0, duration], or NaN.
        """
        t = np.asarray(times, dtype=float)
        outside = ~((0.0 <= t) & (t <= self.duration))
        if outside.any():
            raise ValueError(f"t={t[outside][0]} outside scenario duration [0, {self.duration}]")
        anchor = np.zeros((len(t), len(self._waypoints), 1, 3))
        for p, w in enumerate(self._waypoints):
            anchor[:, p, 0, 0] = np.interp(t, w[:, 0], w[:, 1])
            anchor[:, p, 0, 1] = np.interp(t, w[:, 0], w[:, 2])
        theta = self._amplitude * np.sin(self._omega * t[:, None] + self._phase)
        a = _SWING_SIGN * theta[..., None]
        # Unit limb directions in the sagittal plane: straight down at 0 swing.
        swing = np.stack((np.zeros_like(a), np.sin(a), -np.cos(a)), axis=-1)
        local = np.broadcast_to(_BODY, anchor.shape[:2] + _BODY.shape).copy()
        root, middle, end = _LIMBS.T
        local[:, :, middle] = local[:, :, root] + _BONES[:, 0:1] * swing
        local[:, :, end] = local[:, :, middle] + _BONES[:, 1:2] * swing
        return (anchor + local[..., 0:1] * self._left + local[..., 1:2] * self._fwd
                + local[..., 2:3] * _UP)

    def truth_at(self, person_id: str, t: float) -> Skeleton3D:
        """One person's row of ``poses([t])``; KeyError for an unknown person."""
        if person_id not in self._index:
            raise KeyError(f"unknown person {person_id!r}")
        pose = self.poses([t])[0, self._index[person_id]]
        return Skeleton3D(pose, np.ones(JOINT_COUNT, dtype=bool))


def look_at_extrinsic(position, look_at, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Camera->world extrinsic for a camera at ``position`` aimed at ``look_at``.

    Optical axis +Z toward the target, +X right, +Y down (image convention).
    """
    position = np.asarray(position, dtype=float)
    z = np.asarray(look_at, dtype=float) - position
    norm = np.linalg.norm(z)
    if norm < 1e-12:
        raise ConfigError("camera position and look_at target coincide")
    z = z / norm
    x = np.cross(z, np.asarray(up, dtype=float))
    xnorm = np.linalg.norm(x)
    if xnorm < 1e-12:
        raise ConfigError("camera optical axis is parallel to the up vector")
    x = x / xnorm
    y = np.cross(z, x)
    m = np.eye(4)
    m[:3, 0] = x
    m[:3, 1] = y
    m[:3, 2] = z
    m[:3, 3] = position
    return m


def _splat(
    px: np.ndarray, py: np.ndarray, z: np.ndarray, person: np.ndarray, n_persons: int,
    spec: CameraSpec,
) -> tuple[np.ndarray, np.ndarray, list[int], list[geometry.DepthWindow]]:
    """Every person's depth window of one frame, as views of one flat buffer.

    Joint i, of person ``person[i]``, lies at in-image pixel ``(px[i], py[i])``
    with depth ``z[i]``, person by person and in joint order within a
    person. Each splats its depth into its disk, all disks in one
    ``geometry.disks`` broadcast over the whole image. Person k's window is
    the union of their joints' clipped disk windows, 0x0 at the origin when
    they have none. The windows lie row-major in ``depth``, one after
    another in person order, NaN where no disk reaches. ``owned`` holds the
    indices of the pixels a disk reaches, in ascending order, and
    ``filled[k]`` counts those in person k's window.

    A pixel belongs to the joint with the least ``d2 < radius**2``, and a tie
    goes to the earlier joint: exactly the sequential rule under which a
    pixel changes hands only to a strictly nearer joint. Windows share no
    pixel, so persons never compete. Returns ``(depth, owned, filled, windows)``.
    """
    d = geometry.disks((0, 0, spec.height, spec.width), px, py, spec.splat_radius)
    some = (d.top < d.bottom) & (d.left < d.right)
    top = np.full(n_persons, spec.height)
    left = np.full(n_persons, spec.width)
    bottom = np.zeros(n_persons, dtype=np.intp)
    right = np.zeros(n_persons, dtype=np.intp)
    np.minimum.at(top, person[some], d.top[some])
    np.minimum.at(left, person[some], d.left[some])
    np.maximum.at(bottom, person[some], d.bottom[some])
    np.maximum.at(right, person[some], d.right[some])
    none = bottom == 0
    top[none] = 0
    left[none] = 0
    rows, cols = bottom - top, right - left
    size = rows * cols
    end = np.cumsum(size)
    start = end - size

    def per_disk(a):
        return a[person][:, None, None]

    at = per_disk(start) + (d.rows - per_disk(top)) * per_disk(cols) + (d.cols - per_disk(left))
    at, d2 = at[d.inside], d.d2[d.inside]
    disk = np.repeat(np.arange(len(z)), np.count_nonzero(d.inside, axis=(1, 2)))
    # One frame-sized buffer holds in turn each pixel's least d2, its owning
    # disk (an exact float) and its depth, so a frame allocates about what
    # its windows hold.
    buf = np.full(int(size.sum()), np.inf)
    np.minimum.at(buf, at, d2)
    nearest = d2 == buf[at]
    buf.fill(np.inf)
    np.minimum.at(buf, at[nearest], disk[nearest].astype(float))
    owned = np.flatnonzero(buf < np.inf)
    owner = buf[owned].astype(np.intp)
    depth = buf
    depth.fill(np.nan)
    depth[owned] = z[owner]
    filled = np.diff(np.searchsorted(owned, end), prepend=0)
    windows = [
        geometry.DepthWindow(depth[s:e].reshape(r, c), y0, x0, (spec.height, spec.width))
        for s, e, y0, x0, r, c in zip(start.tolist(), end.tolist(), top.tolist(), left.tolist(),
                                      rows.tolist(), cols.tolist())
    ]
    return depth, owned, filled.tolist(), windows


def render_detection(
    gt: GroundTruth, spec: CameraSpec, t: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, list[geometry.DepthWindow]] | None:
    """Synthesize one camera frame: per-person noisy 2D skeletons + depth windows.

    Returns ``(pixels, valid, windows)``, one entry per person along the
    first axis: ``pixels`` is (P, 15, 2), ``valid`` (P, 15) bool with zero
    pixels where invalid, and ``windows`` a list of P depth windows. Joints
    behind the camera or outside the image come out invalid, as do
    dropout-sampled joints; with probability ``detection_dropout`` the whole
    frame yields None. Each person gets their own sparse depth image with
    depth splatted in disks around that person's true joint projections,
    elsewhere missing (NaN); within a person, overlapping splats resolve to
    the nearest joint center. Only the union of a person's disks (clipped to
    the image) is allocated, so a person out of view gets a 0x0 window.
    Persons never contaminate each other's depth — occlusion between persons
    is out of scope here, dropout probability stands in for it.

    The frame is rendered with persons and joints as array axes: one
    ``GroundTruth.poses`` call gives every person's true joints, one
    ``geometry.world_to_pixels`` call projects them, and one broadcast
    splats every disk. The random draws keep a
    person-by-person order: pixel noise, joint dropout, then depth noise for
    the finite pixels of the person's window in row-major order. Their
    counts depend on geometry only, so the splat comes first.
    """
    if rng.random() < spec.detection_dropout:
        return None
    cam = spec.camera
    w, h = spec.width, spec.height
    n_persons = len(gt.person_ids)
    true_px, z = geometry.world_to_pixels(gt.poses([t])[0], cam)
    px, py = true_px[..., 0], true_px[..., 1]
    # A joint behind the camera has a NaN pixel, so it is never seen.
    seen = (0.0 <= px) & (px < w) & (0.0 <= py) & (py < h)
    depth, owned, filled, windows = _splat(
        px[seen], py[seen], z[seen], np.nonzero(seen)[0], n_persons, spec)

    noise = np.empty((n_persons, JOINT_COUNT, 2))
    drops = np.empty((n_persons, JOINT_COUNT))
    depth_noise = []
    for k, n in enumerate(filled):
        noise[k] = rng.normal(0.0, spec.pixel_sigma, size=(JOINT_COUNT, 2))
        drops[k] = rng.random(JOINT_COUNT)
        if n:
            depth_noise.append(rng.normal(0.0, spec.depth_sigma, size=n))
    if depth_noise:
        # The windows are views of ``depth``: this noises them all.
        depth[owned] += np.concatenate(depth_noise)

    nx, ny = px + noise[..., 0], py + noise[..., 1]
    valid = seen & (0.0 <= nx) & (nx < w) & (0.0 <= ny) & (ny < h) & ~(drops < spec.joint_dropout)
    pixels = np.where(valid[..., None], np.stack((nx, ny), axis=-1), 0.0)
    return pixels, valid, windows


@dataclass(frozen=True)
class SimEvent:
    """One delivered detection set; ``arrival`` is master-node receive time."""

    arrival: float
    detections: DetectionSet


def _camera_rng(seed: int, camera_id: str) -> np.random.Generator:
    # Substream keyed by the camera id, not its list position, so editing the
    # camera list never perturbs other cameras' noise.
    digest = hashlib.sha256(camera_id.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def run_scenario(cfg: ScenarioConfig) -> tuple[list[SimEvent], GroundTruth]:
    """Simulate the whole network; returns the arrival-ordered event stream.

    Frames are captured at each camera's fixed rate, piped through the
    single-view lifting path, and delivered at capture time plus latency
    jitter under FIFO (per-camera order preserved). The merged stream is
    sorted by arrival, so cross-camera capture stamps can be out of order.
    Fully deterministic for a given config.
    """
    gt = GroundTruth(cfg.persons, cfg.duration)
    events: list[SimEvent] = []
    for spec in cfg.cameras:
        rng = _camera_rng(cfg.seed, spec.camera.camera_id)
        lo, hi = spec.latency_jitter
        prev_arrival = 0.0
        n_frames = math.ceil(cfg.duration * spec.frame_rate)
        for k in range(n_frames):
            t = k / spec.frame_rate
            if t >= cfg.duration:
                break
            jitter = rng.uniform(lo, hi)
            rendered = render_detection(gt, spec, t, rng)
            if rendered is None:
                continue
            dets = make_detection_set(*rendered, spec.camera, t)
            arrival = max(prev_arrival, t + jitter)
            prev_arrival = arrival
            events.append(SimEvent(arrival=arrival, detections=dets))
    events.sort(key=lambda e: (e.arrival, e.detections.camera_id, e.detections.stamp))
    return events, gt


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------

def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return d[key]


def _int(value) -> int:
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _point(value) -> np.ndarray:
    p = as_numbers(value)
    if p.shape != (3,):
        raise ValueError(f"expected [x, y, z], got shape {p.shape}")
    return p


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return as_number(lo), as_number(hi)


# Key -> converter for every key a scenario entry may hold. Only the keys
# present are passed on, so an optional key's default lives on its spec. A
# number is a JSON number, never a bool or a string; an int key takes an int.
_PERSON_KEYS = {
    "waypoints": as_numbers, "heading_deg": as_number, "swing_amplitude": as_number,
    "swing_hz": as_number, "swing_phase": as_number,
}
_POSE_KEYS = {"extrinsic": as_numbers, "position": _point, "look_at": _point, "up": _point}
_INTRINSIC_KEYS = {"fx": as_number, "fy": as_number, "cx": as_number, "cy": as_number}
_CAMERA_KEYS = {
    "width": _int, "height": _int, "frame_rate": as_number, "latency_jitter": _pair,
    "pixel_sigma": as_number, "depth_sigma": as_number, "joint_dropout": as_number,
    "detection_dropout": as_number, "splat_radius": as_number,
}
_SCENARIO_KEYS = {"seed": _int, "duration": as_number}


def _convert(d: dict, table: dict, where: str) -> dict:
    out = {}
    for key, convert in table.items():
        if key in d:
            try:
                out[key] = convert(d[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{where}: bad {key!r} value {d[key]!r}: {exc}") from exc
    return out


def _entries(d: dict, key: str) -> list:
    entries = _require(d, key, "scenario")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"scenario: {key!r} must be a list of mappings")
    return entries


def person_from_dict(d: dict) -> PersonSpec:
    pid = str(_require(d, "id", "person"))
    where = f"person {pid!r}"
    _require(d, "waypoints", where)
    return PersonSpec(person_id=pid, **_convert(d, _PERSON_KEYS, where))


def camera_from_dict(d: dict) -> CameraSpec:
    cid = str(_require(d, "id", "camera"))
    where = f"camera {cid!r}"
    for key in (*_INTRINSIC_KEYS, "frame_rate"):
        _require(d, key, where)
    pose = _convert(d, _POSE_KEYS, where)
    if "extrinsic" in pose:
        extrinsic = pose["extrinsic"]
    elif "position" in pose and "look_at" in pose:
        extrinsic = look_at_extrinsic(**pose)
    else:
        raise ConfigError(f"{where}: provide either 'extrinsic' or 'position' + 'look_at'")
    cam = CameraModel(camera_id=cid, extrinsic=extrinsic, **_convert(d, _INTRINSIC_KEYS, where))
    return CameraSpec(camera=cam, **_convert(d, _CAMERA_KEYS, where))


def scenario_from_dict(d: dict) -> ScenarioConfig:
    if not isinstance(d, dict):
        raise ConfigError("scenario file must hold a mapping at the top level")
    persons = tuple(person_from_dict(p) for p in _entries(d, "persons"))
    cameras = tuple(camera_from_dict(c) for c in _entries(d, "cameras"))
    if not cameras:
        raise ConfigError("scenario: at least one camera is required")
    for key in _SCENARIO_KEYS:
        _require(d, key, "scenario")
    return ScenarioConfig(
        persons=persons, cameras=cameras, **_convert(d, _SCENARIO_KEYS, "scenario")
    )


# A YAML 1.2 float, resolved after PyYAML's YAML 1.1 types and only on plain
# scalars: YAML 1.1 wants a dot and a signed exponent, so ``1e1`` is a string.
_YAML12_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$")


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package, or None."""
    from importlib import resources

    candidate = resources.files("skelfuse") / "scenarios" / f"{name}.yaml"
    return candidate if candidate.is_file() else None


def load_scenario(path, seed_override: int | None = None) -> ScenarioConfig:
    """Parse a YAML scenario file, with libyaml where PyYAML has it; see the README for the schema."""
    import yaml

    Loader = type("Loader", (getattr(yaml, "CSafeLoader", yaml.SafeLoader),), {})
    Loader.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT, list("-+.0123456789"))
    with reading(path), open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=Loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = f" (line {mark.line + 1})" if mark is not None else ""
            raise ConfigError(f"{path}: invalid YAML{line}: {exc}") from exc
    cfg = scenario_from_dict(raw)
    if seed_override is not None:
        cfg = ScenarioConfig(
            seed=seed_override, duration=cfg.duration, persons=cfg.persons, cameras=cfg.cameras
        )
    return cfg
