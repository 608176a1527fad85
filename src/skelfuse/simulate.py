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
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConfigError
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
    Skeleton2D,
    Skeleton3D,
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
        if not all(0 <= v < math.inf for v in sizes):
            raise ConfigError(f"camera {cid!r}: noise sigmas and splat_radius must be finite, >= 0")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError(f"camera {cid!r}: image size must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration: float
    persons: tuple[PersonSpec, ...]
    cameras: tuple[CameraSpec, ...]

    def __post_init__(self):
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
        self._persons = {p.person_id: p for p in persons}
        self.duration = duration

    @property
    def person_ids(self) -> list[str]:
        return list(self._persons)

    def truth_at(self, person_id: str, t: float) -> Skeleton3D:
        """Evaluate one person's pose; deterministic, continuous in t.

        Raises:
            KeyError: unknown person id.
            ValueError: t outside [0, duration].
        """
        if person_id not in self._persons:
            raise KeyError(f"unknown person {person_id!r}")
        if not 0.0 <= t <= self.duration:
            raise ValueError(f"t={t} outside scenario duration [0, {self.duration}]")
        return _pose_at(self._persons[person_id], t)


def _pose_at(spec: PersonSpec, t: float) -> Skeleton3D:
    w = spec.waypoints
    anchor_x = float(np.interp(t, w[:, 0], w[:, 1]))
    anchor_y = float(np.interp(t, w[:, 0], w[:, 2]))

    theta = spec.swing_amplitude * math.sin(
        2.0 * math.pi * spec.swing_hz * t + spec.swing_phase
    )

    local = np.zeros((JOINT_COUNT, 3))
    for joint_id, offset in _TORSO.items():
        local[joint_id] = offset

    def swing(sign: float) -> np.ndarray:
        # Unit limb direction in the sagittal plane: straight down at 0 swing.
        a = sign * theta
        return np.array([0.0, math.sin(a), -math.cos(a)])

    local[R_ELBOW] = local[R_SHOULDER] + _UPPER_ARM * swing(+1)
    local[R_WRIST] = local[R_ELBOW] + _FOREARM * swing(+1)
    local[L_ELBOW] = local[L_SHOULDER] + _UPPER_ARM * swing(-1)
    local[L_WRIST] = local[L_ELBOW] + _FOREARM * swing(-1)
    # Each leg swings in antiphase with the same-side arm.
    local[R_KNEE] = local[R_HIP] + _THIGH * swing(-1)
    local[R_ANKLE] = local[R_KNEE] + _SHIN * swing(-1)
    local[L_KNEE] = local[L_HIP] + _THIGH * swing(+1)
    local[L_ANKLE] = local[L_KNEE] + _SHIN * swing(+1)

    psi = math.radians(spec.heading_deg)
    fwd = np.array([math.cos(psi), math.sin(psi), 0.0])
    left = np.array([-math.sin(psi), math.cos(psi), 0.0])
    up = np.array([0.0, 0.0, 1.0])
    world = (
        np.array([anchor_x, anchor_y, 0.0])
        + local[:, 0:1] * left
        + local[:, 1:2] * fwd
        + local[:, 2:3] * up
    )
    return Skeleton3D(world, np.ones(JOINT_COUNT, dtype=bool))


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


def _splat_disk(
    depth: np.ndarray, best_d2: np.ndarray, px: float, py: float, z: float, radius: float
) -> None:
    """Write ``z`` into the disk around (px, py); nearest joint center wins."""
    h, w = depth.shape
    x0 = max(0, math.ceil(px - radius))
    x1 = min(w - 1, math.floor(px + radius))
    y0 = max(0, math.ceil(py - radius))
    y1 = min(h - 1, math.floor(py + radius))
    if x0 > x1 or y0 > y1:
        return
    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    d2 = (ys[:, None] - py) ** 2 + (xs[None, :] - px) ** 2
    sel = (d2 < radius**2) & (d2 < best_d2[y0:y1 + 1, x0:x1 + 1])
    depth[y0:y1 + 1, x0:x1 + 1][sel] = z
    best_d2[y0:y1 + 1, x0:x1 + 1][sel] = d2[sel]


def render_detection(
    gt: GroundTruth, spec: CameraSpec, t: float, rng: np.random.Generator
) -> tuple[list[Skeleton2D], list[np.ndarray]] | None:
    """Synthesize one camera frame: per-person noisy 2D skeletons + depth maps.

    Joints behind the camera or outside the image come out invalid, as do
    dropout-sampled joints; with probability ``detection_dropout`` the whole
    frame yields None. Each person gets their own sparse (height, width) depth
    map with depth splatted in disks around that person's true joint
    projections, elsewhere missing (NaN); within a person, overlapping splats
    resolve to the nearest joint center. Persons never contaminate each other's depth — occlusion between
    persons is out of scope here, dropout probability stands in for it.
    """
    if rng.random() < spec.detection_dropout:
        return None
    cam = spec.camera
    w, h = spec.width, spec.height
    cam_from_world = cam.camera_from_world

    skeletons = []
    depth_maps = []
    for person_id in gt.person_ids:
        truth = gt.truth_at(person_id, t)
        noise = rng.normal(0.0, spec.pixel_sigma, size=(JOINT_COUNT, 2))
        drops = rng.random(JOINT_COUNT)
        depth = np.full((h, w), np.nan)
        best_d2 = np.full((h, w), np.inf)
        pixels = np.zeros((JOINT_COUNT, 2))
        valid = np.zeros(JOINT_COUNT, dtype=bool)
        for j in range(JOINT_COUNT):
            p_cam = geometry.transform_point(truth.joints[j], cam_from_world)
            if p_cam[2] <= 0.0:
                continue
            px, d = geometry.project(p_cam, cam)
            if not (0.0 <= px.x < w and 0.0 <= px.y < h):
                continue
            _splat_disk(depth, best_d2, px.x, px.y, d, spec.splat_radius)
            nx, ny = px.x + noise[j, 0], px.y + noise[j, 1]
            if not (0.0 <= nx < w and 0.0 <= ny < h):
                continue
            if drops[j] < spec.joint_dropout:
                continue
            pixels[j] = (nx, ny)
            valid[j] = True
        holes = np.isfinite(depth)
        n = int(np.count_nonzero(holes))
        if n:
            depth[holes] += rng.normal(0.0, spec.depth_sigma, size=n)
        skeletons.append(Skeleton2D(pixels, valid))
        depth_maps.append(depth)
    return skeletons, depth_maps


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
            skeletons, depth_maps = rendered
            dets = make_detection_set(skeletons, depth_maps, spec.camera, t)
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


def _array(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _point(value) -> np.ndarray:
    p = _array(value)
    if p.shape != (3,):
        raise ValueError(f"expected [x, y, z], got shape {p.shape}")
    return p


def _pair(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


# Key -> converter for every key a scenario entry may hold. Only the keys
# present are passed on, so an optional key's default lives on its spec.
_PERSON_KEYS = {
    "waypoints": _array, "heading_deg": float, "swing_amplitude": float,
    "swing_hz": float, "swing_phase": float,
}
_POSE_KEYS = {"extrinsic": _array, "position": _point, "look_at": _point, "up": _point}
_INTRINSIC_KEYS = {"fx": float, "fy": float, "cx": float, "cy": float}
_CAMERA_KEYS = {
    "width": int, "height": int, "frame_rate": float, "latency_jitter": _pair,
    "pixel_sigma": float, "depth_sigma": float, "joint_dropout": float,
    "detection_dropout": float, "splat_radius": float,
}
_SCENARIO_KEYS = {"seed": int, "duration": float}


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


def bundled_scenario_path(name: str):
    """Filesystem path of a scenario shipped with the package, or None."""
    from importlib import resources

    candidate = resources.files("skelfuse") / "scenarios" / f"{name}.yaml"
    return candidate if candidate.is_file() else None


def load_scenario(path, seed_override: int | None = None) -> ScenarioConfig:
    """Parse a YAML scenario file; see the README for the schema."""
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
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
