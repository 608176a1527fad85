"""Seeded scenario generators for the benchmark workloads.

A replay workload's input is a *timeline*: a camera network plus persons
whose motion is defined over the whole stream. The stream is simulated in
windows of ``window_s`` seconds, each a separate ``run_scenario`` call with
its own seed derived from the benchmark seed. Every window sees the persons
where the timeline puts them, so motion stays continuous across windows,
and each window's build time is one set-up sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import yaml

from skelfuse import simulate

CROWD_PERSONS = 10
CROWD_CAMERAS = 8
# Persons waiting outside the covered area stand this far from the ring's
# centre, where no camera of the crowd ring sees any of their joints.
CROWD_PARK_RADIUS_M = 30.0
# Inside this radius every camera of the crowd ring sees (nearly) the whole body.
CROWD_AREA_RADIUS_M = 3.0
# Persons enter and leave through doors at this radius, inside the area
# every camera sees: a person appears and vanishes whole, so the tracker's
# births and retirements follow the visits rather than the sensor noise.
CROWD_DOOR_RADIUS_M = 2.9
# A visit turns back at a point between these radii, so persons in
# neighbouring sectors stay apart.
CROWD_TURN_RADII_M = (1.5, 1.9)
CROWD_VISIT_S = 3.0
CROWD_ABSENCE_S = 1.6  # longer than the tracker's age limit, so tracks retire


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one sub-stream of the benchmark seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass(frozen=True)
class Timeline:
    """A camera network and persons defined over ``n_windows * window_s`` seconds."""

    seed: int
    cameras: tuple[simulate.CameraSpec, ...]
    persons: tuple[simulate.PersonSpec, ...]
    window_s: float
    n_windows: int

    @property
    def duration(self) -> float:
        return self.window_s * self.n_windows

    def window(self, w: int) -> simulate.ScenarioConfig:
        """Scenario of window ``w``: the persons shifted to start at the window."""
        start = w * self.window_s
        persons = tuple(
            replace(
                p,
                waypoints=p.waypoints - np.array([start, 0.0, 0.0]),
                swing_phase=p.swing_phase + 2.0 * math.pi * p.swing_hz * start,
            )
            for p in self.persons
        )
        return simulate.ScenarioConfig(
            seed=derive_seed(self.seed, w),
            duration=self.window_s,
            persons=persons,
            cameras=self.cameras,
        )

    def ground_truth(self) -> simulate.GroundTruth:
        return simulate.GroundTruth(self.persons, self.duration)


def _repeat_path(waypoints: np.ndarray, duration: float) -> np.ndarray:
    """Extend a closed waypoint loop periodically until it covers ``duration``."""
    w = np.asarray(waypoints, dtype=float)
    if not np.allclose(w[0, 1:], w[-1, 1:]):
        raise ValueError("only a closed waypoint loop can be repeated")
    period = w[-1, 0] - w[0, 0]
    rows = [w]
    while rows[-1][-1, 0] < duration:
        rows.append(rows[-1][1:] + np.array([period, 0.0, 0.0]))
    return np.concatenate(rows)


def jitter3(seed: int, n_windows: int, window_s: float) -> Timeline:
    """The bundled ``three_person_jitter`` network with its walking loop repeated."""
    base = simulate.load_scenario(simulate.bundled_scenario_path("three_person_jitter"))
    duration = window_s * n_windows
    persons = tuple(replace(p, waypoints=_repeat_path(p.waypoints, duration)) for p in base.persons)
    return Timeline(seed, base.cameras, persons, window_s, n_windows)


def _ring_camera(i: int, n: int, lagging: bool) -> simulate.CameraSpec:
    angle = 2.0 * math.pi * i / n
    return simulate.camera_from_dict({
        "id": f"c{i}",
        "fx": 525.0, "fy": 525.0, "cx": 319.5, "cy": 239.5,
        "width": 640, "height": 480,
        # High and tilted down at the floor centre, so the far side of the
        # ring (and anyone parked outside it) stays out of view.
        "position": [5.0 * math.cos(angle), 5.0 * math.sin(angle), 4.0],
        "look_at": [0.0, 0.0, 0.0],
        "frame_rate": 9.4 + 0.3 * (i % 5),
        # One camera sits on a congested link: its sets lag the newest
        # stamp by more than the tracker's stale tolerance and are dropped.
        "latency_jitter": [0.65, 0.8] if lagging else [0.0, 0.1],
        "pixel_sigma": 2.0,
        "depth_sigma": 0.02,
        "joint_dropout": 0.10,
        "detection_dropout": 0.05,
    })


def _crowd_person(i: int, n: int, rng: np.random.Generator, duration: float) -> simulate.PersonSpec:
    """Person ``i`` of ``n``: 3 s visits to sector ``i`` of the area.

    A visit enters through a door, walks to a turning point and leaves
    through another door of the same sector, then the person waits outside;
    the jumps between the parking spot and the doors take no time. Visits
    are staggered by ``i``, and pose and paths vary little with the seed, so
    the number of persons inside, the tracker's load and what the reference
    camera sees follow nearly the same schedule whatever the seed. The seed
    draws small offsets of doors, turning points and visit times, and the
    sensor noise.
    """
    sector = 2.0 * math.pi / n

    def at(radius, lo, hi):
        angle = (i + rng.uniform(lo, hi)) * sector
        return np.array([radius * math.cos(angle), radius * math.sin(angle)])

    park = at(CROWD_PARK_RADIUS_M, 0.4, 0.6)
    t = -(CROWD_VISIT_S + CROWD_ABSENCE_S) * (1.0 - i / n)
    rows = []
    while t < duration:
        path = [at(CROWD_DOOR_RADIUS_M, 0.1, 0.3),
                at(rng.uniform(*CROWD_TURN_RADII_M), 0.4, 0.6),
                at(CROWD_DOOR_RADIUS_M, 0.7, 0.9)]
        lengths = [float(np.linalg.norm(q - p)) for p, q in zip(path, path[1:])]
        rows += [(t, *park), (t, *path[0])]
        for length, pos in zip(lengths, path[1:]):
            t += CROWD_VISIT_S * length / sum(lengths)
            rows.append((t, *pos))
        rows.append((t, *park))
        t += CROWD_ABSENCE_S + rng.uniform(0.0, 0.2)
    return simulate.PersonSpec(
        person_id=f"p{i}",
        waypoints=np.array(rows),
        heading_deg=math.degrees((i + 0.5) * sector) + 180.0,  # facing the centre
        swing_amplitude=0.4,
        swing_phase=float(i),
    )


def crowd(seed: int, n_windows: int, window_s: float) -> Timeline:
    """Persons walking into and out of a ring of cameras."""
    rng = np.random.default_rng(derive_seed(seed, 0xC20D))
    duration = window_s * n_windows
    persons = tuple(_crowd_person(i, CROWD_PERSONS, rng, duration) for i in range(CROWD_PERSONS))
    cameras = tuple(_ring_camera(i, CROWD_CAMERAS, lagging=i == CROWD_CAMERAS - 1)
                    for i in range(CROWD_CAMERAS))
    return Timeline(seed, cameras, persons, window_s, n_windows)


def in_crowd_area(point) -> bool:
    return math.hypot(point[0], point[1]) <= CROWD_AREA_RADIUS_M


def seeded_scenario_yaml(name: str, seed: int) -> str:
    """A bundled scenario's YAML text with its seed replaced."""
    with open(simulate.bundled_scenario_path(name), "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    doc["seed"] = seed
    return yaml.safe_dump(doc, sort_keys=False)
