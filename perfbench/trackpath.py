"""The ``skelfuse track`` command, run in process with per-set timers.

A pass runs ``skelfuse.cli.main(["track", ...])``, the command as a user
runs it. While it runs, a thin wrapper around ``PoseTracker.ingest`` and
``PoseTracker.snapshot`` reads the clock when an ingest starts and when the
snapshot that follows it ends: that interval is the set's latency. The
outputs are read back after the pass for the checks and the accuracy score.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import logging
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skelfuse import cli
from skelfuse.tracker import PoseTracker

log = logging.getLogger("perfbench")


@dataclass
class PassResult:
    """One ``skelfuse track`` pass over a whole stream."""

    sets: int
    wall_s: float
    latencies_s: list[float]
    exit_code: int
    out_dir: Path
    digest: str
    non_finite: int = 0
    births: int = 0
    retirements: int = 0

    @property
    def incomplete(self) -> int:
        """Sets that did not complete ingest+snapshot."""
        return self.sets - len(self.latencies_s)

    @property
    def failed(self) -> int:
        """Failed sets: incomplete ones and non-finite snapshots."""
        return self.incomplete + self.non_finite


@contextlib.contextmanager
def _set_timer(latencies: list[float]):
    """Append ingest-start to snapshot-end of each set to ``latencies``."""
    ingest, snapshot = PoseTracker.__dict__["ingest"], PoseTracker.__dict__["snapshot"]
    started = [0.0]

    def timed_ingest(self, dets):
        started[0] = time.perf_counter()
        return ingest(self, dets)

    def timed_snapshot(self, t):
        snap = snapshot(self, t)
        latencies.append(time.perf_counter() - started[0])
        return snap

    PoseTracker.ingest, PoseTracker.snapshot = timed_ingest, timed_snapshot
    try:
        yield
    finally:
        PoseTracker.ingest, PoseTracker.snapshot = ingest, snapshot


def _run_track(argv) -> int:
    with contextlib.redirect_stdout(stdio.StringIO()):
        try:
            return cli.main(["track", *argv])
        except Exception:  # a crashed pass is counted, and the run goes on
            log.exception("skelfuse track raised")
            return 1


def track_pass(stream_path, calib_path, out_dir) -> PassResult:
    """Run ``skelfuse track`` on ``stream_path`` into ``out_dir``."""
    out = Path(out_dir)
    with open(stream_path, "rb") as fh:
        n_sets = sum(1 for _ in fh)
    latencies: list[float] = []
    t0 = time.perf_counter()
    with _set_timer(latencies):
        code = _run_track(["--stream", str(stream_path), "--calib", str(calib_path),
                           "--out", str(out)])
    wall = time.perf_counter() - t0
    files = [out / "events.jsonl", out / "snapshots.jsonl"]
    h = hashlib.sha256()
    for p in files:
        h.update(p.read_bytes() if p.is_file() else b"missing")
    return PassResult(sets=n_sets, wall_s=wall, latencies_s=latencies, exit_code=code,
                      out_dir=out, digest=h.hexdigest())


def _finite(snapshot_record: dict) -> bool:
    return all(
        v is None or math.isfinite(v)
        for track in snapshot_record["tracks"]
        for joint in track["joints"]
        for v in (joint["x"], joint["y"], joint["z"], joint["cov_trace"])
    )


def read_jsonl(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_outputs(passes: list[PassResult]) -> None:
    """Fill in each pass's non-finite snapshots, births and retirements.

    Passes with the same output digest share one reading of the files, so
    each pass must have written to a directory of its own.
    """
    by_digest: dict[str, tuple[int, int, int]] = {}
    for p in passes:
        if p.digest not in by_digest:
            kinds = [rec["event"] for rec in read_jsonl(p.out_dir / "events.jsonl")]
            by_digest[p.digest] = (
                sum(1 for rec in read_jsonl(p.out_dir / "snapshots.jsonl") if not _finite(rec)),
                kinds.count("created"),
                kinds.count("retired"),
            )
        p.non_finite, p.births, p.retirements = by_digest[p.digest]


def fusion_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str, str]]:
    """Latency and throughput of the track path: per pass, then the median over passes.

    A per-pass statistic with a median over passes keeps a stall of the
    shared machine during one pass from moving the run's figure. Passes
    that completed no set are left out.
    """
    passes = [p for p in passes if p.latencies_s]
    if not passes:
        nan = float("nan")
        return {"fuse_mean_ms": (nan, "ms", "no pass"), "fuse_p90_ms": (nan, "ms", "no pass"),
                "track_sets_per_s": (nan, "1/s", "no pass")}
    n_sets = [len(p.latencies_s) for p in passes]
    means = [statistics.fmean(p.latencies_s) * 1e3 for p in passes]
    p90s = [float(np.quantile(p.latencies_s, 0.9)) * 1e3 for p in passes]
    medians = [statistics.median(p.latencies_s) * 1e3 for p in passes]
    over = f"median of {len(passes)} passes of {min(n_sets)}-{max(n_sets)} sets"
    return {
        "fuse_mean_ms": (statistics.median(means), "ms",
                         f"{over}; per-set median {statistics.median(medians):.4g} ms"),
        "fuse_p90_ms": (statistics.median(p90s), "ms", over),
        "track_sets_per_s": (statistics.median(p.sets / p.wall_s for p in passes), "1/s", over),
    }
