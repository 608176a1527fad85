"""The offline workload: ``simulate -> track -> evaluate`` per seed, in process.

Set-up writes one seeded copy of the bundled scenario per seed; the program
sees only these files. All three commands run through
``skelfuse.cli.main``, ``evaluate`` with default camera subsets and MAF
windows; ``track`` runs with the per-set timers of ``trackpath``, so the
fusion latency is measured here too.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from skelfuse import cli, simulate
from skelfuse.evaluation import EvalReport, ReportCell
from skelfuse.model import JOINT_NAMES, LIMB_JOINTS

import scenarios
from outcome import Outcome
from trackpath import PassResult, check_outputs, fusion_metrics, track_pass

log = logging.getLogger("perfbench")

SCENARIO = "four_kinect_walk"
# Seeded scenario files built in set-up; pipelines cycle through them.
N_SCENARIOS = 8
COMMANDS_PER_PIPELINE = 3


def prepare(seed: int, workdir: Path) -> tuple[list[Path], list[float]]:
    """Write and validate the seeded scenario files; returns paths and build times."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths, build_s = [], []
    for i in range(N_SCENARIOS):
        t0 = time.perf_counter()
        path = workdir / f"scenario{i}.yaml"
        path.write_text(scenarios.seeded_scenario_yaml(SCENARIO, scenarios.derive_seed(seed, i)),
                        encoding="utf-8")
        simulate.load_scenario(path)
        build_s.append(time.perf_counter() - t0)
        paths.append(path)
    return paths, build_s


def _cli(argv) -> int:
    with contextlib.redirect_stdout(stdio.StringIO()):
        try:
            return cli.main(argv)
        except Exception:  # a crashed command is counted, and the run goes on
            log.exception("skelfuse %s raised", argv[0])
            return 1


def report_reproj(report_csv: Path, config: str) -> float:
    """``EvalReport.aggregate_mean`` of "ours" for ``config``, read back from report.csv."""
    lines = report_csv.read_text(encoding="utf-8").splitlines()
    cells, configs, methods = {}, [], []
    for line in lines[1:]:
        cfg, method, joint, mean_px, std_px, n, n_excl = line.split(",")
        configs += [cfg] if cfg not in configs else []
        methods += [method] if method not in methods else []
        cells[(cfg, method, JOINT_NAMES.index(joint))] = ReportCell(
            float(mean_px), float(std_px), int(n), int(n_excl))
    return EvalReport(configs, methods, list(LIMB_JOINTS), cells).aggregate_mean(config, "ours")


@dataclass
class PipelineRun:
    scenario: Path
    wall_s: float
    failed_commands: int
    tracked: PassResult | None
    report: str  # report.csv text, empty when evaluate wrote none
    reproj_px: float


def pipeline(scenario: Path, workdir: Path, full_network: str) -> PipelineRun:
    """One seed through simulate, track and evaluate, in ``workdir``."""
    sim, trk, ev = workdir / "sim", workdir / "trk", workdir / "eval"
    t0 = time.perf_counter()
    failed = _cli(["simulate", "--scenario", str(scenario), "--out", str(sim)]) != 0
    try:
        tracked = track_pass(sim / "stream.jsonl", sim / "calibration.json", trk)
    except OSError:  # simulate wrote no stream
        log.exception("no stream to track")
        tracked = None
    failed += tracked is None or tracked.exit_code != 0
    failed += _cli(["evaluate", "--scenario", str(scenario), "--out", str(ev)]) != 0
    wall = time.perf_counter() - t0
    report = ev / "report.csv"
    if not report.is_file():
        return PipelineRun(scenario, wall, failed, tracked, "", float("nan"))
    return PipelineRun(scenario, wall, failed, tracked, report.read_text(encoding="utf-8"),
                       report_reproj(report, full_network))


def run(seed: int, seconds: float, tracer, workdir: Path) -> Outcome:
    """Pipelines for ``seconds``, then the first scenario file once more to
    check that it reports the same (or, with a tracer, pipelines of the
    first scenario file untraced and traced by turns)."""
    out = Outcome()
    scenario_paths, build_s = prepare(seed, workdir / "input")
    full_network = f"{len(simulate.load_scenario(scenario_paths[0]).cameras)}-cam"
    ids = itertools.count()

    def next_pipeline(path=scenario_paths[0]):
        return pipeline(path, workdir / f"pipeline{next(ids):03d}", full_network)

    if tracer is None:
        runs = []
        t0 = time.perf_counter()
        while True:
            runs.append(next_pipeline(scenario_paths[len(runs) % N_SCENARIOS]))
            # Stop before a pipeline that would end after the run's time.
            if time.perf_counter() - t0 + runs[-1].wall_s > seconds:
                break
        timed = list(runs)
        runs.append(next_pipeline())  # outside the timings, for the check below
    else:
        timed, traced = tracer.alternate(next_pipeline)
        runs = timed + traced  # a traced pipeline times the tracer too
        out.per_layer = {**tracer.metrics(), **tracer.overhead_metrics(
            [r.wall_s for r in timed], [r.wall_s for r in traced])}
    first = runs[0]
    repeats = [r for r in runs[1:] if r.scenario == first.scenario]
    out.check("every repeat of the first scenario file writes the same report",
              all(r.report == first.report for r in repeats), f"{len(repeats)} repeats")

    passes = [r.tracked for r in runs if r.tracked is not None]
    check_outputs(passes)
    out.check("every repeat of the first scenario file writes the same track output",
              first.tracked is not None
              and all(r.tracked is not None and r.tracked.digest == first.tracked.digest
                      for r in repeats))
    failed_commands = sum(r.failed_commands for r in runs)
    out.attempted = COMMANDS_PER_PIPELINE * len(runs) + sum(p.sets for p in passes)
    out.failed = failed_commands + sum(p.failed for p in passes)
    out.check("every command exits 0", failed_commands == 0, f"{failed_commands} failed")
    out.check("every snapshot finite and every set completed", not any(p.failed for p in passes))

    out.reproj_px = first.reproj_px
    out.metrics = {
        "setup_s": (statistics.median(build_s), "s", f"median of {len(build_s)} scenario files"),
        **fusion_metrics([r.tracked for r in timed if r.tracked is not None]),
        "pipeline_s": (statistics.median(r.wall_s for r in timed), "s",
                       f"median of {len(timed)} seeds (simulate+track+evaluate)"),
        "reproj_px": (out.reproj_px, "px", f"{full_network} ours, first seed"),
    }
    out.info = {
        "pipelines": len(timed),
        "sets_per_pipeline": [p.sets for p in passes],
        "births": [p.births for p in passes],
        "scenario_build_s": build_s,
    }
    return out
