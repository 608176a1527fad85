"""skelfuse benchmark: run one workload with one seed.

    python3 perfbench/run.py --workload jitter3 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it wraps the program's public functions and
reports per-layer metrics. Either way it checks the program's outputs. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, the checks, the core count and the
load average. Per-run details go to ``perfbench/_work/results/`` and the
spans of a traced run to ``perfbench/_work/spans/``.

See perfbench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread: the load comes from this one process, and on a 2-core
# machine a second BLAS thread would compete with it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import math
import resource
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
EXPECTED = HERE / "expected.json"

# Per workload, the per-layer metrics that must read nonzero in a traced
# run: those of every layer whose work should move an end-to-end metric on
# that workload (see README.md). A zero means a binding was missed.
_SIMULATE = ("simulate.render_us_per_person_frame", "simulate.person_frames")
_FUSION = (
    "ukf.predict_us", "ukf.predict_calls", "ukf.update_us", "ukf.update_calls", "ukf.init_calls",
    "association.us_per_set", "association.cost_cells", "association.us_per_cost_cell",
    "association.munkres_us", "association.gate_accept_ratio",
    "tracker.ingest_self_us_per_set", "tracker.snapshot_us_per_track", "tracker.births",
    "tracker.out_of_order_sets",
    "io.parse_us_per_set", "io.write_us_per_record",
)
REQUIRED_NONZERO = {
    # The paper's regime: no one leaves and jitter stays far below the stale
    # tolerance, so retirements and stale drops may read zero here.
    "jitter3": _SIMULATE + _FUSION,
    "crowd": _SIMULATE + _FUSION + ("tracker.retirements", "tracker.stale_drops"),
    "offline_eval": _SIMULATE + (
        "lifting.lift_us_per_skeleton", "lifting.skeletons",
        "geometry.median_depth_us", "geometry.median_depth_calls",
        "evaluation.self_s_per_seed", "evaluation.samples",
    ),
}
WORKLOADS = tuple(REQUIRED_NONZERO)

# Replay input sizes: set-up builds at least three windows, and a run of
# 30 s replays the stream several times.
JITTER3_WINDOWS = 3
JITTER3_WINDOW_S = 4.0
CROWD_WINDOWS = 4
CROWD_WINDOW_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path; fail if it is missing."""
    if not (SRC / "skelfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: no skelfuse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skelfuse

    if Path(skelfuse.__file__).resolve().parent != SRC / "skelfuse":
        raise SystemExit(f"error: imported skelfuse from {skelfuse.__file__}, not {SRC}")


def run_workload(workload: str, seed: int, seconds: float, tracer, workdir: Path):
    import offline
    import replay
    import scenarios

    if workload == "jitter3":
        return replay.run(scenarios.jitter3(seed, JITTER3_WINDOWS, JITTER3_WINDOW_S), replay.score_all,
                          seconds, tracer, workdir)
    if workload == "crowd":
        return replay.run(scenarios.crowd(seed, CROWD_WINDOWS, CROWD_WINDOW_S),
                          replay.score_in_crowd_area, seconds, tracer, workdir)
    return offline.run(seed, seconds, tracer, workdir)


def check_reproj(workload: str, seed: int, value: float) -> tuple[bool, str]:
    """Compare reproj_px with the value recorded for this seed.

    A seed with no recorded value must lie within the recorded values
    widened by their standard deviation across seeds.
    """
    doc = json.loads(EXPECTED.read_text(encoding="utf-8"))
    recorded = doc["reproj_px"].get(workload)
    if not recorded or len(recorded) < 2:
        return False, f"fewer than two values recorded for {workload} in {EXPECTED.name}"
    ref = recorded.get(str(seed))
    if ref is not None:
        tol = doc["tolerance_rel"]
        return (abs(value - ref) <= tol * abs(ref),
                f"seed {seed}: {value!r} px, recorded {ref!r} px, relative tolerance {tol:g}")
    values = list(recorded.values())
    sd = statistics.stdev(values)
    lo, hi = min(values) - sd, max(values) + sd
    return (lo <= value <= hi,
            f"seed {seed} not recorded: {value!r} px must lie in [{lo:.4f}, {hi:.4f}] "
            f"(the {len(values)} recorded seeds widened by their standard deviation {sd:.4f})")


def declared_metrics(trace: int) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import spans

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    WORK.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(args.workload) if args.trace else None
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        out = run_workload(args.workload, args.seed, args.seconds, tracer, Path(tmp))

    out.metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole run")
    ok, detail = check_reproj(args.workload, args.seed, out.reproj_px)
    out.check("reproj_px matches the recorded value", ok, detail)

    if tracer is None:
        reported = {k: (v, u) for k, (v, u, _) in out.metrics.items()}
    else:
        reported = out.per_layer
        zero = [m for m in REQUIRED_NONZERO[args.workload] if not reported[m][0]]
        out.check("per-layer metrics nonzero where the workload should move them",
                  not zero, "zero: " + ", ".join(zero) if zero else "")
    declared = declared_metrics(args.trace)
    out.check("metrics are those BENCHMARK.json declares", sorted(declared) == sorted(reported),
              f"missing {sorted(set(declared) - set(reported))}, "
              f"undeclared {sorted(set(reported) - set(declared))}")
    out.check("every metric finite", all(math.isfinite(v) for v, _ in reported.values()))

    load = os.getloadavg()
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg": [round(x, 2) for x in load]}
    correct = out.failed == 0 and all(passed for _, passed, _ in out.checks)

    print(f"# skelfuse benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# nproc={env['nproc']} affinity={env['affinity']} "
          f"loadavg={load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    for name, (value, unit, over) in out.metrics.items():
        print(f"{name:<18} {value:>14.6g} {unit:<4} {over}")
    print(f"{'fail_ratio':<18} {out.failed / max(out.attempted, 1):>14.6g} {'':<4} "
          f"{out.failed} failed of {out.attempted} attempted")
    for name, (value, unit) in out.per_layer.items():
        base = spans.PER_UNIT.get(name)
        idle = f"  (no work: {base} is 0)" if base and not out.per_layer[base][0] else ""
        print(f"{name:<40} {value:>14.6g} {unit}{idle}")
    for name, passed, detail in out.checks:
        print(f"check {'ok    ' if passed else 'FAILED'} {name}" + (f": {detail}" if detail else ""))

    WORK.joinpath("results").mkdir(exist_ok=True)
    if tracer is not None:
        WORK.joinpath("spans").mkdir(exist_ok=True)
        tracer.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in reported.items()},
    }
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, env=env, info=out.info,
                   samples={k: over for k, (_, _, over) in out.metrics.items()},
                   checks=[{"check": n, "passed": p, "detail": d} for n, p, d in out.checks])
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
