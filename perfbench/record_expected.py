"""Record each seed's reproj_px into perfbench/expected.json.

    python3 perfbench/record_expected.py --workload jitter3 --seeds 0-63

For each seed the workload runs as an untraced benchmark run with no time
to measure (one track pass; on offline_eval one pipeline and its repeat),
and the resulting reproj_px is stored. A benchmark run compares its reproj_px with
the recorded value for its seed. Record again only when the generated
inputs or the program's accuracy change on purpose, and say so.
"""

import run  # first: pins the BLAS threads before numpy loads

import argparse
import json
import tempfile
from pathlib import Path

TOLERANCE_REL = 1e-6


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    run.import_program()

    doc = (json.loads(run.EXPECTED.read_text(encoding="utf-8")) if run.EXPECTED.is_file()
           else {"tolerance_rel": TOLERANCE_REL, "reproj_px": {}})
    recorded = doc["reproj_px"].setdefault(args.workload, {})
    run.WORK.mkdir(parents=True, exist_ok=True)
    for seed in range(lo, hi + 1):
        with tempfile.TemporaryDirectory(dir=run.WORK, prefix="record-") as tmp:
            out = run.run_workload(args.workload, seed, 0.0, None, Path(tmp))
        recorded[str(seed)] = out.reproj_px
        print(f"{args.workload} seed {seed}: reproj_px {out.reproj_px!r}", flush=True)
    doc["reproj_px"][args.workload] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    run.EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
