"""Run every workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 101:110 --out perfbench/baseline.json

For each workload and seed this runs ``run.py --trace 0`` for the
``run_seconds`` of BENCHMARK.json, one run after another, then prints per
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound.  ``--out``
writes the same figures with the run environment, as the baseline later
changes compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="101:110", help="first:last, inclusive")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split(":"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": [first, last], "workloads": {}}
    worst = 0.0
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {k: [] for k in bounds}
        failed = 0
        for seed in range(first, last + 1):
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                  "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                  "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=900)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                return out.returncode
            lines = out.stdout.splitlines()
            summary.setdefault("env", json.loads(lines[0][len("env "):]))
            res = json.loads(lines[-1])
            failed += res["failed"]
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        rows = {}
        for k, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[k],
                       "values": xs}
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            print(f"{name:10s} {k:14s} median {med:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  "
                  f"spread {spread:6.3f}  bound {bounds[k]:.2f}")
        rows["failed_points"] = failed
        summary["workloads"][name] = rows
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        summary["env"].pop("seed", None)
        summary["env"].pop("workload", None)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
