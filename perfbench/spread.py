"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/spread.py --out perfbench/out/first.json
    python3 perfbench/spread.py --against perfbench/out/first.json

Every workload of ``BENCHMARK.json`` runs on seeds 0 to 9 for its
``run_seconds``.  For every workload and end-to-end metric it prints
the median of the per-seed values and their spread, the distance
between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound in ``BENCHMARK.json``.  With
``--against`` it also compares each median and every output digest
with an earlier set of runs.  Runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    result["digest"] = next(line.split()[-1] for line in lines if line.startswith("digest "))
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    report, worst = {}, 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in SEEDS]
        entry = {"digests": {str(s): r["digest"] for s, r in zip(SEEDS, runs)}, "metrics": {}}
        print(f"{workload}: seeds {SEEDS[0]} to {SEEDS[-1]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            line = f"  {name:12s} median {median:10.4f}  spread {spread:.3f}  bound {bound}"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                change = median / before["median"] - 1
                line += f"  vs earlier {change:+.3f}"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(line)
            entry["metrics"][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                      "values": values}
        if workload in earlier:
            same = all(earlier[workload]["digests"].get(s, d) == d
                       for s, d in entry["digests"].items())
            print(f"  digests {'identical to' if same else 'DIFFER from'} the earlier set")
        report[workload] = entry
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
