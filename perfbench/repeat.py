"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --runs 10 [--workload compress-3T ...] [--trace 0]

For every workload it runs run.py once per seed (1..runs by default, or
starting at ``--first-seed``), then prints, per metric, the median, the
quartiles and the quartile distance as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.  ``--out FILE`` also
writes every run's result as JSON.  Exits 1 if a run fails or reports a
failed job.
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


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results, ok = {}, True
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                *bench["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), file=sys.stderr)
        results[workload] = runs
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs, failed jobs {sum(r['failed'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, share = spread(values)
            bound = bounds.get(name)
            limit = f"  (bound/3 {bound / 3:.3f})" if bound else ""
            print(f"  {name:45s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  iqr/median {share:.3f}{limit}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
