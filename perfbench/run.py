"""bathkit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload compress-3T --seed 0 --seconds 12 --trace 0

Run it from the root of a bathkit checkout.  It starts one worker process
(worker.py) that imports bathkit from src/, builds the seeded inputs and
runs whole passes of the workload, closed-loop, until ``--seconds`` have
passed.  Then it starts two more workers that stop once their inputs are
ready, so ``setup_s`` is the median of three fresh-process set-ups.  BLAS
threads are fixed at ``nproc``.

The last line of stdout is the result: ``correct``, ``attempted`` and
``failed`` jobs, and the metrics BENCHMARK.json declares, end-to-end ones
with ``--trace 0`` and per-layer ones with ``--trace 1``.  Lines before it
give the environment and every job's time, check outcome and artifact
hash; the same record goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(worker_args, env, deadline):
    """Run worker.py to completion; its set-up time is measured from here."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *worker_args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker did not finish within {RUN_LIMIT_S:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def end_to_end(run, samples):
    plain = [p for p in run["passes"] if p["kind"] == "plain"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "job_s_p50": statistics.median(j["job_s"] for j in run["jobs"]),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "cpu_s": statistics.median(p["cpu_s"] for p in plain),
        "peak_rss_mib": run["peak_rss_mib"],
        "modes_total": plain[0]["modes"],
    }


def per_layer(run, samples):
    values = dict(run["layers"])
    values["setup.import_s"] = statistics.median(s["import_s"] for s in samples)
    values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in samples)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one bathkit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bathkit" / "__init__.py").is_file():
        print(f"perfbench: no bathkit sources under {ROOT / 'src'}; run from a bathkit checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        run = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        samples = [run] + [spawn([*common, "--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES - 1)]
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    computed = per_layer(run, samples) if args.trace else end_to_end(run, samples)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}

    jobs = run["jobs"]
    failed = sum(not j["ok"] for j in jobs)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "spec": run["spec"],
        "job_samples": len(jobs),
        "setup_samples_s": [s["setup_s"] for s in samples],
        "passes": run["passes"],
        "jobs": jobs,
    }
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": run["environment"], "detail": detail, "all_values": computed, "result": result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"environment": run["environment"]}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
