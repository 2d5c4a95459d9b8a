"""One benchmark process: set up, run whole passes of a workload, check them.

Started by run.py, never by hand.  Prints one JSON object on stdout with
the raw measurements; run.py turns them into the metrics.  With
``--setup-only`` it stops once the inputs are ready, which is how run.py
takes extra set-up samples.

Only the standard library is imported before the set-up clock starts, so
``import_s`` covers numpy, scipy and bathkit.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"

from inputs import build_inputs, make_spec  # noqa: E402

# Output checks, from the acceptance criteria they come from.
BCF_REL_LIMIT = 1e-2  # criterion 1, at every grid time
KRYLOV_DEV_LIMIT = 1e-6  # criterion 8
NORM_DRIFT_LIMIT = 1e-8


def import_bathkit():
    """Import bathkit from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bathkit
    import bathkit.discretize
    import bathkit.dynamics

    if Path(bathkit.__file__).resolve().parent != src / "bathkit":
        raise ImportError(f"bathkit was imported from {bathkit.__file__}, not from {src}")


class Job:
    """One library call, its output check and its artifact hash."""

    def __init__(self, key, job_s):
        self.key, self.job_s = key, job_s
        self.problems, self.sha256, self.modes, self.accuracy = [], None, 0, {}

    def to_dict(self):
        return {
            "key": self.key,
            "job_s": self.job_s,
            "ok": not self.problems,
            "problems": self.problems,
            "sha256": self.sha256,
            "modes": self.modes,
            "accuracy": self.accuracy,
        }


def run_job(key, call, check):
    """Time ``call``; run ``check`` on its result.  Failures are recorded, not raised."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failing job is counted in `failed`, the run goes on
        job = Job(key, time.perf_counter() - start)
        job.problems.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return job
    job = Job(key, time.perf_counter() - start)
    try:
        artifact, job.modes, job.accuracy, problems = check(result)
    except Exception as exc:  # same: a check that cannot run is a failed check
        job.problems.append(f"check raised {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        return job
    job.problems.extend(problems)
    job.sha256 = hashlib.sha256(artifact).hexdigest()
    return job


def arrays_bytes(*arrays):
    return b"".join(a.tobytes() for a in arrays)


def plan_compress(inputs):
    import numpy as np

    import bathkit.discretize as D

    grid, tol = inputs["grid"], inputs["tol"]

    def same_bath(a, b):
        return (
            all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("omegas", "z", "g"))
            and a.diagnostics == b.diagnostics
            and (a.t_max_fs, a.omega_max_cm1, a.tol) == (b.t_max_fs, b.omega_max_cm1, b.tol)
        )

    def check_for(kernel):
        def check(bath):
            problems = []
            out = io.StringIO()
            D.save_bath_model(bath, out)
            text = out.getvalue()
            loaded = D.load_bath_model(io.StringIO(text))
            again = io.StringIO()
            D.save_bath_model(loaded, again)
            if again.getvalue() != text or not same_bath(bath, loaded):
                problems.append("bath JSON round trip is not lossless")
            c_model = D.reconstruct_bcf(loaded, grid.times)
            c_ref = D.reference_bcf(kernel, grid.times, grid.omega_max_cm1)
            rel = float(np.max(np.abs(c_model - c_ref)) / np.max(np.abs(c_ref)))
            if not rel <= BCF_REL_LIMIT:
                problems.append(f"BCF error {rel:.3e} of peak above {BCF_REL_LIMIT:.0e}")
            return text.encode(), bath.mode_count, {"bcf_rel_error": rel}, problems

        return check

    return [
        (f"discretize {label}", (lambda k=kernel: D.discretize_bath(k, grid, tol)), check_for(kernel))
        for label, kernel in inputs["kernels"]
    ]


def plan_study(inputs):
    import numpy as np

    import bathkit.dynamics as Dy

    def call():
        return Dy.convergence_study(inputs["kernel"], inputs["system"], inputs["tols"], inputs["grid"])

    def check(report):
        problems = []
        if not report.monotone_within_slack:
            problems.append(f"sweep distances {report.distances} are not monotone within slack")
        finite = all(np.all(np.isfinite(s)) for s in report.series)
        if not (finite and np.all(np.isfinite(report.distances))):
            problems.append("convergence series or distances are not finite")
        fields = {
            "tols": report.tols,
            "mode_counts": report.mode_counts,
            "observable": report.observable,
            "distances": report.distances,
            "slack": report.slack,
            "monotone_within_slack": report.monotone_within_slack,
        }
        artifact = json.dumps(fields).encode() + arrays_bytes(report.times, *report.series)
        accuracy = {"sweep_distance": report.distances[-1]}
        return artifact, sum(report.mode_counts), accuracy, problems

    return [("convergence_study", call, check)]


def plan_exact(inputs):
    import numpy as np

    import bathkit.dynamics as Dy

    model = inputs["model"]

    def call():
        return Dy.propagate(
            model,
            inputs["trunc"],
            inputs["psi0"],
            inputs["t_max_fs"],
            inputs["dt_fs"],
            krylov_dim=inputs["krylov_dim"],
            tol=inputs["tol"],
        )

    def check(res):
        problems = []
        coh = res.coherences[(0, 1)]
        gamma = Dy.dephasing_gamma(model, res.times)
        dev = float(np.max(np.abs(np.abs(coh) / abs(coh[0]) - np.exp(-gamma))))
        drift = float(np.max(np.abs(res.norm - res.norm[0])))
        if not dev <= KRYLOV_DEV_LIMIT:
            problems.append(f"coherence deviates {dev:.3e} from exp(-Gamma), above {KRYLOV_DEV_LIMIT:.0e}")
        if not drift <= NORM_DRIFT_LIMIT:
            problems.append(f"norm drifts {drift:.3e}, above {NORM_DRIFT_LIMIT:.0e}")
        artifact = arrays_bytes(res.times, res.populations, coh, res.norm, res.energy)
        return artifact, model.total_mode_count, {"krylov_dev": dev}, problems

    return [("propagate", call, check)]


PLANS = {
    "compress-3T": plan_compress,
    "sweep-dephasing": plan_study,
    "exact-dephasing": plan_exact,
    "spin-boson-validate": plan_study,
}


def layer_values(stats, jobs):
    """Per-layer numbers of one traced pass, keyed by metric name."""
    values = {}
    for name, entry in stats.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_s"] = entry["self_s"]

    values["lowrank.column_id.rank"] = sum(stats["lowrank.column_id"]["counts"])
    values["lowrank.nnls.iterations"] = sum(stats["lowrank.nnls"]["counts"])
    values["discretize.reference_bcf.levels"] = stats["discretize.reference_bcf"]["levels"]
    baths = stats["discretize.discretize_bath"]["counts"]
    ranks, kept = sum(r for r, _ in baths), sum(m for _, m in baths)
    values["lowrank.nnls.kept_ratio"] = kept / ranks if ranks else 0.0
    steps = sum(stats["dynamics.propagate"]["counts"])
    lanczos = stats["dynamics._lanczos_expm_apply"]["calls"]
    values["dynamics.lanczos.steps_per_call"] = steps / lanczos if lanczos else 0.0
    for metric, key in (
        ("discretize.discretize_bath.bcf_rel_error", "bcf_rel_error"),
        ("dynamics.convergence_study.sweep_distance", "sweep_distance"),
        ("dynamics.propagate.krylov_dev", "krylov_dev"),
    ):
        values[metric] = max((j.accuracy[key] for j in jobs if key in j.accuracy), default=0.0)
    return values


# Layers whose names are private to bathkit: a refactor can route around
# the wrapper without removing the name, so a traced pass that should run
# them and records no call fails the run instead of reporting zeros.
HOT_PRIVATE = ("dynamics._HamiltonianAction.__call__", "dynamics._lanczos_expm_apply")


def source_fingerprint():
    """SHA-256 over the files that decide the artifacts: bathkit and this benchmark's inputs."""
    here = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in [*sorted((ROOT / "src" / "bathkit").glob("*.py")), here / "inputs.py", here / "worker.py"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Threads each loaded OpenBLAS reports, read through its own API."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                found[Path(path).name] = func()
                break
    return found


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def check_hash_history(workload, seed, env, jobs):
    """Fail jobs whose artifact hash differs from an earlier run of the same code.

    Hashes are kept per (source, numpy, scipy, BLAS and its threads,
    workload, seed) under .perfbench-out/hashes; the first run of a key
    records them.
    """
    first = {}
    for job in jobs:
        if job.sha256 is not None:
            first.setdefault(job.key, job.sha256)
    versions = f"{env['source_sha256']} {env['numpy']} {env['scipy']} {env['blas']} {env['blas_threads']}"
    key = hashlib.sha256(versions.encode()).hexdigest()[:16]
    path = OUT_DIR / "hashes" / key / f"{workload}-seed{seed}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        for job in jobs:
            old = recorded.get(job.key)
            if job.sha256 is not None and old is not None and old != job.sha256:
                job.problems.append(f"artifact hash {job.sha256[:12]} differs from an earlier run ({old[:12]})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = make_spec(args.workload, args.seed)
    import_bathkit()
    imported = time.monotonic()
    inputs = build_inputs(spec, ROOT)
    ready = time.monotonic()
    setup = {"ready_at": ready, "import_s": imported - _STARTED, "inputs_s": ready - imported}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    env = environment()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    plan = PLANS[args.workload](inputs)

    # Whole passes until --seconds have gone.  A traced run alternates traced
    # and plain passes after a first plain one and ends on a plain one, so
    # trace.overhead_s compares passes that both come after the first-pass
    # costs (allocator growth, lazy imports).
    passes, all_jobs = [], []
    deadline = time.perf_counter() + args.seconds
    while (
        not passes
        or (args.trace and (len(passes) < 3 or len(passes) % 2 == 0))
        or time.perf_counter() < deadline
    ):
        kind = "traced" if args.trace and len(passes) % 2 == 1 else "plain"
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.recording = kind == "traced"
        wall0, cpu0 = time.perf_counter(), time.process_time()
        jobs = []
        for key, call, check in plan:
            if tracer:
                tracer.job = f"{len(passes)}:{key}"
            jobs.append(run_job(key, call, check))
        record = {
            "kind": kind,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "modes": sum(j.modes for j in jobs),
        }
        if tracer:
            tracer.recording = False
            if kind == "traced":
                record["layers"] = layer_values(tracer.layer_stats(first_span), jobs)
        passes.append(record)
        all_jobs.extend(jobs)

    seen = {}
    for job in all_jobs:
        if job.sha256 is not None and seen.setdefault(job.key, job.sha256) != job.sha256:
            job.problems.append("artifact hash differs from an earlier pass of this run")
    check_hash_history(args.workload, args.seed, env, all_jobs)

    layers = {}
    if tracer:
        traced = [p for p in passes if p["kind"] == "traced"]
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        if args.workload in ("exact-dephasing", "spin-boson-validate"):
            silent = [n for n in HOT_PRIVATE if not layers.get(f"{n}.calls")]
            if silent:
                raise SystemExit(f"perfbench: traced pass recorded no call of {', '.join(silent)}")
        plain_wall = statistics.median(p["wall_s"] for p in passes[1:] if p["kind"] == "plain")
        layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - plain_wall
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(
        json.dumps(
            {
                **setup,
                "spec": spec,
                "environment": env,
                "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
                "jobs": [j.to_dict() for j in all_jobs],
                "layers": layers,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
