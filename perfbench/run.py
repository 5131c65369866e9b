"""Closed-loop benchmark of the logsphere CLI, one workload per process.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 18 --trace 0

One client drives `logsphere.cli.main(argv)` in this process: each job
starts when the previous one has returned, with arguments generated from
the workload seed (see workloads.py and README.md).  Every job's report is
checked; at the default seed the first job's key outputs are also compared
with reference.json.

Job and set-up times are rescaled for the machine's speed at the moment
they were taken (speed.py); the wall times are kept in the record file.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half the time
untraced and half with the package's public functions wrapped in spans, and
prints the per-layer metrics.  The last line of stdout is the result JSON;
the line before it records the environment.  A copy of both, plus every
job time and, when traced, every span, goes to .perfbench_out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports count toward set-up time)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread: at most the core count of any machine, and it
# keeps job times independent of how many cores the machine happens to have.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated in fresh processes and the median reported.
SETUP_REPEATS = 3
# Each timed phase runs at least this many jobs, however long they take.
MIN_JOBS = 3
CHILD_TIMEOUT_S = 60


def _pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ.pop("LOGSPHERE_WORKERS", None)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREADS,
        "logsphere_workers": "unset",
        "git_commit": _git_commit(),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _setup_in_child(args) -> tuple[float | None, str | None]:
    """Set-up time measured by a fresh process, or the reason it failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "set-up process timed out"
    if proc.returncode != 0:
        return None, f"set-up process failed: {proc.stderr.strip()[-300:]}"
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]), None


def main(argv=None) -> int:
    _pin_environment()
    # numpy reads the thread variables when it loads, so import it only now
    import numpy as np

    import layers
    import spans
    import workloads as wl
    from speed import REFERENCE_S, Calibrator

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for the set-up repeats)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        cli = wl.load_logsphere()
    except ImportError as exc:
        print(f"perfbench: cannot import logsphere: {exc}", file=sys.stderr)
        return 2
    reference = None
    if args.seed == wl.DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    calibrator = Calibrator()

    OUT_DIR.mkdir(exist_ok=True)
    failures: list[str] = []
    attempted = 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        out = Path(tmp) / "report.json"

        def job(k: int):
            nonlocal attempted
            attempted += 1
            argv_k = wl.job_argv(args.workload, args.seed, k, str(out))
            seconds, report, failure = wl.run_job(
                cli, args.workload, argv_k, out, reference if k == 0 else None)
            if failure is not None:
                failures.append(f"job {k}: {failure}")
            return seconds, report, failure

        def phase(seconds: float, recorder=None):
            """Closed loop from job 1 until `seconds` have passed.  Each job
            is bracketed by calibrations; see speed.py."""
            wall, normalized, reports, n_ok = [], [], {}, 0
            cal_before = calibrator.calibrate()
            start = time.perf_counter()
            k = 1
            while len(wall) < MIN_JOBS or time.perf_counter() - start < seconds:
                if recorder is not None:
                    recorder.job = k
                dt, report, failure = job(k)
                cal_after = calibrator.calibrate()
                wall.append(dt)
                normalized.append(dt * REFERENCE_S / (0.5 * (cal_before + cal_after)))
                reports[k] = report if failure is None else {}
                n_ok += failure is None
                cal_before = cal_after
                k += 1
            return {"wall": wall, "normalized": normalized, "reports": reports,
                    "ok": n_ok}

        job(0)  # warm-up: fills lazy tables and caches before timing
        setup_wall = time.perf_counter() - T_START
        cal = statistics.median(calibrator.calibrate() for _ in range(3))
        setup = [setup_wall * REFERENCE_S / cal]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "failures": failures}))
            return 1 if failures else 0

        env = _environment(np, args)
        record = {"environment": env, "setup_wall_s": setup_wall,
                  "setup_calibration_s": cal}
        if args.trace == 0:
            for _ in range(SETUP_REPEATS - 1):
                attempted += 1
                seconds, failure = _setup_in_child(args)
                if failure is not None:
                    failures.append(failure)
                else:
                    setup.append(seconds)
            timed = phase(args.seconds)
            metrics = {
                "job_s_p50": (statistics.median(timed["normalized"]), "s"),
                "jobs_per_s": (timed["ok"] / sum(timed["normalized"]), "1/s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (_peak_rss_mib(), "MiB"),
                "ok_frac": (1.0 - len(failures) / attempted, "fraction"),
            }
            record["jobs"] = {key: timed[key] for key in ("wall", "normalized")}
            record["wall_job_s_p50"] = statistics.median(timed["wall"])
        else:
            plain = phase(args.seconds / 2)
            recorder = spans.Recorder()
            with spans.traced(recorder, "logsphere", layers.TARGETS, layers.MEASURES):
                traced = phase(args.seconds / 2, recorder)
            values = layers.layer_metrics(recorder.spans, traced["reports"])
            values["trace.overhead_frac"] = (statistics.median(traced["normalized"])
                                             / statistics.median(plain["normalized"]) - 1.0)
            metrics = {name: (v, layers.describe(name)[0]) for name, v in values.items()}
            record["jobs"] = {"untraced": {k: plain[k] for k in ("wall", "normalized")},
                              "traced": {k: traced[k] for k in ("wall", "normalized")}}
            record["spans"] = [[s.id, s.parent, s.job, s.name, s.start, s.end, s.attrs]
                               for s in recorder.spans]

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record.update(result=result, failures=failures)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
