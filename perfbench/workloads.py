"""The benchmark's four workloads: CLI arguments generated from a seed, and
the checks every job's report must pass.

Each job is one `logsphere` CLI invocation.  Its inputs come only from
`job_argv(workload, seed, k, out)`, so the same (seed, k) always gives the
same command line, and the program sees nothing but those arguments.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("verify", "flow", "probe", "scan_hi")

# reference.json stores [value, atol] per key output of job 0 at the default
# seed.  Each atol, plus REF_RTOL relative, sits above the noise that a
# correct change may add: rounding when a summation order changes, the
# bisection resolution of critical radii, and for the flow the spread of end
# points that all meet its stop tolerance (a deficit decrease below 1e-13
# leaves the state free by about sqrt(1e-13) ~ 3e-7).
REF_RTOL = 1e-6
DEFAULT_SEED = 0


def load_logsphere():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "logsphere" / "__init__.py").is_file():
        raise ImportError(f"no logsphere sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("logsphere")
    if Path(pkg.__file__).resolve().parent != (SRC / "logsphere").resolve():
        raise ImportError(f"logsphere was imported from {pkg.__file__}, not {SRC}")
    return importlib.import_module("logsphere.cli")


def _random_base_point(rng: np.random.Generator) -> str:
    # drawn the way the verify suites draw inversion base points, keeping
    # xi0 away from the south pole where the stereographic lift is singular
    xi0 = rng.standard_normal(3)
    xi0 /= np.linalg.norm(xi0)
    if 1.0 + xi0[-1] < 0.2:
        xi0 = -xi0
    return ",".join(repr(float(x)) for x in xi0)


def job_argv(workload: str, seed: int, k: int, out: str) -> list[str]:
    """CLI arguments of job k of a run with workload seed `seed`."""
    rng = np.random.default_rng([seed, k])
    s = str(int(rng.integers(2**31)))
    if workload == "verify":
        return ["verify", "--n", "2", "--seed", s, "--out", out]
    if workload == "flow":
        return ["minimize", "--n", "2", "--band-limit", "64",
                "--init", f"random:seed={s},amp=0.5", "--out", out]
    xi0 = _random_base_point(rng)
    # "--xi0=" keeps argparse from reading a leading minus sign as an option
    if workload == "probe":
        return ["movespheres", "--n", "2", "--band-limit", "16",
                "--u", f"random:seed={s}", f"--xi0={xi0}", "--values", "auto",
                "--out", out]
    if workload == "scan_hi":
        radii = np.sort(rng.uniform(0.3, 2.0, 3))
        return ["movespheres", "--n", "2", "--band-limit", "128",
                "--u", f"random:seed={s}", f"--xi0={xi0}",
                "--values", ",".join(repr(float(r)) for r in radii),
                "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_report(workload: str, rc: int, report: dict) -> str | None:
    """None when the job's exit code and report are correct, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if workload == "verify":
        if report.get("all_pass") is not True:
            return "verify: not all suites pass"
    elif workload == "flow":
        flow, fit = report["flow"], report["fit"]
        d = flow["deficits"]
        if not _finite(d) or any(b > a for a, b in zip(d, d[1:])):
            return "flow: deficits not finite and nonincreasing"
        if flow["converged"] is not True:
            return f"flow: not converged ({flow['message']})"
        if fit["in_family"] is not True:
            return "flow: fitted state is not in the extremizer family"
    elif workload == "probe":
        rep = report["report"]
        if not _finite([rep["critical"]]):
            return "probe: critical radius is not finite"
        if rep["critical_is_bound"] is not False:
            return "probe: critical radius is only a bound"
    elif workload == "scan_hi":
        rep = report["report"]
        for col in ("values", "min_w", "sup_abs_w", "defect"):
            if len(rep[col]) != 3 or not _finite(rep[col]):
                return f"scan_hi: profile column {col} is not 3 finite values"
    return None


def key_outputs(workload: str, report: dict) -> dict[str, float]:
    """The numbers compared against reference.json for the default seed."""
    if workload == "verify":
        return {s["name"]: float(s["metric"]) for s in report["suites"]}
    if workload == "flow":
        fit = report["fit"]
        out = {"final_deficit": report["flow"]["final_deficit"],
               "fit.c": fit["c"], "fit.residual": fit["residual"]}
        out.update({f"fit.zeta{i}": z for i, z in enumerate(fit["zeta"])})
        return out
    rep = report["report"]
    # "--xi0=" keeps argparse from reading a leading minus sign as an option
    if workload == "probe":
        return {"critical": rep["critical"]}
    out = {}
    for i, v in enumerate(rep["values"]):
        out[f"min_w@{v!r}"] = rep["min_w"][i]
        out[f"sup_abs_w@{v!r}"] = rep["sup_abs_w"][i]
    return out


def compare_reference(workload: str, report: dict, reference: dict) -> str | None:
    """None when the key outputs match the stored reference values."""
    got = key_outputs(workload, report)
    want = reference[workload]
    if set(got) != set(want):
        return f"reference keys differ: {sorted(set(got) ^ set(want))}"
    for key, (ref, atol) in want.items():
        if abs(got[key] - ref) > atol + REF_RTOL * abs(ref):
            return f"reference mismatch on {key}: {got[key]!r} != {ref!r}"
    return None


def run_job(cli, workload: str, argv: list[str], out: Path,
            reference: dict | None = None) -> tuple[float, dict | None, str | None]:
    """Run one CLI job in this process: (wall seconds, report, failure).

    The CLI's own stdout and stderr are swallowed; the report is read back
    from `out`, which `argv` must name.  Any exception is a failure.
    """
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
        failure = check_report(workload, rc, report)
        if failure is None and reference is not None:
            failure = compare_reference(workload, report, reference)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return seconds, None, f"unreadable report: {type(exc).__name__}: {exc}"
    return seconds, report, failure
