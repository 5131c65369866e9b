"""Command-line driver: identity-verification suites, multiplier spectra,
deficit flows, and moving-spheres diagnostics with machine-readable output.

Reports are JSON (their "schema" field is `SCHEMA_VERSION`) and per-row
tables are CSV; rerunning with the same config and seed at a fixed BLAS
thread count reproduces the report byte for byte (the benchmark pins one
thread), so no wall-clock fields go into the files.  Flags
take precedence over a JSON config file, which takes precedence over
defaults; no environment variable is read.  Each subcommand takes a flag
and a config key for exactly the `RunConfig` fields it reads (`_READS`),
and its report echoes those.  Bad input (a malformed number or spec, a
missing file, a flag or config key the subcommand does not read, an output
path that cannot be written) exits with a one-line message, and so does a
`minimize` or `movespheres` band limit whose tables would exceed a fixed
memory budget (`verify` runs one fixed configuration per dimension).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass

import numpy as np

from . import conformal as cf
from . import dynamics as dy
from . import energy as en
from . import harmonics as hm
from . import sphere as sp
from . import verify as vf

SCHEMA_VERSION = 14

# A band limit whose command's tables (`_check_table_budget`) would peak above
# this is refused before anything is allocated.
TABLE_BUDGET_BYTES = 2 * 1024**3


@dataclass
class RunConfig:
    n: int = 2
    band_limit: int = 16
    tol: float = 1.0
    seed: int = 0
    out: str | None = None
    fault: dict | None = None


# The RunConfig fields each subcommand reads, decided here only: it has a flag
# for each (`fault` comes from a config file only), accepts no other config
# key and echoes them, less `out`, in its report.  Others keep their default.
_READS = {
    "verify": ("n", "tol", "seed", "out", "fault"),
    "spectrum": ("n", "out"),
    "minimize": ("n", "band_limit", "out"),
    "movespheres": ("n", "band_limit", "seed", "out"),
}

_FLAGS = {
    "n": {"type": int, "help": "sphere dimension (1 or 2)"},
    "band_limit": {"type": int},
    "tol": {"type": float, "help": "global tolerance multiplier (default 1.0)"},
    "seed": {"type": int},
    "out": {"help": "report path (JSON; CSV for spectrum)"},
}


def _finite(val) -> bool:
    """A number that is not a boolean, NaN, infinite or an integer beyond any
    float (the comparison is false for each of those)."""
    return (not isinstance(val, bool) and isinstance(val, (int, float))
            and abs(val) <= sys.float_info.max)


def _number(text: str, what: str, kind=float):
    try:
        val = kind(text)
    except ValueError:
        raise SystemExit(f"{what}: not a number: {text!r}") from None
    if not _finite(val):
        raise SystemExit(f"{what}: not a finite number: {text!r}")
    return val


def _numbers(text: str, what: str) -> np.ndarray:
    """Comma-separated floats."""
    return np.array([_number(x, what) for x in text.split(",")])


def _read_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read {what} file {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise SystemExit(f"{what} file {path!r} is not valid JSON: {exc}") from None


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data = _read_json_file(args.config, "config")
        if not isinstance(data, dict):
            raise SystemExit(f"config file {args.config!r} must hold a JSON object")
    reads = _READS[args.command]
    unknown = set(data) - set(reads)
    if unknown:
        raise SystemExit(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key in reads:
        val = getattr(args, key, None)
        if val is not None:
            data[key] = val
    types = typing.get_type_hints(RunConfig)
    for key, val in data.items():
        # a JSON integer is a valid float; true/false is not a number
        want = (int, float) if types[key] is float else types[key]
        if isinstance(val, bool) or not isinstance(val, want):
            declared = RunConfig.__dataclass_fields__[key].type
            raise SystemExit(f"config key {key!r} must be {declared}, got {val!r}")
    cfg = RunConfig(**data)
    if cfg.fault is not None:
        _check_fault(cfg.fault)
    if cfg.n not in (1, 2):
        raise SystemExit("the verification pipeline supports n in {1, 2}")
    if cfg.band_limit < 4:
        raise SystemExit("band limit must be >= 4")
    if not (_finite(cfg.tol) and cfg.tol > 0):
        raise SystemExit(f"tol must be a positive finite number, got {cfg.tol!r}")
    _check_seed(cfg.seed)
    return cfg


def _check_table_budget(cfg: RunConfig, command: str):
    """Refuse a band limit whose tables would peak above TABLE_BUDGET_BYTES:
    for the flow, the transform tables at L on the entropy grid; for the
    probe, the off-grid plan at L with the larger of one `evaluate_at` call
    on its 2 DEFAULT_SAMPLES points and the random state's
    `evaluate_on_grid` on the entropy grid."""
    n, L = cfg.n, cfg.band_limit
    if command == "minimize":
        need = hm.transform_table_bytes(n, L, en.entropy_degree(L))
    else:
        need = max(hm.evaluate_at_bytes(n, L, 2 * dy.DEFAULT_SAMPLES),
                   hm.evaluate_on_grid_bytes(n, L, en.entropy_degree(L)))
    if need > TABLE_BUDGET_BYTES:
        raise SystemExit(f"band limit {L} needs about {need / 1024**3:.3g} GiB of tables "
                         f"for {command}, above the {TABLE_BUDGET_BYTES / 1024**3:g} GiB budget")


def _check_seed(seed: int):
    if seed < 0:
        raise SystemExit(f"seed must be >= 0, got {seed}")


def _check_fault(fault: dict):
    """The fault hook names a suite that takes one, and any scale is a finite
    number whose magnitude lies in `verify.FAULT_SCALE_RANGE`."""
    unknown = set(fault) - {"suite", "scale"}
    if unknown:
        raise SystemExit(f"unknown fault keys: {sorted(unknown)}")
    names = [suite.name for suite in vf.SUITES if suite.fault]
    if fault.get("suite") not in names:
        raise SystemExit(f"fault suite must be one of {names}, got {fault.get('suite')!r}")
    scale = fault.get("scale", vf.FAULT_SCALE)
    lo, hi = vf.FAULT_SCALE_RANGE
    if not (_finite(scale) and lo <= abs(scale) <= hi):
        raise SystemExit(f"fault scale must be a number with {lo:g} <= |scale| <= {hi:g}, "
                         f"got {scale!r}")


def _np_default(obj):
    if isinstance(obj, (np.generic, np.ndarray)):  # numpy scalars to Python ones
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _report_config(cfg: RunConfig, command: str) -> dict:
    # the output path is not semantic; dropping it keeps reports byte-identical
    return {key: getattr(cfg, key) for key in _READS[command] if key != "out"}


def _check_writable(path: str | None, what: str):
    """Refuse, before any work, a path that cannot be opened for writing (a
    directory, a missing directory, no permission).  The check appends, so
    an existing file keeps its bytes; a file it creates is removed again."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise SystemExit(f"cannot write {what} file {path!r}: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def _write_json(report: dict, path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True, default=_np_default,
                      allow_nan=False) + "\n"
    if path:
        with _open_for_writing(path, "report") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: typing.Iterable[tuple], path: str):
    with _open_for_writing(path, "CSV", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _open_for_writing(path: str, what: str, newline: str | None = None):
    """The file at `path` opened for writing; a failure exits with one line
    (`_check_writable` has already refused the usual causes)."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot write {what} file {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# verify subcommand

def cmd_verify(cfg: RunConfig) -> int:
    results = vf.run_suites(cfg)
    failed = [r["name"] for r in results if not r["passed"]]
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "config": _report_config(cfg, "verify"),
        "suites": results,
        "all_pass": not failed,
    }
    _write_json(report, cfg.out)
    if failed:
        print(f"FAIL: suite '{failed[0]}'", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# spectrum subcommand

def cmd_spectrum(cfg: RunConfig, lmax: int) -> int:
    if lmax < 0:
        raise SystemExit(f"--lmax must be >= 0, got {lmax}")
    n = cfg.n
    s_values = [0.25 * n / 2, 0.5 * n / 2, 0.75 * n / 2]
    # each row is written as it is computed, so memory does not grow with lmax
    rows = itertools.chain([("l", "h", *(f"p2s@s={s:g}" for s in s_values))], (
        (l, hm.multiplier_H(n, l), *(hm.multiplier_P2s(n, l, s) for s in s_values))
        for l in itertools.chain(range(lmax + 1), [10_000])))
    if cfg.out:
        _write_csv(rows, cfg.out)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    ratio = hm.multiplier_H(n, 10_000) / (math.log(10_000.0) * hm.log_operator_scale(n))
    print(f"# sanity: h_l/ln(l) at l=10^4 is {ratio:.4f} x (2 pi^(n/2)/Gamma(n/2))")
    return 0


# ---------------------------------------------------------------------------
# minimize subcommand

def _parse_vector_spec(payload: str, n: int) -> np.ndarray:
    """Either '<mag>e<axis>' (axis is 1-based in R^{n+1}) or a comma list."""
    if "," in payload:
        vec = _numbers(payload, "zeta")
        if vec.size != n + 1:
            raise SystemExit(f"zeta needs {n + 1} components, got {vec.size}")
        return vec
    if "e" in payload:
        # the last 'e' separates the axis, so the magnitude may carry an exponent
        mag_s, axis_s = payload.rsplit("e", 1)
        vec = np.zeros(n + 1)
        axis = _number(axis_s, "zeta axis", int)
        if not 1 <= axis <= n + 1:
            raise SystemExit(f"axis must be in 1..{n + 1}, got {axis}")
        vec[axis - 1] = _number(mag_s, "zeta magnitude")
        return vec
    vec = np.zeros(n + 1)
    vec[-1] = _number(payload, "zeta")
    return vec


def _parse_constant(payload: str) -> float:
    return _number(payload, "constant") if payload else 1.0


def _parse_extremizer(payload: str, n: int) -> cf.ExtremizerParams:
    """'zeta=<vector spec>;c=<amplitude>', both optional."""
    zeta, c_amp = np.zeros(n + 1), 1.0
    for part in filter(None, payload.split(";")):
        key, _, val = part.partition("=")
        if key == "zeta":
            zeta = _parse_vector_spec(val, n)
        elif key == "c":
            c_amp = _number(val, "extremizer amplitude")
        else:
            raise SystemExit(f"unknown extremizer option {key!r}")
    try:
        return cf.ExtremizerParams(zeta, c_amp)
    except ValueError as exc:
        raise SystemExit(f"extremizer: {exc}") from None


def _parse_init(spec: str, cfg: RunConfig, grid: sp.QuadratureGrid | None = None
                ) -> hm.HarmonicCoeffs:
    """The initial state of `spec`; a random one is scaled on `grid`, by
    default the entropy grid of (cfg.n, cfg.band_limit), and without `seed=`
    takes cfg.seed (0 in `minimize`, which reads no seed)."""
    kind, _, payload = spec.partition(":")
    n, L = cfg.n, cfg.band_limit
    if kind == "constant":
        return hm.HarmonicCoeffs.constant(n, L, _parse_constant(payload))
    if kind == "random":
        seed = cfg.seed
        amp = 0.2
        for part in filter(None, payload.split(",")):
            key, _, val = part.partition("=")
            if key == "seed":
                seed = _number(val, "random init seed", int)
                _check_seed(seed)
            elif key == "amp":
                amp = _number(val, "random init amp")
            else:
                raise SystemExit(f"unknown random-init option {key!r}")
        try:
            return dy.random_positive_init(n, L, np.random.default_rng(seed), amp, grid=grid)
        except ValueError as exc:
            raise SystemExit(f"random init amp: {exc}") from None
    if kind == "extremizer":
        return dy.family_coeffs(_parse_extremizer(payload, n), L)
    if kind == "coeffs":
        data = _read_json_file(payload, "coeffs")
        try:
            coeffs = hm.HarmonicCoeffs.from_json_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(f"coeffs file {payload!r} is malformed: {exc!r}") from None
        if coeffs.n != n:
            raise SystemExit(f"coeffs file {payload!r} holds n={coeffs.n}, but --n is {n}")
        return coeffs.with_band_limit(L)
    raise SystemExit(f"unknown init spec {spec!r}")


def cmd_minimize(cfg: RunConfig, init_spec: str, max_iter: int, step: float) -> int:
    # one entropy grid, and so one transform table, serves the random init,
    # the flow and the fit
    grid = en.default_entropy_grid(cfg.n, cfg.band_limit)
    try:  # a bad flow setting or an init without a usable norm becomes one line
        result = dy.minimize_deficit(_parse_init(init_spec, cfg, grid), step, max_iter, grid)
    except ValueError as exc:
        raise SystemExit(f"minimize: {exc}") from None
    fit = dy.fit_extremizer(result.coeffs, grid)
    print(f"flow: {result.iterations} iterations, final deficit {result.final_deficit:.3e} "
          f"({result.message})")
    print(f"fit: residual {fit.residual:.3e}, |zeta| {np.linalg.norm(fit.params.zeta):.4f}, "
          f"c {fit.params.c:.6f}, in_family {fit.in_family}")
    report = {
        "schema": SCHEMA_VERSION,
        "command": "minimize",
        "config": _report_config(cfg, "minimize"),
        "init": init_spec,
        "step": step,
        "max_iter": max_iter,
        "flow": result.to_json_dict(),
        "fit": fit.to_json_dict(),
        "final_coeffs": result.coeffs.to_json_dict(),
    }
    _write_json(report, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# movespheres subcommand

def _parse_point(text: str, n: int) -> np.ndarray:
    if text == "north":
        return sp.north_pole(n)
    vec = _numbers(text, "--xi0")
    if vec.size != n + 1:
        raise SystemExit(f"point needs {n + 1} components, got {vec.size}")
    try:
        return cf.LiftedInversion(1.0, vec).xi0  # nonzero, not the south pole
    except ValueError as exc:
        raise SystemExit(f"--xi0: {exc}") from None


def _parse_normal(text: str, n: int) -> np.ndarray:
    vec = _numbers(text, "--e")
    if vec.size != n:
        raise SystemExit(f"--e needs {n} components, got {vec.size}")
    try:
        cf.LiftedReflection(0.0, vec)  # nonzero
    except ValueError as exc:
        raise SystemExit(f"--e: {exc}") from None
    return vec


def cmd_movespheres(cfg: RunConfig, u_spec: str, xi0: str | None, e: str | None,
                    values: str, csv_path: str | None, tol: float) -> int:
    n = cfg.n
    if (xi0 is None) == (e is None):
        raise SystemExit("movespheres: pass exactly one of --xi0 (inversion) or --e (reflection)")
    if not (_finite(tol) and tol >= 0):
        raise SystemExit(f"--scan-tol must be a nonnegative finite number, got {tol!r}")
    # the constant and the family member are evaluated in closed form
    kind, _, payload = u_spec.partition(":")
    if kind == "constant":
        value = _parse_constant(payload)
        u = lambda pts: np.full(len(pts), value)
    elif kind == "extremizer":
        u = cf.extremizer(_parse_extremizer(payload, n))
    else:
        u = hm.as_evaluable(_parse_init(u_spec, cfg))
    rng = np.random.default_rng(cfg.seed)
    point = _parse_point(xi0, n) if xi0 is not None else None
    normal = _parse_normal(e, n) if e is not None else None
    try:  # the probe's ValueError (a PoleError is one) becomes one line
        if values != "auto":
            vals = _numbers(values, "--values").tolist()
            if len(set(vals)) != len(vals):
                raise SystemExit("--values: each scale value may appear once")
            report = dy.moving_sphere_profile(u, vals, xi0=point, e=normal, rng=rng)
        elif point is not None:
            report = dy.critical_lambda(u, point, tol=tol, rng=rng)
        else:
            report = dy.critical_alpha(u, normal, tol=tol, rng=rng)
    except ValueError as exc:
        raise SystemExit(f"movespheres: {exc}") from None
    if report.critical is not None:
        # the scan runs up in the radius and down in the offset, so its end
        # bounds a critical radius below and a critical offset above
        side = "lower" if report.kind == "inversion" else "upper"
        bound = f" ({side} bound)" if report.critical_is_bound else ""
        print(f"critical {report.parameter_name} = {report.critical:.6f}{bound}, "
              f"sup|w| there = {report.sup_w_at_critical:.3e}")
    out = {
        "schema": SCHEMA_VERSION,
        "command": "movespheres",
        "config": _report_config(cfg, "movespheres"),
        "u": u_spec,
        "scan_tol": tol,
        "report": report.to_json_dict(),
    }
    _write_json(out, cfg.out)
    if csv_path:
        _write_csv(report.csv_rows(), csv_path)
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with one line, like all bad input; subparsers inherit this."""

    def error(self, message):
        raise SystemExit(f"{self.prog}: {message}")


def _subparser(sub, command: str, summary: str) -> argparse.ArgumentParser:
    """The subcommand's parser with a flag for each field it reads."""
    p = sub.add_parser(command, help=summary)
    for key in _READS[command]:
        if key in _FLAGS:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    p.add_argument("--config", help="JSON config file")
    return p


def main(argv=None) -> int:
    parser = _Parser(
        prog="logsphere",
        description="Verification suites and diagnostics for the logarithmic "
                    "energy on the n-sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _subparser(sub, "verify", "run every identity suite")
    p_spec = _subparser(sub, "spectrum", "emit multiplier table as CSV")
    p_spec.add_argument("--lmax", type=int, default=64)

    p_min = _subparser(sub, "minimize", "deficit-minimizing flow")
    p_min.add_argument("--init", type=str, default="random:seed=0")
    p_min.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p_min.add_argument("--step", type=float, default=0.05)

    p_ms = _subparser(sub, "movespheres", "moving-spheres diagnostic")
    p_ms.add_argument("--u", type=str, default="constant:1")
    p_ms.add_argument("--xi0", type=str, default=None)
    p_ms.add_argument("--e", type=str, default=None)
    p_ms.add_argument("--values", type=str, default="auto",
                      help="comma list of scales, or 'auto' for critical search")
    p_ms.add_argument("--csv", type=str, default=None, help="profile CSV path")
    p_ms.add_argument("--scan-tol", dest="scan_tol", type=float, default=1e-9)

    args = parser.parse_args(argv)
    cfg = _load_config(args)
    if args.command in ("minimize", "movespheres"):
        _check_table_budget(cfg, args.command)
    _check_writable(cfg.out, "report")
    if args.command == "movespheres":
        _check_writable(args.csv, "CSV")
    if args.command == "verify":
        return cmd_verify(cfg)
    if args.command == "spectrum":
        return cmd_spectrum(cfg, args.lmax)
    if args.command == "minimize":
        return cmd_minimize(cfg, args.init, args.max_iter, args.step)
    return cmd_movespheres(cfg, args.u, args.xi0, args.e, args.values,
                           args.csv, args.scan_tol)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
