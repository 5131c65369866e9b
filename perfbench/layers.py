"""Which logsphere functions the traced run wraps, and the per-layer metrics
computed from their spans and from the job reports.

The layers are the package modules.  Wrapped are their public array-level
entry points; per-element helpers such as `flat_index`, `tri_index` or the
scalar special functions are left alone, because they run tens of thousands
of times inside the transform loops and a wrapper would cost more than they
do.  Time spent in an unwrapped helper counts toward the self time of the
nearest wrapped caller.
"""

from __future__ import annotations

import numpy as np

from spans import Span, self_times

TARGETS = {
    "sphere": ("build_grid", "integrate"),
    "specfun": ("assoc_legendre_norm", "fourier_basis"),
    "harmonics": ("analyze", "synthesize", "evaluate_at", "h_multiplier_table",
                  "apply_multiplier", "apply_H", "apply_P2s", "random_coeffs",
                  "pv_apply_H", "apply_P2s_direct"),
    "conformal": ("apply_map", "jacobian", "kernel_l", "sample_region",
                  "antisymmetry_defect"),
    "energy": ("energy_spectral", "energy_direct", "energy_direct_extrapolated",
               "energy_direct_extrapolated_many", "beckner_rhs", "beckner_deficit",
               "el_residual", "verify_conf_E", "verify_conf_H", "gibbs_gap"),
    "dynamics": ("minimize_deficit", "deficit_gradient", "deficit_value",
                 "random_positive_init", "fit_extremizer", "moving_sphere_profile",
                 "critical_lambda", "critical_alpha"),
    "cli": ("main",),
}

# energy_direct_extrapolated sums the pair kernel at the cutoffs eps and 2 eps
PAIR_CUTOFFS = 2


def _rows(points) -> int:
    a = np.asarray(points)
    return 1 if a.ndim == 1 else int(a.shape[0])


MEASURES = {
    "specfun.assoc_legendre_norm": lambda a: {
        "table_bytes": (a["L"] + 1) * (a["L"] + 2) // 2 * np.asarray(a["t"]).size * 8},
    "harmonics.evaluate_at": lambda a: {"points": _rows(a["points"])},
    "conformal.apply_map": lambda a: {"points": _rows(a["xi"])},
    "conformal.jacobian": lambda a: {"points": _rows(a["xi"])},
    "energy.energy_direct_extrapolated": lambda a: {
        "pair_evals": a["u"].grid.node_count ** 2 * PAIR_CUTOFFS},
}

CALLS = ("specfun.assoc_legendre_norm", "harmonics.analyze", "harmonics.synthesize",
         "harmonics.evaluate_at", "harmonics.h_multiplier_table", "sphere.build_grid",
         "conformal.apply_map", "conformal.jacobian",
         "energy.energy_direct_extrapolated")
SELF_TIMES = CALLS + (
    "conformal.kernel_l", "conformal.sample_region",
    "energy.verify_conf_E", "energy.verify_conf_H", "energy.beckner_deficit",
    "energy.el_residual", "dynamics.minimize_deficit", "dynamics.fit_extremizer",
    "dynamics.critical_lambda", "dynamics.moving_sphere_profile", "cli.main")
POINTS = ("harmonics.evaluate_at", "conformal.apply_map", "conformal.jacobian")

# Counts are taken over the first COUNT_JOBS traced jobs only, so that for a
# given seed they repeat exactly; times use every traced job.  run.py runs
# at least this many jobs in each phase.
COUNT_JOBS = 3

HIGHER_IS_BETTER = ("harmonics.table_reuse", "energy.pair_evals_per_s",
                    "dynamics.flow.accept_ratio")
RATIOS = ("harmonics.table_reuse", "dynamics.flow.accept_ratio",
          "energy.xcheck_rel_err", "trace.overhead_frac")


def describe(name: str) -> tuple[str, str]:
    """(unit, which direction is better) of a per-layer metric."""
    if name.endswith(".self_s"):
        unit = "s"
    elif name.endswith(".table_mb"):
        unit = "MiB"
    elif name == "energy.pair_evals_per_s":
        unit = "1/s"
    elif name in RATIOS:
        unit = "ratio"
    else:
        unit = "count"
    return unit, "higher" if name in HIGHER_IS_BETTER else "lower"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], reports: dict[int, dict]) -> dict[str, float]:
    """Per-layer metrics of a traced phase.  `reports` maps job id to the
    job's report; counts and times are means per job."""
    jobs = sorted(reports)
    count_jobs = set(jobs[:COUNT_JOBS])
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    counted = [s for s in spans if s.job in count_jobs]

    def n_calls(name, called_from=()):
        return sum(1 for s in counted if s.name == name and (
            not called_from or (s.parent is not None
                                and by_id[s.parent].name in called_from)))

    def attr_sum(name, key, pool):
        return sum(s.attrs[key] for s in pool if s.name == name)

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = n_calls(name) / len(count_jobs)
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in spans if s.name == name) / len(jobs)
    for name in POINTS:
        out[f"{name}.points"] = attr_sum(name, "points", counted) / len(count_jobs)

    tables = [s.attrs["table_bytes"] for s in counted if s.name == "specfun.assoc_legendre_norm"]
    out["specfun.assoc_legendre_norm.table_mb"] = max(tables, default=0) / 2**20
    transforms = n_calls("harmonics.analyze") + n_calls("harmonics.synthesize")
    rebuilt = n_calls("specfun.assoc_legendre_norm",
                      called_from={"harmonics.analyze", "harmonics.synthesize"})
    out["harmonics.table_reuse"] = 1.0 - rebuilt / transforms if transforms else 0.0

    pairs = attr_sum("energy.energy_direct_extrapolated", "pair_evals", counted)
    out["energy.pair_evals"] = pairs / len(count_jobs)
    kernel = [s for s in spans if s.name == "energy.energy_direct_extrapolated"]
    out["energy.pair_evals_per_s"] = _ratio(
        attr_sum("energy.energy_direct_extrapolated", "pair_evals", kernel),
        sum(s.duration() for s in kernel))

    first = [reports[j] for j in jobs[:COUNT_JOBS]]
    out["energy.xcheck_rel_err"] = max(
        (float(s["metric"]) for r in first for s in r.get("suites", [])
         if s["name"] == "energyharmonics"), default=0.0)
    iterations = sum(r["flow"]["iterations"] for r in first if "flow" in r)
    deficit_evals = n_calls("harmonics.synthesize",
                            called_from={"dynamics.minimize_deficit"})
    out["dynamics.flow.iterations"] = iterations / len(first)
    out["dynamics.flow.deficit_evals"] = deficit_evals / len(count_jobs)
    out["dynamics.flow.accept_ratio"] = _ratio(iterations, deficit_evals)
    out["dynamics.fit_extremizer.iterations"] = sum(
        r["fit"]["iterations"] for r in first if "fit" in r) / len(first)
    return out
