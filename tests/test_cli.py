"""CLI contracts: exit codes, report schema, reproducibility, fault hook."""

import csv
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from logsphere.cli import (
    RunConfig,
    _check_table_budget,
    _parse_init,
    _parse_vector_spec,
    _write_json,
    main,
)
from logsphere import dynamics as dy
from logsphere import energy as en
from logsphere import harmonics as hm
from logsphere import sphere as sp
from logsphere.harmonics import HarmonicCoeffs, random_coeffs
from logsphere.verify import SUITES, _suite_gibbs, table_needs
from oracles import kernel_sign_loop, synthesized_random_init

SUITE = {suite.name: suite for suite in SUITES}


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "report.json"
    code = main(["verify", "--seed", "0", "--out", str(out)])
    return code, read_json(out), out


def test_verify_passes_with_defaults(verify_report):
    code, report, _ = verify_report
    assert code == 0
    assert report["schema"] == 9
    assert report["all_pass"] is True
    assert len(report["suites"]) >= 8
    assert all(s["passed"] for s in report["suites"])
    names = {s["name"] for s in report["suites"]}
    assert {"conformal_distance", "kernel_sign", "conf_transf_E", "conf_transf_H",
            "energyharmonics", "gibbs", "deficit_nonneg", "el_residual_family"} <= names


def test_verify_reproducible(verify_report, tmp_path):
    _, _, first_path = verify_report
    out2 = tmp_path / "again.json"
    assert main(["verify", "--seed", "0", "--out", str(out2)]) == 0
    assert first_path.read_bytes() == out2.read_bytes()


def test_verify_seed_changes_report(verify_report, tmp_path):
    _, report, _ = verify_report
    out2 = tmp_path / "seeded.json"
    assert main(["verify", "--seed", "99", "--out", str(out2)]) == 0
    assert read_json(out2)["suites"] != report["suites"]


def test_report_lists_the_suites_in_table_order(verify_report):
    _, report, _ = verify_report
    assert [s["name"] for s in report["suites"]] == [suite.name for suite in SUITES]


@pytest.mark.parametrize("suite", [suite.name for suite in SUITES if suite.fault])
def test_verify_fault_injection(suite, tmp_path, capsys):
    # at the default scale, the fault fails its own suite and no other
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fault": {"suite": suite}}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert suite in captured.err
    report = read_json(out)
    assert not report["all_pass"]
    failing = [s["name"] for s in report["suites"] if not s["passed"]]
    assert failing == [suite]


@pytest.mark.parametrize("scale", [1e-300, -1.0, 1e300])
def test_fault_scales_in_range_fail_their_suite_with_a_finite_metric(scale, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fault": {"suite": "energyharmonics", "scale": scale}}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    suites = read_json(out)["suites"]
    assert [s["name"] for s in suites if not s["passed"]] == ["energyharmonics"]
    assert all(math.isfinite(s["metric"]) for s in suites)


def test_verify_circle_pipeline(tmp_path):
    out = tmp_path / "n1.json"
    assert main(["verify", "--n", "1", "--seed", "1", "--out", str(out)]) == 0
    assert read_json(out)["config"]["n"] == 1


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "band_limit": 8}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["config"]["seed"] == 3  # flag wins
    assert report["config"]["band_limit"] == 8  # file beats default


def test_spectrum_table(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", "2", "--lmax", "12", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:2] == ["l", "h"]
    assert len(data) == 14  # 0..12 plus the l = 10^4 sanity row
    by_l = {int(float(r[0])): r for r in data}
    assert float(by_l[0][1]) == 0.0
    assert float(by_l[1][1]) == pytest.approx(2.0 * math.pi, abs=1e-12)
    sanity = by_l[10_000]
    ratio = float(sanity[1]) / (math.log(10_000.0) * 2.0 * math.pi)
    assert ratio == pytest.approx(1.0, abs=0.1)


def spectrum_csv_at_once(n, lmax, lineterminator):
    """The spectrum table as one list of rows, written with one `writerows`:
    the form before the rows were streamed."""
    s_values = [0.25 * n / 2, 0.5 * n / 2, 0.75 * n / 2]
    rows = [("l", "h", *(f"p2s@s={s:g}" for s in s_values))]
    rows += [(l, hm.multiplier_H(n, l), *(hm.multiplier_P2s(n, l, s) for s in s_values))
             for l in [*range(lmax + 1), 10_000]]
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator=lineterminator).writerows(rows)
    return text.getvalue()


@pytest.mark.parametrize("n", [1, 2])
def test_spectrum_bytes_match_the_table_written_at_once(tmp_path, capsys, n):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n", str(n), "--lmax", "2000", "--out", str(out)]) == 0
    assert out.read_bytes() == spectrum_csv_at_once(n, 2000, "\r\n").encode()
    capsys.readouterr()
    assert main(["spectrum", "--n", str(n), "--lmax", "2000"]) == 0
    table = capsys.readouterr().out.rsplit("# sanity", 1)[0]
    assert table == spectrum_csv_at_once(n, 2000, "\n")


def test_spectrum_memory_does_not_grow_with_lmax(tmp_path, capsys):
    # every row is written when it is computed; keeping them took 21 MiB here
    out = tmp_path / "spec.csv"
    tracemalloc.start()
    try:
        assert main(["spectrum", "--lmax", "100000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024**2
    lines = out.read_bytes().split(b"\r\n")
    assert len(lines) == 100_004 and lines[-1] == b""  # header, 100001 + 1 rows
    want = spectrum_csv_at_once(2, 100, "\r\n").encode().split(b"\r\n")
    assert lines[:102] == want[:102] and lines[-2] == want[-2]


def test_minimize_constant_terminates(tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", "--init", "constant:1", "--out", str(out)]) == 0
    rep = read_json(out)
    assert abs(rep["flow"]["final_deficit"]) < 1e-10
    assert rep["flow"]["iterations"] <= 2


def test_minimize_family_init(tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", "--init", "extremizer:zeta=0.3e3", "--band-limit", "16",
                 "--out", str(out)]) == 0
    rep = read_json(out)
    assert abs(rep["flow"]["final_deficit"]) < 1e-6
    assert rep["fit"]["residual"] < 1e-6
    zeta = rep["fit"]["zeta"]
    assert zeta[2] == pytest.approx(0.3, abs=1e-6)


def test_minimize_random_converges(tmp_path):
    out = tmp_path / "min.json"
    assert main(["minimize", "--init", "random:seed=7", "--band-limit", "12",
                 "--out", str(out)]) == 0
    rep = read_json(out)
    assert rep["flow"]["final_deficit"] <= 1e-4
    assert rep["fit"]["residual"] <= 1e-2
    assert "final_coeffs" in rep and rep["final_coeffs"]["L"] == 12


def test_minimize_negative_state_is_not_in_the_family(tmp_path):
    # -1 has the deficit of 1, but no positive family member fits it
    out = tmp_path / "min.json"
    assert main(["minimize", "--band-limit", "8", "--init", "constant:-1",
                 "--out", str(out)]) == 0
    fit = read_json(out)["fit"]
    assert fit["in_family"] is False
    assert fit["residual"] == 1.0 and fit["c"] == 0.0
    assert "not positive" in fit["message"]


def test_minimize_report_has_the_keys_the_benchmark_reads(tmp_path):
    # perfbench/workloads.py checks and compares these, and perfbench/layers.py
    # reads the iteration counts of traced runs
    out = tmp_path / "min.json"
    assert main(["minimize", "--band-limit", "4", "--init", "random:seed=3",
                 "--max-iter", "3", "--out", str(out)]) == 0
    rep = read_json(out)
    assert {"deficits", "converged", "message", "iterations",
            "final_deficit"} <= set(rep["flow"])
    assert {"in_family", "c", "residual", "zeta", "iterations"} <= set(rep["fit"])


def test_movespheres_constant(tmp_path):
    out = tmp_path / "ms.json"
    csv_path = tmp_path / "ms.csv"
    assert main(["movespheres", "--u", "constant:1", "--xi0", "north",
                 "--out", str(out), "--csv", str(csv_path), "--seed", "2"]) == 0
    rep = read_json(out)["report"]
    assert rep["critical"] == pytest.approx(1.0, abs=1e-2)
    assert rep["sup_w_at_critical"] <= 1e-6
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["lambda", "min_w", "sup_abs_w"]  # a search has no defect column
    assert len(rows) == len(rep["values"]) + 1
    assert rep["defect"] is None and rep["defect_at_critical"] <= 1e-8


def test_movespheres_family_reflection(tmp_path):
    out = tmp_path / "ms.json"
    assert main(["movespheres", "--u", "extremizer:zeta=0.2e1", "--e", "1,0",
                 "--out", str(out), "--seed", "3"]) == 0
    rep = read_json(out)["report"]
    assert rep["kind"] == "reflection" and rep["parameter"] == "alpha"
    assert rep["sup_w_at_critical"] <= 1e-3


@pytest.mark.parametrize("argv, printed", [
    (["--e", "1,0", "--u", "constant:1", "--scan-tol", "1"],
     "critical alpha = -6.000000 (upper bound)"),
    (["--xi0", "north", "--u", "extremizer:zeta=-0.9999e3"],
     "critical lambda = 50.000000 (lower bound)"),
], ids=["offset", "radius"])
def test_movespheres_names_the_side_of_a_bound(argv, printed, tmp_path, capsys):
    # the offsets are scanned down to -6 and the radii up to 50: a scan that
    # never fails (here, for the constant, under a loose tolerance) bounds
    # the critical offset above and the radius below
    assert main(["movespheres", *argv, "--out", str(tmp_path / "ms.json")]) == 0
    assert read_json(tmp_path / "ms.json")["report"]["critical_is_bound"] is True
    assert capsys.readouterr().out.startswith(printed + ", ")


def test_movespheres_evaluates_the_requested_extremizer(tmp_path):
    # the family member is probed in closed form, not through a band-limited refit
    out = tmp_path / "ms.json"
    assert main(["movespheres", "--u", "extremizer:zeta=0.95e3", "--xi0", "north",
                 "--values", "auto", "--out", str(out)]) == 0
    rep = read_json(out)["report"]
    zeta = 0.95
    assert rep["critical"] == pytest.approx(math.sqrt(1.0 - zeta**2) / (1.0 + zeta), rel=1e-6)


def test_movespheres_explicit_values(tmp_path):
    out = tmp_path / "ms.json"
    assert main(["movespheres", "--u", "constant:1", "--xi0", "north",
                 "--values", "0.5,1.0,2.0", "--out", str(out)]) == 0
    rep = read_json(out)["report"]
    assert rep["critical"] is None
    assert rep["values"] == [0.5, 1.0, 2.0]
    assert rep["sup_abs_w"][1] < 1e-10


def test_movespheres_non_solution_from_coeff_file(tmp_path):
    # a perturbed constant passes the sign change but w does not vanish there
    import math

    from logsphere import HarmonicCoeffs, sphere_area
    from oracles import flat_index

    c = HarmonicCoeffs.zeros(2, 8)
    c.coeffs[0] = math.sqrt(sphere_area(2))
    c.coeffs[flat_index(2, 2, 0)] = 0.5 * math.sqrt(sphere_area(2))
    path = tmp_path / "u.json"
    path.write_text(json.dumps(c.to_json_dict()))
    out = tmp_path / "ms.json"
    assert main(["movespheres", "--u", f"coeffs:{path}", "--xi0", "north",
                 "--out", str(out), "--seed", "4"]) == 0
    rep = read_json(out)["report"]
    assert rep["sup_w_at_critical"] > 1e-1


def test_coeffs_file_is_evaluated_at_the_band_limit(tmp_path):
    # degrees above --band-limit are dropped, as if the file stopped there
    rng = np.random.default_rng(12)
    c = HarmonicCoeffs.constant(2, 12, 1.0)
    c.coeffs += 0.02 * random_coeffs(2, 12, rng).coeffs
    path, out = tmp_path / "u.json", tmp_path / "ms.json"
    argv = ["movespheres", "--band-limit", "8", "--u", f"coeffs:{path}",
            "--xi0", "north", "--values", "0.5,1.0,2.0", "--out", str(out)]
    reports = []
    for coeffs in (c, c.with_band_limit(8)):
        path.write_text(json.dumps(coeffs.to_json_dict()))
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_minimize_report_coeffs_are_an_init_file(tmp_path):
    # the report's final_coeffs object is a coefficient file as it stands
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["minimize", "--band-limit", "6", "--init", "random:seed=3",
                 "--out", str(first)]) == 0
    final = read_json(first)["final_coeffs"]
    assert set(final) == {"n", "L", "coeffs"} and len(final["coeffs"]) == 49
    path = tmp_path / "final.json"
    path.write_text(json.dumps(final))
    assert main(["minimize", "--band-limit", "6", "--init", f"coeffs:{path}",
                 "--max-iter", "1", "--out", str(again)]) == 0
    # the same vector, bit for bit, and the flow starts from its deficit
    init = _parse_init(f"coeffs:{path}", RunConfig(band_limit=6))
    assert init.coeffs.tolist() == final["coeffs"]
    assert read_json(again)["flow"]["deficits"][0] == read_json(first)["flow"]["final_deficit"]


def test_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json({"defect": math.nan}, str(tmp_path / "rep.json"))


@pytest.mark.parametrize("big, plain", [
    (["--e=1e300,1e300"], ["--e=1,1"]),
    (["--xi0=1e300,0,1"], ["--xi0=1,0,0"]),
], ids=["e", "xi0"])
def test_movespheres_takes_geometry_whose_norm_overflows(big, plain, tmp_path):
    # a finite vector whose squared norm overflows is scaled down before it
    # is normalized, with no warning; its unit vector is that of the plain
    # one (to the 1e-300 left of the last coordinate of xi0), so the probe
    # reports the same numbers
    reports = []
    for geometry in (big, plain):
        out = tmp_path / f"ms{len(reports)}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["movespheres", "--band-limit", "8", "--u", "random:seed=3",
                         *geometry, "--out", str(out)]) == 0
        reports.append(read_json(out)["report"])
    got, want = reports
    assert got["critical"] is not None and not got["critical_is_bound"]
    if big[0].startswith("--xi0"):
        assert got.pop("center") == [1.0, 0.0, 1e-300] and want.pop("center") == [1.0, 0.0, 0.0]
    else:
        assert got.pop("direction") == [1e300, 1e300] and want.pop("direction") == [1.0, 1.0]
    assert got == want


def test_movespheres_derives_the_chebyshev_rows_once_per_state(monkeypatch, tmp_path):
    # the random state's perturbation is scaled on its own rows, by
    # `evaluate_on_grid`; `as_evaluable` derives the state's rows once, and
    # every evaluation of the critical search reads them: sup |u|, the 32
    # scan values, at least one root-finder step and the two passes at the
    # critical value
    rows = counting(monkeypatch, hm, "_chebyshev_rows")
    evaluations = counting(monkeypatch, hm, "evaluate_at")
    assert main(["movespheres", "--u", "random:seed=3", "--xi0", "north", "--values", "auto",
                 "--out", str(tmp_path / "ms.json")]) == 0
    assert len(rows) == 2 and len(evaluations) >= 1 + 32 + 1 + 2


@pytest.mark.parametrize("n", [1, 2])
def test_movespheres_scales_a_random_state_without_a_transform_table(monkeypatch, tmp_path, n):
    # the perturbation's values at the entropy grid's nodes come from the
    # cached Chebyshev plan: the polar rows are taken at the plan's heights
    # only, no transform table is built and the grid forms no nodes
    hm._evaluation_plan.cache_clear()
    heights, grids = [], []
    polar_rows, entropy_grid = hm._polar_rows, dy.default_entropy_grid

    def counting_polar_rows(n, L, t):
        heights.append(t.size)
        return polar_rows(n, L, t)

    def kept_entropy_grid(n, L):
        grids.append(entropy_grid(n, L))
        return grids[-1]

    monkeypatch.setattr(hm, "_polar_rows", counting_polar_rows)
    monkeypatch.setattr(dy, "default_entropy_grid", kept_entropy_grid)
    tables = counting(monkeypatch, hm, "_transform_tables")
    assert main(["movespheres", "--n", str(n), "--band-limit", "24", "--u", "random:seed=3",
                 "--xi0", "north", "--values", "0.5,1.0", "--out", str(tmp_path / "ms.json")]) == 0
    assert tables == [] and heights == [sp.grid_shape(n, 24)[0]]
    assert len(grids) == 1 and "nodes" not in vars(grids[0])


@pytest.mark.parametrize("n", [1, 2])
def test_minimize_scales_its_random_init_by_synthesis(monkeypatch, tmp_path, n):
    # `minimize` passes its entropy grid, so the perturbation is synthesized
    # on the transform tables the flow reads anyway: the init the flow starts
    # from has the bits of the synthesis route
    inits = []
    flow = dy.minimize_deficit

    def kept_init(init, *args):
        inits.append(init)
        return flow(init, *args)

    monkeypatch.setattr(dy, "minimize_deficit", kept_init)
    assert main(["minimize", "--n", str(n), "--band-limit", "8", "--init", "random:seed=5",
                 "--max-iter", "2", "--out", str(tmp_path / "min.json")]) == 0
    want = synthesized_random_init(n, 8, np.random.default_rng(5), 0.2)
    assert inits[0].coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("suite, tables", [("deficit_nonneg", 2), ("el_residual_family", 3)])
def test_family_suites_build_one_member_grid_and_one_entropy_grid(monkeypatch, n, suite,
                                                                  tables):
    # the members share one degree-L grid and the deficits (or residuals)
    # one entropy grid: two grids, whose Legendre tables on S^2 are one per
    # (grid, band limit) -- the residuals analyze at the test band limit too
    member_grids = counting(monkeypatch, sp, "build_grid")
    entropy_grids = counting(monkeypatch, en, "build_grid")
    default_grids = counting(monkeypatch, dy, "build_grid")
    legendre = counting(monkeypatch, hm, "assoc_legendre_norm")
    assert SUITE[suite].check(RunConfig(n=n), np.random.default_rng(0))["passed"]
    assert (len(member_grids), len(entropy_grids), len(default_grids)) == (1, 1, 0)
    assert len(legendre) == (tables if n == 2 else 0)


def test_movespheres_requires_one_geometry():
    with pytest.raises(SystemExit):
        main(["movespheres", "--u", "constant:1"])


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit):
        main(["verify", "--config", str(cfg)])


@pytest.mark.parametrize("argv", [
    ["minimize", "--init", "extremizer:zeta=1e-3e9"],
    ["minimize", "--init", "extremizer:zeta=1e-3ex"],
    ["minimize", "--init", "extremizer:zeta=bige3"],
    ["minimize", "--init", "coeffs:{tmp}/missing.json"],
    ["minimize", "--init", "coeffs:{tmp}/not_json.txt"],
    ["verify", "--config", "{tmp}/missing.json"],
    ["verify", "--config", "{tmp}/not_json.txt"],
    ["movespheres", "--xi0=0,x,1"],
    ["movespheres", "--e", "1,x"],
    ["movespheres", "--xi0", "north", "--values", "0.5,big"],
    ["minimize", "--init", "extremizer:zeta=2e3"],
    ["movespheres", "--xi0=0,0,0"],
    ["movespheres", "--xi0=0,0,-1"],
    ["movespheres", "--e", "0,0"],
    ["movespheres", "--e", "1,0,0"],
    ["verify", "--config", "{tmp}/band_limit_str.json"],
    ["verify", "--config", "{tmp}/seed_str.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_nan.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_inf.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_duplicate.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_above_band.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_negative_degree.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_string.json"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_bool.json"],
    ["movespheres", "--xi0", "north", "--u", "constant:x"],
    ["movespheres", "--xi0", "north", "--u", "extremizer:zeta=2e3"],
    ["verify", "--config", "{tmp}/fault_scale_str.json"],
    ["verify", "--config", "{tmp}/fault_scale_nan.json"],
    ["verify", "--config", "{tmp}/fault_scale_huge.json"],
    ["verify", "--config", "{tmp}/fault_scale_zero.json"],
    ["verify", "--config", "{tmp}/fault_scale_subnormal.json"],
    ["verify", "--config", "{tmp}/fault_scale_overflow.json"],
    ["verify", "--config", "{tmp}/fault_scale_negative_overflow.json"],
    ["verify", "--config", "{tmp}/fault_suite_unknown.json"],
    ["verify", "--config", "{tmp}/fault_suite_missing.json"],
    ["verify", "--config", "{tmp}/fault_suite_without_fault.json"],
    ["verify", "--config", "{tmp}/fault_extra_key.json"],
    ["verify", "--seed", "-1"],
    ["verify", "--grid-degree", "-3"],
    ["minimize", "--max-iter", "0"],
    ["minimize", "--step", "nan"],
    ["minimize", "--step", "inf"],
    ["minimize", "--init", "random:seed=-1"],
    ["movespheres", "--xi0", "north", "--values", "0.5,0.5"],
    ["movespheres", "--xi0", "north", "--values", "0.5,nan"],
    ["movespheres", "--xi0", "north", "--values=-0.5,1"],
    ["movespheres", "--xi0=0,nan,1"],
    ["movespheres", "--xi0", "north", "--u", "constant:inf"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "-1"],
    ["verify", "--config", "{tmp}/tol_nan.json"],
    ["verify", "--config", "{tmp}/tol_negative.json"],
    ["verify", "--config", "{tmp}/tol_huge.json"],
    ["movespheres", "--xi0", "north", "--scan-tol", "nan"],
    ["movespheres", "--xi0", "north", "--scan-tol", "-1"],
    ["minimize", "--band-limit", "100000", "--max-iter", "1"],
    ["spectrum", "--lmax=-3"],
    ["verify", "--grid-degree", "100000"],
    ["spectrum", "--band-limit", "8"],
    ["spectrum", "--seed", "1"],
    ["minimize", "--tol", "2"],
    ["minimize", "--grid-degree", "5"],
    ["movespheres", "--xi0", "north", "--tol", "1e-6"],
    ["minimize", "--n", "x"],
    ["minimize", "--config", "{tmp}/grid_degree.json"],
    ["movespheres", "--xi0", "north", "--config", "{tmp}/fault_suite_ok.json"],
    ["minimize", "--n", "2", "--band-limit", "8", "--init", "coeffs:{tmp}/coeffs_n1.json"],
    ["movespheres", "--n", "2", "--u", "coeffs:{tmp}/coeffs_n1.json", "--xi0", "north",
     "--values", "0.5,1.0"],
    ["movespheres", "--xi0", "north", "--values", "1e200"],
    ["movespheres", "--xi0", "north", "--values", "1e-200"],
    ["movespheres", "--xi0", "north", "--values", "1e6"],
    ["movespheres", "--e", "1,0", "--values", "1e8"],
    ["movespheres", "--e", "1,0", "--values", "1e200"],
    ["movespheres", "--u", "extremizer:zeta=0.9999e3", "--xi0", "north"],
    ["minimize", "--band-limit", "8", "--init", "constant:0"],
    ["minimize", "--init", "extremizer:zeta=0.3e3;c=0"],
    ["minimize", "--init", "coeffs:{tmp}/coeffs_empty.json"],
    ["minimize", "--band-limit", "8", "--init", "constant:1e300"],
    ["minimize", "--band-limit", "8", "--init", "random:amp=1e300"],
    ["minimize", "--band-limit", "8", "--init", "random:amp=1e308"],
    ["movespheres", "--band-limit", "8", "--xi0=0,0,1", "--u", "random:amp=1e308"],
    ["minimize", "--band-limit", "8", "--init", "constant:1e-300"],
    ["verify", "--out", "{tmp}/missing/x.json"],
    ["minimize", "--band-limit", "8", "--out", "{tmp}"],
    ["spectrum", "--out", "{tmp}/missing/s.csv"],
    ["movespheres", "--xi0=north", "--values", "1", "--csv", "{tmp}"],
    ["movespheres", "--xi0=north", "--csv", "{tmp}/missing/ms.csv"],
], ids=["zeta-axis-range", "zeta-axis", "zeta-magnitude", "coeffs-missing",
        "coeffs-not-json", "config-missing", "config-not-json", "xi0", "e", "values",
        "zeta-outside-ball", "xi0-zero", "xi0-south-pole", "e-zero", "e-size",
        "config-band-limit-type", "config-seed-type", "coeffs-nan", "coeffs-inf",
        "coeffs-duplicate", "coeffs-above-band", "coeffs-negative-degree", "coeffs-string",
        "coeffs-bool",
        "u-constant", "u-extremizer-outside-ball", "fault-scale-str", "fault-scale-nan",
        "fault-scale-huge", "fault-scale-zero", "fault-scale-subnormal",
        "fault-scale-overflow", "fault-scale-negative-overflow", "fault-suite-unknown", "fault-suite-missing",
        "fault-suite-without-fault", "fault-extra-key",
        "seed-negative", "grid-degree-negative", "max-iter-zero", "step-nan", "step-inf",
        "random-seed-negative", "values-repeated", "values-nan", "values-negative-radius",
        "xi0-nan", "u-constant-inf", "tol-nan", "tol-negative", "config-tol-nan",
        "config-tol-negative", "config-tol-huge", "scan-tol-nan", "scan-tol-negative",
        "band-limit-huge", "spectrum-lmax-negative", "grid-degree-huge",
        "spectrum-band-limit", "spectrum-seed", "minimize-tol", "minimize-grid-degree",
        "movespheres-tol", "minimize-n-type", "minimize-config-grid-degree",
        "movespheres-config-fault", "minimize-coeffs-n", "movespheres-coeffs-n",
        "radius-overflow", "radius-tiny", "radius-huge", "offset-huge", "offset-overflow",
        "critical-radius-below-scan", "init-constant-zero", "init-extremizer-zero",
        "init-coeffs-empty", "init-norm-overflow", "init-random-norm-overflow",
        "init-random-amp-overflow", "movespheres-random-amp-overflow",
        "init-norm-underflow", "out-missing-dir", "out-directory", "spectrum-out-missing-dir",
        "csv-directory", "csv-missing-dir"])
def test_bad_input_exits_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "not_json.txt").write_text("not json")
    files = {
        "band_limit_str.json": {"band_limit": "x"},
        "seed_str.json": {"seed": "abc"},
        # dense coefficient vectors: 5 slots at (n, L) = (1, 2), 9 at (2, 2)
        "coeffs_nan.json": {"n": 1, "L": 2, "coeffs": [1.0, math.nan, 0.0, 0.0, 0.0]},
        "coeffs_inf.json": {"n": 2, "L": 2, "coeffs": [math.inf] + [0.0] * 8},
        # the old [l, m, value] triplet form, here with a repeated label
        "coeffs_duplicate.json": {"n": 2, "L": 2, "coeffs": [[1, 0, 1.0], [1, 0, 2.0]]},
        "coeffs_above_band.json": {"n": 2, "L": 2, "coeffs": [1.0] * 16},
        "coeffs_negative_degree.json": {"n": 1, "L": -1, "coeffs": []},
        "coeffs_string.json": {"n": 1, "L": 2, "coeffs": [1.0, "0.5", 0.0, 0.0, 0.0]},
        "coeffs_bool.json": {"n": 1, "L": 2, "coeffs": [1.0, True, 0.0, 0.0, 0.0]},
        "fault_scale_str.json": {"fault": {"suite": "energyharmonics", "scale": "abc"}},
        "fault_scale_nan.json": {"fault": {"suite": "energyharmonics", "scale": math.nan}},
        "fault_scale_huge.json": {"fault": {"suite": "energyharmonics", "scale": 10**400}},
        "fault_scale_zero.json": {"fault": {"suite": "energyharmonics", "scale": 0}},
        "fault_scale_subnormal.json": {"fault": {"suite": "energyharmonics", "scale": 5e-324}},
        "fault_scale_overflow.json": {"fault": {"suite": "energyharmonics", "scale": 1e308}},
        "fault_scale_negative_overflow.json": {"fault": {"suite": "energyharmonics",
                                                         "scale": -1e308}},
        "fault_suite_unknown.json": {"fault": {"suite": "nosuch"}},
        "fault_suite_missing.json": {"fault": {"scale": 1.05}},
        "fault_suite_without_fault.json": {"fault": {"suite": "gibbs"}},
        "fault_extra_key.json": {"fault": {"suite": "energyharmonics", "bogus": 1}},
        "tol_nan.json": {"tol": math.nan},
        "tol_negative.json": {"tol": -1.0},
        "tol_huge.json": {"tol": 10**400},
        "grid_degree.json": {"grid_degree": 5},
        "fault_suite_ok.json": {"fault": {"suite": "energyharmonics"}},
        "coeffs_n1.json": {"n": 1, "L": 2, "coeffs": [1.0, 0.1, 0.0, 0.0, 0.0]},
        "coeffs_empty.json": {"n": 2, "L": 2, "coeffs": []},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))  # NaN and Infinity tokens
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and message and "\n" not in message
    assert capsys.readouterr().out == ""  # refused before any work is reported


def test_output_paths_are_checked_without_leaving_files(tmp_path, capsys):
    # a refused CSV path stops the run before the report path, which the
    # check created, is written: it is removed again; an existing file keeps
    # its bytes until the run writes it
    out, kept = tmp_path / "ms.json", tmp_path / "kept.json"
    with pytest.raises(SystemExit, match="cannot write CSV file .*: Is a directory"):
        main(["movespheres", "--xi0=north", "--values", "1", "--out", str(out),
              "--csv", str(tmp_path)])
    assert not out.exists()
    kept.write_text("old")
    with pytest.raises(SystemExit, match="cannot write CSV file"):
        main(["movespheres", "--xi0=north", "--values", "1", "--out", str(kept),
              "--csv", str(tmp_path / "missing" / "ms.csv")])
    assert kept.read_text() == "old"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("values", ["auto", "0.5,1.0"], ids=["critical-search", "profile"])
@pytest.mark.parametrize("flags", [["--xi0", "north", "--e", "1,0"], []], ids=["both", "neither"])
def test_movespheres_takes_exactly_one_of_xi0_and_e(flags, values, capsys):
    # the critical search used to run the inversion and drop --e
    with pytest.raises(SystemExit) as exc:
        main(["movespheres", *flags, "--values", values])
    assert exc.value.code == ("movespheres: pass exactly one of --xi0 (inversion) "
                              "or --e (reflection)")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("n, largest_ok", [(2, 505), (1, 11574)])
def test_grid_degree_budget_boundary(n, largest_ok):
    # the pair-kernel peak: about 2 (degree + 1)^3 doubles on S^2, the kernel
    # table and its transform, and 2 (degree + 2)^2 on S^1, the cosine matrix
    _check_table_budget(RunConfig(n=n, grid_degree=largest_ok), "verify")
    with pytest.raises(SystemExit, match=f"grid degree {largest_ok + 1} "):
        _check_table_budget(RunConfig(n=n, grid_degree=largest_ok + 1), "verify")


@pytest.mark.parametrize("n, largest_ok", [(2, 384), (1, 4087)])
def test_verify_band_limit_budget_boundary(n, largest_ok):
    # the conformal-identity suites: the transform table at 2L on the
    # degree-2L work grid, and evaluating the states at its mapped nodes
    _check_table_budget(RunConfig(n=n, band_limit=largest_ok), "verify")
    with pytest.raises(SystemExit, match=f"band limit {largest_ok + 1} "):
        _check_table_budget(RunConfig(n=n, band_limit=largest_ok + 1), "verify")


@pytest.mark.parametrize("n, command, largest_ok", [
    (2, "minimize", 634), (2, "movespheres", 642), (1, "minimize", 5790),
    (1, "movespheres", 5790)])
def test_flow_and_probe_band_limit_budget_boundary(n, command, largest_ok):
    # the flow: the transform tables at L on the degree-2L entropy grid.  The
    # probe: the off-grid plan, the polar table at L + 1 Chebyshev nodes on
    # S^2 (one on S^1), and `evaluate_on_grid` on that grid, whose (azimuths,
    # L + 1) powers on S^1 take the place of the flow's azimuth table
    _check_table_budget(RunConfig(n=n, band_limit=largest_ok), command)
    with pytest.raises(SystemExit, match=f"band limit {largest_ok + 1} "):
        _check_table_budget(RunConfig(n=n, band_limit=largest_ok + 1), command)


@pytest.mark.parametrize("n, band_limit", [(1, 256), (2, 32)])
def test_table_needs_bound_every_suite_peak(n, band_limit):
    # on S^1 the conformal-identity suites hold the transform table and the
    # off-grid evaluation's workspace; on a small S^2 grid gibbs' stacks are largest
    cfg = RunConfig(n=n, band_limit=band_limit)
    need = max(table_needs(cfg).values())
    for k, suite in enumerate(SUITES):
        suite.run(cfg, np.random.default_rng(k))  # first-use allocations stay out
        hm._evaluation_plan.cache_clear()
        hm.h_multiplier_table.cache_clear()
        tracemalloc.start()
        try:
            suite.run(cfg, np.random.default_rng(cfg.seed + 1000 * k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (suite.name, peak, need)


@pytest.mark.parametrize("argv, echoed", [
    (["minimize", "--init", "constant:1", "--max-iter", "1"], {"n", "band_limit", "seed"}),
    (["movespheres", "--xi0", "north", "--values", "1"], {"n", "band_limit", "seed"}),
    (["verify", "--n", "1", "--band-limit", "4"],
     {"n", "band_limit", "grid_degree", "tol", "seed", "fault"}),
], ids=["minimize", "movespheres", "verify"])
def test_report_echoes_the_fields_its_command_reads(argv, echoed, tmp_path):
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert set(read_json(out)["config"]) == echoed


def test_zeta_spec_magnitude_may_carry_an_exponent():
    np.testing.assert_array_equal(_parse_vector_spec("1e-3e3", 2), [0.0, 0.0, 1e-3])
    np.testing.assert_array_equal(_parse_vector_spec("0.3e1", 1), [0.3, 0.0])


@pytest.mark.parametrize("n", [1, 2])
def test_conformal_distance_suite_passes_over_seeds(n):
    # near the south pole 1 + xi_{n+1} used to cancel in the planar lift
    for seed in range(40):
        res = SUITE["conformal_distance"].check(RunConfig(n=n, seed=seed),
                                                np.random.default_rng(seed))
        assert res["passed"], (seed, res["metric"])


def test_workers_config_key_is_unknown(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    with pytest.raises(SystemExit, match="unknown config keys"):
        main(["verify", "--config", str(cfg)])


@pytest.mark.parametrize("suite, tolerance, detail, bound, applied", [
    ("gibbs", -2e-10, "equality_tolerance", 2e-9,
     lambda r: r["metric"] >= -2e-10 and r["details"]["max_equality_gap"] <= 2e-9),
    ("deficit_nonneg", 2e-3, "random_tolerance", -2e-6,
     lambda r: r["metric"] <= 2e-3 and r["details"]["min_random_relative_deficit"] >= -2e-6),
    ("conf_transf_E", 2e-3, None, None, lambda r: r["metric"] <= 2e-3),
    ("conf_transf_H", 2e-3, None, None, lambda r: r["metric"] <= 2e-3),
    ("kernel_sign", 0.0, None, None, lambda r: r["metric"] <= 0.0),
], ids=["gibbs", "deficit_nonneg", "conf_transf_E", "conf_transf_H", "kernel_sign"])
def test_report_carries_the_bounds_it_applies(suite, tolerance, detail, bound, applied):
    res = SUITE[suite].check(RunConfig(tol=2.0), np.random.default_rng(0))
    assert res["tolerance"] == tolerance and isinstance(res["tolerance"], float)
    if detail is not None:
        assert res["details"][detail] == bound
    assert res["passed"] == applied(res)


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_flow_takes_the_gradient_at_accepted_points_only(monkeypatch, n):
    # a rejected line-search trial costs one deficit value and no gradient
    init = dy.random_positive_init(n, 12, np.random.default_rng(5), 0.5)
    values = counting(monkeypatch, en, "synthesize")
    analyses = counting(monkeypatch, en, "analyze")
    res = dy.minimize_deficit(init, 0.05, 10)
    assert res.message == "max iterations reached"
    assert len(analyses) == res.iterations + 1
    assert len(values) > len(analyses)  # some trials were rejected


@pytest.mark.parametrize("n", [1, 2])
def test_minimize_builds_one_entropy_grid(monkeypatch, tmp_path, n):
    # the random init, the flow and the fit share the grid and so its
    # transform table; the Legendre table is S^2's alone
    grids = counting(monkeypatch, en, "build_grid")
    tables = counting(monkeypatch, hm, "_polar_rows")
    legendre = counting(monkeypatch, hm, "assoc_legendre_norm")
    code = main(["minimize", "--n", str(n), "--band-limit", "8", "--max-iter", "5",
                 "--init", "random:seed=3,amp=0.4", "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert (len(grids), len(tables), len(legendre)) == (1, 1, 1 if n == 2 else 0)


@pytest.mark.parametrize("n", [1, 2])
def test_gibbs_suite_synthesizes_its_states_in_one_stack(monkeypatch, n):
    calls = counting(monkeypatch, hm, "synthesize_values")
    metric, details = _suite_gibbs(RunConfig(n=n), np.random.default_rng(3))
    assert len(calls) <= 2
    monkeypatch.undo()
    # the same states as drawing and checking one state at a time
    rng, grid = np.random.default_rng(3), sp.build_grid(n, 16)
    gaps = []
    for _ in range(300):
        fv = np.abs(hm.synthesize(random_coeffs(n, 6, rng), grid).values) + 0.05
        fv /= np.sum(grid.weights * fv)
        gv = hm.synthesize(random_coeffs(n, 6, rng), grid).values
        gaps.append(en.gibbs_gap(grid, fv, gv))
        rng.normal()  # the shift of the equality case
    assert metric == pytest.approx(min(gaps), rel=1e-11)
    assert details["max_equality_gap"] <= 1e-13


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_sign_suite_matches_the_row_loop(n, seed):
    # the column-wise cap points and kernel, which index the pairs only when
    # one coincides, report what the row-wise oracles report bit for bit
    got = SUITE["kernel_sign"].run(RunConfig(n=n), np.random.default_rng(seed))
    assert got == kernel_sign_loop(n, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [1, 2])
def test_energyharmonics_suite_takes_one_kernel_pass_per_cutoff(monkeypatch, n):
    calls = counting(monkeypatch, sp, "apply_radial_kernel")
    synth = counting(monkeypatch, hm, "synthesize_values")
    assert SUITE["energyharmonics"].check(RunConfig(n=n), np.random.default_rng(0))["passed"]
    assert len(calls) == 2 and len(synth) == 1
