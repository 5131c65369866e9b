"""CLI contracts: exit codes, report schema, reproducibility, fault hook."""

import csv
import json
import math

import numpy as np
import pytest

from logsphere.cli import (
    RunConfig,
    _check_table_budget,
    _parse_vector_spec,
    _suite_conformal_distance,
    _suite_deficit,
    _suite_gibbs,
    _write_json,
    main,
)
from logsphere.harmonics import HarmonicCoeffs, random_coeffs


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
    assert report["schema"] == 6
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


def test_verify_fault_injection(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fault": {"suite": "energyharmonics", "scale": 1.05}}))
    out = tmp_path / "rep.json"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "energyharmonics" in captured.err
    report = read_json(out)
    assert not report["all_pass"]
    failing = [s["name"] for s in report["suites"] if not s["passed"]]
    assert failing == ["energyharmonics"]


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
    assert rows[0] == ["lambda", "min_w", "sup_abs_w", "defect"]
    assert len(rows) == len(rep["values"]) + 1


def test_movespheres_family_reflection(tmp_path):
    out = tmp_path / "ms.json"
    assert main(["movespheres", "--u", "extremizer:zeta=0.2e1", "--e", "1,0",
                 "--out", str(out), "--seed", "3"]) == 0
    rep = read_json(out)["report"]
    assert rep["kind"] == "reflection" and rep["parameter"] == "alpha"
    assert rep["sup_w_at_critical"] <= 1e-3


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
    from logsphere.harmonics import flat_index

    c = HarmonicCoeffs.zeros(2, 8)
    c.coeffs[0] = math.sqrt(sphere_area(2))
    c.coeffs[flat_index(2, 2, 0)] = 0.5 * math.sqrt(sphere_area(2))
    path = tmp_path / "u.json"
    path.write_text(c.dumps())
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
        path.write_text(coeffs.dumps())
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError):
        _write_json({"defect": math.nan}, str(tmp_path / "rep.json"))


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
    ["movespheres", "--xi0", "north", "--u", "constant:x"],
    ["movespheres", "--xi0", "north", "--u", "extremizer:zeta=2e3"],
    ["verify", "--config", "{tmp}/fault_scale_str.json"],
    ["verify", "--config", "{tmp}/fault_scale_nan.json"],
    ["verify", "--config", "{tmp}/fault_scale_huge.json"],
    ["verify", "--config", "{tmp}/fault_suite_unknown.json"],
    ["verify", "--config", "{tmp}/fault_suite_missing.json"],
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
], ids=["zeta-axis-range", "zeta-axis", "zeta-magnitude", "coeffs-missing",
        "coeffs-not-json", "config-missing", "config-not-json", "xi0", "e", "values",
        "zeta-outside-ball", "xi0-zero", "xi0-south-pole", "e-zero", "e-size",
        "config-band-limit-type", "config-seed-type", "coeffs-nan", "coeffs-inf",
        "coeffs-duplicate", "coeffs-above-band", "coeffs-negative-degree",
        "u-constant", "u-extremizer-outside-ball", "fault-scale-str", "fault-scale-nan",
        "fault-scale-huge", "fault-suite-unknown", "fault-suite-missing", "fault-extra-key",
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
        "init-coeffs-empty"])
def test_bad_input_exits_with_one_line(argv, tmp_path, capsys):
    (tmp_path / "not_json.txt").write_text("not json")
    files = {
        "band_limit_str.json": {"band_limit": "x"},
        "seed_str.json": {"seed": "abc"},
        "coeffs_nan.json": {"n": 1, "L": 2, "coeffs": [[0, 0, 1.0], [1, 1, math.nan]]},
        "coeffs_inf.json": {"n": 2, "L": 2, "coeffs": [[0, 0, math.inf]]},
        "coeffs_duplicate.json": {"n": 2, "L": 2, "coeffs": [[1, 0, 1.0], [1, 0, 2.0]]},
        "coeffs_above_band.json": {"n": 2, "L": 2, "coeffs": [[3, 0, 1.0]]},
        "coeffs_negative_degree.json": {"n": 1, "L": 2, "coeffs": [[-1, 1, 1.0]]},
        "fault_scale_str.json": {"fault": {"suite": "energyharmonics", "scale": "abc"}},
        "fault_scale_nan.json": {"fault": {"suite": "energyharmonics", "scale": math.nan}},
        "fault_scale_huge.json": {"fault": {"suite": "energyharmonics", "scale": 10**400}},
        "fault_suite_unknown.json": {"fault": {"suite": "nosuch"}},
        "fault_suite_missing.json": {"fault": {"scale": 1.05}},
        "fault_extra_key.json": {"fault": {"suite": "energyharmonics", "bogus": 1}},
        "tol_nan.json": {"tol": math.nan},
        "tol_negative.json": {"tol": -1.0},
        "tol_huge.json": {"tol": 10**400},
        "grid_degree.json": {"grid_degree": 5},
        "fault_suite_ok.json": {"fault": {"suite": "energyharmonics"}},
        "coeffs_n1.json": {"n": 1, "L": 2, "coeffs": [[0, 0, 1.0], [1, 1, 0.1]]},
        "coeffs_empty.json": {"n": 2, "L": 2, "coeffs": []},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))  # NaN and Infinity tokens
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and message and "\n" not in message
    assert capsys.readouterr().out == ""  # refused before any work is reported


@pytest.mark.parametrize("n, largest_ok", [(2, 505), (1, 11574)])
def test_grid_degree_budget_boundary(n, largest_ok):
    # the pair-kernel peak: about 2 (degree + 1)^3 doubles on S^2, the kernel
    # table and its transform, and 2 (degree + 2)^2 on S^1, the cosine matrix
    _check_table_budget(RunConfig(n=n, grid_degree=largest_ok), "verify")
    with pytest.raises(SystemExit, match=f"grid degree {largest_ok + 1} "):
        _check_table_budget(RunConfig(n=n, grid_degree=largest_ok + 1), "verify")


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
        res = _suite_conformal_distance(RunConfig(n=n, seed=seed), np.random.default_rng(seed))
        assert res["passed"], (seed, res["metric"])


def test_workers_config_key_is_unknown(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    with pytest.raises(SystemExit, match="unknown config keys"):
        main(["verify", "--config", str(cfg)])


@pytest.mark.parametrize("suite, tolerance, detail, bound, applied", [
    (_suite_gibbs, -2e-10, "equality_tolerance", 2e-9,
     lambda r: r["metric"] >= -2e-10 and r["details"]["max_equality_gap"] <= 2e-9),
    (_suite_deficit, 2e-3, "random_tolerance", -2e-6,
     lambda r: r["metric"] <= 2e-3 and r["details"]["min_random_relative_deficit"] >= -2e-6),
], ids=["gibbs", "deficit_nonneg"])
def test_report_carries_the_bounds_it_applies(suite, tolerance, detail, bound, applied):
    res = suite(RunConfig(tol=2.0), np.random.default_rng(0))
    assert res["tolerance"] == tolerance
    assert res["details"][detail] == bound
    assert res["passed"] == applied(res)
