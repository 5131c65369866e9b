"""Tests of the benchmark's own machinery: span self-time arithmetic, the
wrapping of package functions, byte-identical reports under tracing, and
agreement between BENCHMARK.json and the metrics the benchmark prints."""

import json
from pathlib import Path

import pytest

import layers
import spans
import workloads as wl

cli = wl.load_logsphere()


def _span(id, parent, start, end):
    return spans.Span(id, parent, 1, f"s{id}", start, end)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 3.5, 9.0),   # overlaps span 1 on [3.5, 4]
        _span(4, 0, 9.5, 11.0),  # runs past its parent's end
        _span(5, None, 20.0, 21.5),
    ]
    selfs = spans.self_times(tree)
    # children of 0 cover [1, 9] and [9.5, 10]
    assert selfs[0] == pytest.approx(10.0 - 8.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(5.5)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[5] == pytest.approx(1.5)


def test_recorder_nests_spans_and_tags_jobs():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2,
                     measure=lambda a: {"x": a["x"]})
    rec.job = 7
    assert outer(3) == 8
    o, i = rec.spans
    assert (o.name, o.parent, o.job, o.attrs) == ("outer", None, 7, {"x": 3})
    assert (i.name, i.parent, i.job) == ("inner", o.id, 7)
    assert (o.start, i.start, i.end, o.end) == (0.0, 1.0, 2.0, 3.0)
    assert spans.self_times(rec.spans) == {o.id: 2.0, i.id: 1.0}


def test_traced_patches_every_binding_and_restores():
    import logsphere
    from logsphere import dynamics, energy, harmonics

    original = harmonics.analyze
    bindings = (logsphere, dynamics, energy, harmonics)
    rec = spans.Recorder()
    with spans.traced(rec, "logsphere", {"harmonics": ("analyze",)}, {}):
        assert all(m.analyze is not original for m in bindings)
        grid = logsphere.build_grid(2, 8)
        dynamics.analyze(grid.sample(lambda p: p[:, 2]), 4)
    assert all(m.analyze is original for m in bindings)
    assert [s.name for s in rec.spans] == ["harmonics.analyze"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_leaves_report_bytes_unchanged(workload, tmp_path):
    out = tmp_path / "report.json"
    argv = wl.job_argv(workload, wl.DEFAULT_SEED, 1, str(out))
    _, _, failure = wl.run_job(cli, workload, argv, out)
    assert failure is None
    plain = out.read_bytes()
    rec = spans.Recorder()
    with spans.traced(rec, "logsphere", layers.TARGETS, layers.MEASURES):
        _, _, failure = wl.run_job(cli, workload, argv, out)
    assert failure is None
    assert rec.spans and out.read_bytes() == plain


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    printed = layers.layer_metrics([], {1: {}})
    printed["trace.overhead_frac"] = 0.0
    assert [m["name"] for m in spec["per_layer"]] == list(printed)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.describe(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
