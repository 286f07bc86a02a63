"""Tests of the benchmark harness: statistics, span accounting and the
workloads' output checks (each must reject a perturbed cost or gain)."""

from types import SimpleNamespace

import numpy as np
import pytest

import run
import tilqr
import tracer
import workloads


def _record(i, wall, setup, rss, ops=(("op", None),), traced=False, layers=None):
    return {"iteration": i, "traced": traced, "setup_s": setup, "rss_mb": rss,
            "result": {"wall_s": wall, "work": 100.0, "ops": list(ops),
                       "layers": layers or {}, "absent": []}}


SPEC = {"end_to_end": [{"name": n, "unit": u} for n, u in
                       (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                        ("throughput", "work/s"))],
        "per_layer": [{"name": n, "unit": "s"} for n in
                      ("proc.user_s", "trace.overhead_s", "trace.absent_names")]}


def test_summary_takes_medians_of_fixed_samples():
    walls = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    records = [_record(i, w, 0.5 + i / 10, 400 + w) for i, w in enumerate(walls)]
    records[3]["result"]["ops"].append(("op", "failed its check"))
    records.append({"iteration": 10, "traced": False, "setup_s": None, "rss_mb": 1.0,
                    "exit": -9, "result": None})
    probes = [{"setup_s": s} for s in (0.1, 0.2, 0.3)]
    result, errors = run.summarize(False, probes, records, SPEC)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["wall_s"] == 5.5
    assert m["throughput"] == pytest.approx(100.0 / 5.5)
    assert m["setup_s"] == pytest.approx(0.8)  # 13 samples: 3 probes + 10 iterations
    assert m["peak_rss_mb"] == 405.5
    assert (result["attempted"], result["failed"], result["correct"]) == (12, 2, False)
    assert len(errors) == 2


def test_traced_summary_reports_layer_medians_and_overhead():
    records = [_record(i, w, 0.5, 400, traced=i % 2 == 1, layers={"proc.user_s": w})
               for i, w in enumerate([4.0, 5.0, 2.0, 7.0, 3.0, 6.0])]
    result, _ = run.summarize(True, [], records, SPEC)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["proc.user_s"] == 6.0
    assert m["trace.overhead_s"] == pytest.approx(6.0 - 3.0)
    assert m["trace.absent_names"] == 0
    assert result["correct"] and result["attempted"] == 6


def _span(i, name, parent, start, end, **kw):
    return tracer.Span(id=i, name=name, parent=parent, start=start, end=end, **kw)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 3.0),
        _span(2, "b", 0, 2.0, 5.0),     # overlaps a: [1, 5] is covered once
        _span(3, "c", 0, 8.0, 12.0),    # runs past its parent: only [8, 10] counts
        _span(4, "d", 1, 1.5, 2.5),     # a grandchild does not touch the root
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_counts_noise_reuse_per_root_call():
    key = (7, 0, 100, 1000)
    info = {"draws": 100 * 1000, "bytes": 800_000, "key": key}
    spans = [_span(0, "montecarlo.compare", None, 0.0, 9.0)]
    for k in range(3):  # three gains on the same streams
        spans.append(_span(1 + 2 * k, "montecarlo.simulate", 0, 3.0 * k, 3.0 * k + 3.0,
                           info={"path_steps": 100_000}))
        spans.append(_span(2 + 2 * k, "montecarlo.noise", 1 + 2 * k, 3.0 * k,
                           3.0 * k + 2.0, info=dict(info)))
    m = tracer.layer_metrics(spans)
    assert m["montecarlo.noise_useful_ratio"] == pytest.approx(1 / 3)
    assert m["montecarlo.noise_draws"] == 300_000
    assert m["montecarlo.path_steps"] == 300_000
    assert m["montecarlo.euler_self_s"] == pytest.approx(3.0)
    assert m["montecarlo.compare_self_s"] == pytest.approx(0.0)
    assert m["trace.spans"] == 7


def test_wrapper_records_spans_and_counts():
    t = tracer.Tracer()
    wrapped = t._wrap(lambda grid: grid.n_steps * 2, "riccati.rk4",
                      lambda a, r: {"steps": a["grid"].n_steps})
    assert wrapped(SimpleNamespace(n_steps=5)) == 10
    with pytest.raises(AttributeError):
        wrapped(None)
    assert [s.info for s in t.spans] == [{"steps": 5}, {}]
    assert [s.error for s in t.spans] == [False, True]


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS",
                        (("tilqr.montecarlo", "no_such_function", "x.y", None),))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["tilqr.montecarlo.no_such_function"]


def test_importtime_parser_stops_at_setup_marker():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |     330000 |   scipy.special\n"
            "perfbench: set-up done\n"
            "import time:       120 |     990000 | scipy.special\n")
    assert run.import_seconds(text, "scipy.special") == pytest.approx(0.33)
    assert run.import_seconds(text.split("\n", 2)[2], "scipy.special") == 0.0


# ------------------------------------------------------------- output checks

P = tilqr.LqrParams()


def test_estimate_check_rejects_a_perturbed_cost_or_gain():
    gains = workloads.benchmark_gains(P, 100)
    est = tilqr.estimate_cost_streaming(gains[0], P,
                                        tilqr.SimConfig(n_paths=2048, n_steps=100, seed=3))
    exact = tilqr.exact_cost(gains[0], P).total
    assert workloads.check_estimate(est.mean, est.stderr, exact) is None
    assert workloads.check_estimate(est.mean, est.stderr, exact * 1.3) is not None
    assert workloads.check_estimate(float("nan"), est.stderr, exact) is not None
    bad_gain = tilqr.GainSchedule(grid=gains[0].grid, k_state=gains[0].k_state + 2.0,
                                  c_offset=gains[0].c_offset, label=gains[0].label)
    bad = tilqr.estimate_cost_streaming(bad_gain, P,
                                        tilqr.SimConfig(n_paths=2048, n_steps=100, seed=3))
    assert workloads.check_estimate(bad.mean, bad.stderr, exact) is not None


def test_simulate_row_check_rejects_a_perturbed_cost():
    row = {"strategy": "naive", "mc_mean": 0.876, "mc_stderr": 0.011, "n_paths": 10_000,
           "exact_total": 0.8792, "abs_error": abs(0.876 - 0.8792),
           "within_three_stderr": True}
    assert workloads.check_simulate_row(row, 0.8792, 10_000) is None
    assert workloads.check_simulate_row(row, 0.95, 10_000) is not None
    assert workloads.check_simulate_row(dict(row, mc_mean=0.95), 0.8792, 10_000) is not None
    assert workloads.check_simulate_row(dict(row, n_paths=10), 0.8792, 10_000) is not None


def test_compare_check_rejects_perturbed_moments_or_gain():
    n_paths = 512
    gains = workloads.benchmark_gains(P, workloads.SIM_STEPS)
    comp = tilqr.compare_strategies(
        P, tilqr.SimConfig(n_paths=n_paths, n_steps=workloads.SIM_STEPS, seed=5), gains)
    labels = list(comp.labels)
    columns = (["t"] + [f"mean_state_{x}" for x in labels]
               + [f"mean_abs_control_{x}" for x in labels])
    control = np.concatenate([comp.mean_abs_control, comp.mean_abs_control[:, -1:]], axis=1)
    table = np.column_stack([comp.times, comp.mean_state.T, control.T]).tolist()

    def moments(gs):
        out = {}
        for label, g in zip(labels, gs):
            m = tilqr.solve_moments(g, P)
            out[label] = (float(m.mean[-1]), float(m.variance[-1]))
        return out

    exact = moments(gains)
    check = workloads.check_compare_table
    assert check(columns, table, labels, exact, n_paths, P.x0, P.horizon) is None
    shifted = {k: (m + 0.5, v) for k, (m, v) in exact.items()}
    assert check(columns, table, labels, shifted, n_paths, P.x0, P.horizon) is not None
    bad_gains = [tilqr.GainSchedule(grid=g.grid, k_state=g.k_state + 2.0,
                                    c_offset=g.c_offset, label=g.label) for g in gains]
    assert check(columns, table, labels, moments(bad_gains), n_paths, P.x0,
                 P.horizon) is not None
    table[3][1] = float("nan")
    assert check(columns, table, labels, exact, n_paths, P.x0, P.horizon) is not None


def test_grid_checks_reject_a_perturbed_gain_or_field():
    model = tilqr.lqr_model(P)
    grid = tilqr.GridSpec2(n_t=25, n_x=40, x_lo=-3.0, x_hi=5.0, horizon=P.horizon)
    sweep = tilqr.solve_extended_hjb_sweep(model, grid)
    picard = tilqr.solve_extended_hjb_picard(model, grid)
    ref = tilqr.equilibrium_gain(tilqr.solve_equilibrium_riccati(P, tilqr.TimeGrid(25, 1.0)), P)
    k = tilqr.extract_gain(sweep, P).k_state
    assert workloads.check_grid_gain(k, ref.k_state) is None
    assert workloads.check_grid_gain(k + 0.05, ref.k_state) is not None
    assert workloads.check_grid_gain(k[:-1], ref.k_state) is not None
    assert workloads.check_fields_agree(sweep, picard) is None
    moved = SimpleNamespace(v=picard.v, alpha=picard.alpha, j=picard.j + 1e-6)
    assert workloads.check_fields_agree(sweep, moved) is not None
