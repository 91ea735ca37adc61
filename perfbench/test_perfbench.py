"""Tests of the benchmark's own arithmetic, on synthetic inputs.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import envpin  # noqa: E402
import measure  # noqa: E402
from spans import Span, SpanRecorder, self_times, unattributed_fraction  # noqa: E402


# -- self time and closure ------------------------------------------------

def _tree():
    """root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]."""
    return [Span("root", 0.0, 10.0, None, 0),
            Span("a", 1.0, 4.0, 0, 0),
            Span("a1", 2.0, 3.0, 1, 0),
            Span("b", 5.0, 9.0, 0, 0)]


def test_self_time_subtracts_children():
    assert self_times(_tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_close_on_root_duration():
    spans = _tree()
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, None, 0),
             Span("x", 1.0, 5.0, 0, 0),
             Span("y", 3.0, 6.0, 0, 0),       # overlaps x on [3, 5]
             Span("z", 9.0, 12.0, 0, 0)]      # clipped to the root at 10
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_unattributed_fraction_is_root_self_over_root_wall():
    spans = _tree() + [Span("root", 10.0, 12.0, None, 1)]
    selfs = self_times(spans)
    assert unattributed_fraction(spans, selfs, "root") == pytest.approx(
        (3.0 + 2.0) / 12.0)
    assert unattributed_fraction(spans, selfs, "missing") == 0.0


def test_recorder_nests_spans_and_stamps_step_ids():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    leaf = rec.wrap("leaf", lambda: 7)
    step = rec.wrap("step", lambda: leaf() + leaf(), opens_step=True)
    assert step() == 14 and step() == 14
    assert [(s.name, s.parent, s.step) for s in rec.spans] == [
        ("step", None, 0), ("leaf", 0, 0), ("leaf", 0, 0),
        ("step", None, 1), ("leaf", 3, 1), ("leaf", 3, 1)]
    assert sum(self_times(rec.spans)) == pytest.approx(
        sum(s.duration for s in rec.spans if s.parent is None))


def test_patch_wraps_every_binding_kind_and_restores_it():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    module = types.ModuleType("m")
    module.g = lambda: "g"
    originals = (Base.__dict__["f"], module.g)
    obj = Child()
    rec = SpanRecorder()
    targets = [(Base, "f", "f", {}), (module, "g", "g", {}),
               (obj, "f", "inst", {})]
    with rec.patch(targets):
        assert obj.f() == "base" and Child().f() == "base"
        assert module.g() == "g"
    assert [s.name for s in rec.spans] == ["inst", "f", "f", "g"]
    assert "f" not in vars(obj)
    assert (Base.__dict__["f"], module.g) == originals
    Child().f()
    assert len(rec.spans) == 4


def test_measure_hook_stores_extra_numbers():
    rec = SpanRecorder()
    rec.wrap("io", lambda: 5, measure=lambda r: {"bytes": float(r)})()
    assert rec.spans[0].extra == {"bytes": 5.0}


# -- tail percentile rule ------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(24) == 58
    assert measure.beyond(24, 58) == 10 and measure.beyond(24, 59) == 9
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(20) == 50
    with pytest.raises(ValueError):
        measure.tail_percentile(10)


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(24, 0, -1)]  # unsorted input
    assert measure.percentile(samples, 58) == 14.0
    assert sum(1 for v in samples if v > 14.0) == 10
    assert measure.percentile(samples, 100) == 24.0
    assert measure.percentile([3.0], 50) == 3.0


def test_reported_tail_matches_the_rule_at_the_minimum_run_count():
    from workloads import MIN_RUNS, STEPS, TAIL_PERCENTILE

    assert measure.tail_percentile(MIN_RUNS * STEPS) == TAIL_PERCENTILE


# -- rates and spread ----------------------------------------------------

def test_cell_updates_per_s_on_a_known_series():
    assert measure.cell_updates_per_s([100, 200, 300], 2.0) == 300.0
    with pytest.raises(ValueError):
        measure.cell_updates_per_s([1], 0.0)


def test_normalized_rescales_each_interval_by_its_calibrations():
    # interval 0 sat between kernels of 0.02 and 0.06 s (mean 0.04): a
    # machine twice as slow as the 0.02 s reference, so its time halves
    assert measure.normalized([1.0, 3.0], [0.02, 0.06, 0.02], 0.02) == [
        pytest.approx(0.5), pytest.approx(1.5)]
    with pytest.raises(ValueError):
        measure.normalized([1.0], [0.02], 0.02)
    with pytest.raises(ValueError):
        measure.normalized([1.0], [0.02, 0.0], 0.02)


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5
    assert measure.spread(values) == pytest.approx(5.5 / 5.5)


# -- environment isolation -----------------------------------------------

def test_isolate_scrubs_config_variables_and_pins_threads():
    env = {"REPRO_BACKEND": "device", "REPRO_EXECUTOR": "pool",
           "REPRO_WORKERS": "4", "REPRO_FAULTS": "nan@2",
           "REPRO_FUSED_JIT": "on", "OMP_NUM_THREADS": "8", "HOME": "/h"}
    removed = envpin.isolate(env)
    assert removed == {"REPRO_BACKEND": "device", "REPRO_EXECUTOR": "pool",
                       "REPRO_WORKERS": "4", "REPRO_FAULTS": "nan@2",
                       "REPRO_FUSED_JIT": "on"}
    for name in ("REPRO_BACKEND", "REPRO_EXECUTOR", "REPRO_WORKERS",
                 "REPRO_FAULTS"):
        assert name not in env
    assert env["REPRO_FUSED_JIT"] == "off"
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == "1"
    assert env["HOME"] == "/h"
    assert envpin.isolate({}) == {}


def test_workloads_pin_every_config_field(tmp_path):
    from repro.core.crocco import CroccoConfig
    from workloads import WORKLOADS

    known = {f.name for f in dataclasses.fields(CroccoConfig)}
    for wl in WORKLOADS.values():
        assert set(wl.config(tmp_path)) == known, wl.name


def test_seeds_stay_in_their_stated_ranges():
    from workloads import WORKLOADS

    for seed in range(1, 200):
        s = WORKLOADS["dmr_v20_host"].params(seed)["stretch"]
        assert 0.108 <= s <= 0.132
        v = WORKLOADS["vortex_uniform"].params(seed)
        assert 4.0 <= v["strength"] <= 6.0
        assert 0.8 <= (v["u0"] ** 2 + v["v0"] ** 2) ** 0.5 <= 1.2
    assert WORKLOADS["dmr_v20_host"].params(3) == WORKLOADS["dmr_v20_host"].params(3)


# -- BENCHMARK.json agrees with the code ------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    from layers import METRICS
    from run import END_TO_END
    from workloads import WORKLOADS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in METRICS]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    for w in bench["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and len(bench["per_layer"]) <= 128


def test_trace_problems_report_coverage_gaps_and_open_closure():
    from layers import UNATTRIBUTED_BOUND, trace_problems

    rec = SpanRecorder()
    rec.spans = [Span("core.step", 0.0, 1.0, None, 0),
                 Span("a", 0.1, 0.2, 0, 0),
                 Span("b", 0.3, 0.4, 0, 0),
                 Span("core.step", 1.0, 2.0, None, 1)]
    assert trace_problems(rec, {"a", "c"}, {"b"}, {"a"}, 2, 0.5) == [
        "span c never fired",
        "span b fired but is not expected on this workload",
        "span a missing in steps [1]",
        f"trace.unattributed_frac 0.5000 over {UNATTRIBUTED_BOUND}"]
    assert trace_problems(rec, {"a"}, {"c"}, set(), 2, 0.0) == []
