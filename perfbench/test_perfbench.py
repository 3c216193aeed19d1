"""Tests of the benchmark itself: small smoke runs and planted wrong answers.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import dataclasses
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refeval  # noqa: E402
import sym3inv as s  # noqa: E402
from tracing import LAYER_METRICS, LayerTotals, Tracer  # noqa: E402
from workloads import Discover16, DiscoverSpec, GapProbe, InvariantStream  # noqa: E402

SMALL = {
    "discover16": lambda: Discover16(main=DiscoverSpec("thirteen", 10, 100, 2), side_calls=2),
    "invariant_stream": lambda: InvariantStream(exact_count=10, float_count=20),
    "gap_probe": lambda: GapProbe(starts=2, samples=1),
}


def small_round(name, seed=3):
    workload = SMALL[name]()
    inputs = workload.inputs(s, seed, 0)
    outputs, times = workload.run(s, inputs)
    return workload, inputs, outputs, times


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_round_passes_its_checks(name):
    workload, inputs, outputs, times = small_round(name)
    outcome = workload.check(s, inputs, outputs)
    assert outcome.problems == []
    assert 0 <= outcome.failed <= outcome.attempted
    assert set(times) == {"main_s", "side_s"} and all(t > 0 for t in times.values())


def test_inputs_follow_the_seed():
    w = InvariantStream(exact_count=4, float_count=4)
    a, b, c = (w.inputs(s, seed, 0) for seed in (1, 1, 2))
    assert [t.components for t in a[0]] == [t.components for t in b[0]]
    assert [t.components for t in a[0]] != [t.components for t in c[0]]


def test_stream_failures_come_only_from_the_slice():
    workload, inputs, outputs, _ = small_round("invariant_stream")
    outcome = workload.check(s, inputs, outputs)
    assert outcome.failed == sum(outcome.failed_by_scale.values())
    assert outcome.failed <= len(workload.SLICE_SCALES) * workload.SLICE_PER_SCALE


def test_planted_wrong_relation_coefficient_is_caught():
    workload, inputs, found, _ = small_round("discover16")
    rel = found[0][0]
    (c, term), rest = rel.terms[0], rel.terms[1:]
    wrong = s.SyzygyRelation(((c + 1, term),) + rest, rel.degree, rel.basis)
    problems = workload.check(s, inputs, [[wrong] + found[0][1:]] + found[1:]).problems
    assert any("does not vanish" in p for p in problems)
    assert any("not in span" in p for p in problems)


def test_missing_relation_is_caught():
    workload, inputs, found, _ = small_round("discover16")
    problems = workload.check(s, inputs, [found[0][:1]] + found[1:]).problems
    assert any("expected 2" in p for p in problems)


def test_planted_wrong_exact_invariant_is_caught():
    workload, inputs, (exact_out, float_out), _ = small_round("invariant_stream")
    iv, k6, i8 = exact_out[0]
    values = list(iv.values)
    values[s.NAMES.index("I4")] += Fraction(1, 7)
    exact_out[0] = (s.InvariantVector(values), k6, i8)
    problems = workload.check(s, inputs, (exact_out, float_out)).problems
    assert any("differ from reference" in p for p in problems)


def test_planted_wrong_rotated_invariant_is_caught():
    workload, inputs, (exact_out, float_out), _ = small_round("invariant_stream")
    iv, k6, i8, ivr = float_out[1]
    values = list(ivr.values)
    values[s.NAMES.index("J6")] *= 1 + 1e-6
    float_out[1] = (iv, k6, i8, s.InvariantVector(values))
    problems = workload.check(s, inputs, (exact_out, float_out)).problems
    assert any("rotated invariants differ" in p for p in problems)


def test_planted_wrong_float_reconstruction_is_caught():
    workload, inputs, (exact_out, float_out), _ = small_round("invariant_stream")
    iv, k6, i8, ivr = float_out[2]
    float_out[2] = (iv, k6 * (1 + 1e-6), i8, ivr)
    problems = workload.check(s, inputs, (exact_out, float_out)).problems
    assert any("rebuilt K6/I8 differ" in p for p in problems)


def test_planted_wrong_minimum_is_caught():
    workload, inputs, (result, values), _ = small_round("gap_probe")
    low = dataclasses.replace(result, value=0.19)
    problems = workload.check(s, inputs, (low, values)).problems
    assert any("outside" in p for p in problems)
    assert any("2*I2*J2 - 3*J4" in p for p in problems)


def test_planted_infeasible_point_is_caught():
    workload, inputs, (result, values), _ = small_round("gap_probe")
    point = dataclasses.replace(result.point, vector=tuple(1.01 * x for x in result.point.vector))
    problems = workload.check(s, inputs, (dataclasses.replace(result, point=point), values)).problems
    assert any("infeasible" in p for p in problems)


def test_planted_sample_below_the_bound_is_caught():
    workload, inputs, (result, values), _ = small_round("gap_probe")
    bad = np.array(values[0])
    bad[17] = 0.19
    problems = workload.check(s, inputs, (result, [bad] + values[1:])).problems
    assert any("below 0.2" in p for p in problems)


def test_reference_evaluator_matches_a_closed_form():
    # A = e1 (x) e1 (x) e1: u = (1, 0, 0), D111 = 2/5 and the six entries
    # D1jj, Dj1j, Djj1 (j = 2, 3) are -1/5, so I2 = 2/5 and
    # J4 = sum_ij D_ij1**2 = 6/25.
    iv = refeval.tensor_invariants((1, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    assert (iv["I2"], iv["J2"], iv["J4"]) == (Fraction(2, 5), 1, Fraction(6, 25))


def test_reference_rank_and_span():
    assert refeval.rank([[1, 2], [2, 4]]) == 1
    tables = [{"a": 1, "b": 2}]
    assert refeval.in_span(tables, {"a": 3, "b": 6})
    assert not refeval.in_span(tables, {"a": 3, "b": 5})


def traced_round(name):
    tracer = Tracer(s)
    layers = LayerTotals(tracer.sector_columns())
    workload = SMALL[name]()
    inputs = workload.inputs(s, 1, 0)
    tracer.install()
    try:
        _, times = workload.run(s, inputs)
    finally:
        tracer.remove()
    layers.add_round(tracer.take_spans(), sum(times.values()), sum(times.values()))
    return layers


def test_tracer_restores_every_name_and_reports_every_metric():
    originals = (s.decompose, s.syzygy.nullspace, s.optimizer.symmetric_eigh3)
    layers = traced_round("discover16")
    assert (s.decompose, s.syzygy.nullspace, s.optimizer.symmetric_eigh3) == originals
    metrics = {k: v["value"] for k, v in layers.metrics().items()}
    assert list(metrics) == [name for name, _ in LAYER_METRICS]
    assert layers.unmatched_discoveries == 0
    # three degree-10 discoveries of 9 sectors and 2 relations each
    assert metrics["exact_algebra.nullspace_calls"] == 27
    assert metrics["syzygy.relations_kept"] == 6
    assert metrics["syzygy.products"] == 3 * 80
    assert metrics["exact_algebra.sector_10_0_s"] > 0
    assert metrics["optimizer.eigh3_calls"] == 0


def test_traced_gap_probe_counts_eigen_solves():
    metrics = {k: v["value"] for k, v in traced_round("gap_probe").metrics().items()}
    assert metrics["optimizer.eigh3_calls"] > 0 and metrics["optimizer.sample_s"] > 0
    assert metrics["exact_algebra.nullspace_calls"] == 0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    import run

    def refuse(self):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(Tracer, "install", refuse)
    summary = run.run(SMALL["gap_probe"](), s, 1, 0, trace=0)
    assert summary["problems"] == [] and summary["rounds"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == ["setup_s", "peak_rss_mb", "main_s", "side_s"]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(SMALL)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap_probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
