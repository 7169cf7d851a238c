"""Tests of the benchmark's own parts: inputs, references and tracing."""

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from couponcollector import (  # noqa: E402
    chain_expectation,
    cli,
    inclusion_exclusion_expectation,
    model_from_dict,
    models,
    oracle,
)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_a_pure_function_of_the_seed(workload):
    first = json.dumps(inputs.build(workload, 11))
    assert json.dumps(inputs.build(workload, 11)) == first
    assert json.dumps(inputs.build(workload, 12)) != first
    ops = [op["id"] for op in inputs.build(workload, 12)["ops"]]
    assert ops == [op["id"] for op in json.loads(first)["ops"]]


def test_references_reproduce_the_headline_value():
    value = references.urn_expectation((10, 100, 500, 1000), 2, replace=False)
    assert f"{float(value):.17g}".startswith("81.4669")
    assert float(value) == pytest.approx(81.46694551240627, rel=1e-15)


def test_references_agree_with_each_other_exactly():
    uniform = references.uniform_expectation(6, 2)
    assert references.urn_expectation([1] * 6, 2, replace=False) == uniform
    assert references.weighted_expectation(6, 2, [3] * 15) == uniform
    assert references.uniform_expectation(4, 2) == Fraction(19, 5)


@pytest.mark.parametrize("seed", [0, 1])
def test_references_match_the_engine_and_chain_up_to_m12(seed):
    spec = inputs.build("oracle-mix", seed)
    for name, law in spec["models"].items():
        ref = references.reference(spec["refs"][name])
        model = model_from_dict(law)
        assert model.m <= 12
        engine = inclusion_exclusion_expectation(model)
        chain = chain_expectation(model).expected_from_empty
        assert references.relative_error(engine.value, ref.value) <= 1e-12, name
        assert references.relative_error(chain, ref.value) <= 1e-12, name
        assert ref.condition == pytest.approx(engine.cancellation_ratio, rel=1e-9), name


def test_exact_tolerance_grows_with_the_condition_number_only_above_1e12():
    assert run.exact_tolerance(references.Reference(Fraction(3), 10.0)) == 1e-12
    ill = references.Reference(Fraction(3), 1e6)
    assert run.exact_tolerance(ill) == pytest.approx(1e6 * 2.0**-53)


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_traced_and_untraced_cli_stdout_are_identical(tmp_path):
    spec = inputs.build("oracle-mix", 3)
    runs = []
    for name, law in spec["models"].items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(law))
        runs.append(["exact", "--model", str(path)])
        runs.append(["simulate", "--model", str(path), "--trials", "500", "--seed", "9"])
    plain = [_cli_stdout(argv) for argv in runs]
    originals = (cli.main, oracle.uniform_span, models.WithoutReplacement.draw_groups)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_cli_stdout(argv) for argv in runs]
    finally:
        tracer.restore()
    assert traced == plain
    assert (cli.main, oracle.uniform_span, models.WithoutReplacement.draw_groups) == originals
    names = {span["name"] for span in tracer.spans}
    assert {"cli.main", "philox.uniform_span", "engine.inclusion_exclusion_expectation"} <= names
    assert all(span["end"] >= span["start"] for span in tracer.spans)


def test_self_time_subtracts_direct_children_only():
    spans = [
        {"name": "cli.main", "op": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "oracle.simulate_collection", "op": "a", "parent": 0, "start": 1.0, "end": 9.0},
        {"name": "philox.uniform_span", "op": "a", "parent": 1, "start": 2.0, "end": 5.0,
         "counts": {"philox.blocks": 6, "oracle.uniforms_generated": 24, "oracle.passes": 1}},
        {"name": "cli.main", "op": "other", "parent": None, "start": 20.0, "end": 30.0},
    ]
    for span in spans:
        span["thread"] = 1
    assert tracing.self_times(spans) == [2.0, 5.0, 3.0, 10.0]
    metrics = tracing.layer_metrics(spans, {"a"}, passes=2)
    assert metrics["cli.self_s"] == 1.0
    assert metrics["oracle.lockstep_self_s"] == 2.5
    assert metrics["philox.uniform_span_s"] == 1.5
    assert metrics["philox.blocks"] == 3
    assert metrics["philox.blocks_per_s"] == 2.0


def test_pool_thread_work_counts_at_its_share():
    spans = [
        {"name": "oracle.simulate_collection", "parent": None, "thread": 1,
         "start": 0.0, "end": 10.0},
        {"name": "philox.uniform_span", "parent": 0, "thread": 2, "start": 1.0, "end": 7.0},
        {"name": "models.draw_groups.wor", "parent": 0, "thread": 3, "start": 1.0, "end": 9.0},
        {"name": "philox.uniform_span", "parent": 0, "thread": 3, "start": 1.0, "end": 3.0},
    ]
    assert tracing.self_times(spans) == [2.0, 3.0, 4.0, 1.0]


def test_traced_simulate_with_two_workers_parents_every_pool_span():
    spec = inputs.build("oracle-mix", 4)
    model = model_from_dict(spec["models"]["wor12"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "sim"
        oracle.simulate_collection(model, trials=4000, seed=5, workers=2)
    finally:
        tracer.restore()
    spans = tracer.spans
    assert spans[0]["name"] == "oracle.simulate_collection"
    pool = spans[1:]
    assert {s["name"] for s in pool} == {"philox.uniform_span", "models.draw_groups.wor"}
    assert all(s["parent"] == 0 for s in pool)
    assert spans[0]["thread"] not in {s["thread"] for s in pool}
    assert tracing.self_times(spans)[0] > 0
    metrics = tracing.layer_metrics(spans, {"sim"}, passes=1)
    layers = (metrics["philox.uniform_span_s"] + metrics["models.draw_groups_s.wor"]
              + metrics["oracle.lockstep_self_s"])
    assert layers == pytest.approx(spans[0]["end"] - spans[0]["start"])


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
