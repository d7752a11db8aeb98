"""Tests of the benchmark itself: tracing, checks and the result contract.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from ctdopt import ctd, maxentry, reduction  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    AckleyD10,
    CompareSnorm,
    FileAls,
    SpikeFrobenius,
    read_ctd_json,
)


def _bindings():
    """Every module-level binding in the loaded ctdopt modules."""
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "ctdopt" or name.startswith("ctdopt.")
        for attr, value in vars(module).items()
    }


def _shifted(index, modes):
    return (index[0] + 1) % modes[0], *index[1:]


def _fake_trace(index):
    rec = maxentry.IterationRecord(0, 1, 1.0, np.ones(1), 0.0)
    return maxentry.MaxEntryTrace(
        method="squaring", records=[rec], candidates=[maxentry.Candidate(index, 1.0)]
    )


@pytest.fixture(scope="module")
def spike(tmp_path_factory):
    w = SpikeFrobenius(str(tmp_path_factory.mktemp("spike")))
    w.setup(seed=0, n_ops=3)
    return w


def test_tracer_restores_bindings(spike):
    before = _bindings()
    with Tracer():
        assert maxentry.hadamard is not before[("ctdopt.maxentry", "hadamard")]
        assert ctd.inner is not before[("ctdopt.ctd", "inner")]
        assert reduction._pivoted_cholesky_lazy is not before[
            ("ctdopt.reduction", "_pivoted_cholesky_lazy")]
        for module, func in (layer.split(".") for layer in LAYERS):
            fn = getattr(sys.modules[f"ctdopt.{module}"], func)
            assert fn.__wrapped__ is before[(f"ctdopt.{module}", func)]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_bindings()[k] is before[k] for k in before)


def test_tracer_sees_indirect_bindings(spike):
    # squaring_max calls maxentry.hadamard/inner and reduction.inner, not the
    # ctd.* names; all of them must be recorded.
    with Tracer() as tracer:
        spike.op(0)
    names = {span[0] for span in tracer.spans}
    assert {"ctd.hadamard", "ctd.inner", "ctd.frobenius_norm", "reduction.reduce",
            "maxentry.squaring_max", "maxentry.extract_candidates"} <= names


def _compare_squaring(tmp_path):
    """Squaring search on compare-snorm trial 1: s-norm reductions with
    rank_one_approx cap hits and lazy Gram factorisations."""
    w = CompareSnorm(str(tmp_path))
    U, loc = w.instance(1)

    def op():
        trace = maxentry.squaring_max(U, w.search)
        return trace.candidates[0].index == loc, workloads._trace_fingerprint(trace)

    return op, {"reduction.rank_one_approx.cap_hits", "reduction.reduce.lazy_calls"}


def _spike_search(tmp_path):
    w = SpikeFrobenius(str(tmp_path))
    w.setup(seed=0, n_ops=1)
    return (lambda: w.check(0, w.op(0))), {"ctd.inner.pair_terms"}


@pytest.mark.parametrize("case", [_spike_search, _compare_squaring])
def test_tracing_changes_no_result(case, tmp_path):
    op, nonzero = case(tmp_path)
    untraced = op()
    assert untraced[0]
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            tracer.op(0)
            assert op() == untraced
        counts.append(tracer.exact_counts()[0])
    assert counts[0] == counts[1]
    assert all(counts[0][name] > 0 for name in nonzero)


def test_self_times_within_parent(spike):
    with Tracer() as tracer:
        for i in range(2):
            tracer.op(i)
            spike.op(i)
    self_times = tracer.self_times()
    assert len(self_times) == len(tracer.spans) > 0
    for (name, start, end, parent, op), self_s in zip(tracer.spans, self_times):
        assert -1e-12 <= self_s <= end - start
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = tracer.spans[parent]
            assert p_start <= start <= end <= p_end
            assert self_s <= p_end - p_start
            assert op == p_op
    metrics = tracer.layer_metrics()
    assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in LAYERS)
    assert metrics["maxentry.squaring_max.calls"] == 2


def test_spike_check_rejects_shifted_index(spike):
    trace = spike.op(1)
    assert spike.check(1, trace)[0]
    U, loc = spike.instances[1]
    trace.candidates[0] = maxentry.Candidate(_shifted(loc, U.modes), trace.candidates[0].value)
    assert not spike.check(1, trace)[0]


def test_compare_check_rejects_shifted_index(tmp_path):
    w = CompareSnorm(str(tmp_path))
    w.setup(seed=0, n_ops=1)
    U, loc = w.instances[0]
    good = {"squaring": _fake_trace(loc), "power": _fake_trace(loc)}
    assert w.check(0, good)[0]
    for method in ("squaring", "power"):
        bad = dict(good, **{method: _fake_trace(_shifted(loc, U.modes))})
        assert not w.check(0, bad)[0]


def test_ackley_check_rejects_wrong_answers(tmp_path):
    w = AckleyD10(str(tmp_path))
    origin = [0.0] * 10

    def out(tensor_point=origin, refined_point=origin, iterations=40):
        report = {"tensor_point": tensor_point, "refined_point": refined_point,
                  "squaring_iterations": iterations, "candidates": [],
                  "sampled_rank": 76, "reduced_rank": 12}
        return {"report": report}

    with open(tmp_path / "ackley_trajectory.csv", "w") as fh:
        fh.write("k,rank,lambda\n0,12,\n")
    assert w.check(0, out())[0]
    step = [0.02] + [0.0] * 9  # one grid spacing off the origin
    assert not w.check(0, out(tensor_point=step))[0]
    assert not w.check(0, out(refined_point=[1e-3] + [0.0] * 9))[0]
    assert not w.check(0, out(iterations=41))[0]


def test_file_als_check_rejects_wrong_answers(tmp_path):
    w = FileAls(str(tmp_path))
    w.setup(seed=0, n_ops=1)
    os.makedirs(w.out_dir)
    with open(w.input_path) as fh:
        doc = json.load(fh)
    sv, _ = read_ctd_json(w.input_path)
    assert sv.size == 76

    def write(svalues, tolerance_met=True):
        with open(os.path.join(w.out_dir, "reduced_ctd.json"), "w") as fh:
            json.dump(dict(doc, svalues=list(svalues)), fh)
        with open(os.path.join(w.out_dir, "reduction_metadata.json"), "w") as fh:
            json.dump({"tolerance_met": tolerance_met, "input_rank": 76,
                       "achieved_rank": 76, "sweeps": 0}, fh)

    write(sv)
    assert w.check(0, {"code": 0})[0]
    assert not w.check(0, {"code": 1})[0]
    write(sv, tolerance_met=False)
    assert not w.check(0, {"code": 0})[0]
    wrong = sv.copy()
    wrong[np.argmax(sv)] *= 1.001
    write(wrong)
    assert not w.check(0, {"code": 0})[0]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = _run(ROOT, "--workload", "spike-frobenius", "--seed", "5",
                "--seconds", "0.6", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "spike-frobenius", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
