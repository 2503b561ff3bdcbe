"""Tiny-size smoke test of the benchmark harness.

    python3 -m pytest bench/smoke_test.py

Runs every workload shrunk to a few dozen short documents, untraced and
traced, and checks the result line, the output checks and the exit codes.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
from workloads import WORKLOADS


def tiny(name):
    return dataclasses.replace(
        WORKLOADS[name], n_train=40, n_val=6, n_test=6, min_tokens=5, max_tokens=60,
        universe=400, type_range=(1, 400), epochs=2, block=2)


def result_of(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, capsys):
    code = run.run(tiny(name), seed=3, seconds=0.1, trace=trace)
    result = result_of(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = run.load_metric_specs()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if trace:
        mode = WORKLOADS[name].mode
        assert (values["model.affect_flow.s"] == 0) == (mode == "topic_only")
        assert (values["model.topic_branch.s"] == 0) == (mode == "affect_only")
        assert values["model.batch_loss.tape_ops"] > 0
    else:
        assert all(v > 0 for v in values.values())


def test_reloaded_model_that_predicts_differently_fails(monkeypatch, capsys):
    load = run.Program().model.FakeFlowModel.load

    def perturbed(path):
        model = load(path)
        model.params[-1].value[0] += 1e-9  # one class bias: shifts the softmax
        return model

    monkeypatch.setattr(run.Program().model.FakeFlowModel, "load", staticmethod(perturbed))
    assert run.run(tiny("affect-2k"), seed=3, seconds=0.1, trace=False) == 1
    assert not result_of(capsys)["correct"]


def test_program_that_raises_counts_failed_operations(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(run.Program().tensor, "backward", broken)
    assert run.run(tiny("affect-2k"), seed=3, seconds=0.1, trace=False) == 1
    result = result_of(capsys)
    assert not result["correct"] and result["failed"] > 0 and result["metrics"] == {}


def test_missing_program_exits_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.run(tiny("affect-2k"), seed=3, seconds=0.1, trace=False) == 2
    assert capsys.readouterr().out == ""
