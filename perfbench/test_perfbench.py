"""Tests of the benchmark itself: reduced-size workloads, the checks, the CLI.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


# ---------------------------------------------------------------------------
# Every workload end to end, at a reduced size, untraced and traced
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    traced = {}
    for name, make in WORKLOADS.items():
        workload = make(tmp_path_factory.mktemp(name), small=True)
        for trace in (False, True):
            tracer = Tracer() if trace else None
            if tracer:
                tracer.install()
            try:
                prepared = workload.setup(3)
                result = workload.run(prepared)
            finally:
                if tracer:
                    tracer.uninstall()
            outcome = workload.check(prepared, result)
            assert outcome.attempted > 0, name
            assert outcome.errors == [], (name, outcome.errors)
            assert outcome.problems == [], (name, outcome.problems)
            if tracer:
                traced[name] = tracer.values()
    return traced


def test_every_workload_runs_and_passes_its_checks(small_runs):
    assert set(small_runs) == set(WORKLOADS)


def test_traced_runs_produce_every_per_layer_metric(small_runs):
    produced = set().union(*small_runs.values())
    derived = {"trace.coverage_pct", "trace.overhead_s"}
    listed = {m["name"] for m in SPEC["per_layer"]} - derived
    assert listed - produced == set()
    assert produced - listed == set()


def test_tracing_restores_every_patched_name():
    from samt import etamodel, optim, trainer

    before = (optim.block_loss_and_gradients, etamodel.block_loss_and_gradients,
              trainer.train_epoch, optim.OagdEngine.step)
    with Tracer():
        assert optim.block_loss_and_gradients is not before[0]
    after = (optim.block_loss_and_gradients, etamodel.block_loss_and_gradients,
             trainer.train_epoch, optim.OagdEngine.step)
    assert after == before


def test_self_time_excludes_child_spans():
    import time

    tracer = Tracer()
    child = tracer.timed(lambda: time.sleep(0.02), "child")
    parent = tracer.timed(lambda: (child(), time.sleep(0.01)), "parent", self_only=True)
    parent()
    values = tracer.values()
    assert values["child"] >= 0.02
    assert 0.01 <= values["parent"] < 0.02
    assert tracer.top_level_s >= 0.03


# ---------------------------------------------------------------------------
# Each output check accepts the right value and rejects a wrong one
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def classifier():
    rng = np.random.default_rng(0)
    weights = (rng.standard_normal((6, 5)), rng.standard_normal((3, 6)))
    x = rng.standard_normal((5, 40))
    labels = rng.integers(0, 3, 40)
    from samt.model import NetworkModel
    from samt.data import CLASSIFICATION, Dataset
    from samt.trainer import evaluate

    net = NetworkModel(weights, activation_slope=0.01)
    loss, acc = evaluate(net, Dataset(x, labels, CLASSIFICATION), batch_size=16)
    return weights, x, labels, loss, acc


def test_classification_recount(classifier):
    weights, x, labels, loss, acc = classifier
    assert checks.check_classification(weights, 0.01, x, labels, loss, acc) == []
    assert checks.check_classification(weights, 0.01, x, labels, loss, acc + 1 / 40)
    assert checks.check_classification(weights, 0.01, x, labels, loss * (1 + 1e-6), acc)


def test_regression_recount():
    from samt.data import REGRESSION, Dataset
    from samt.model import MSE, NetworkModel
    from samt.trainer import evaluate

    rng = np.random.default_rng(1)
    weights = (rng.standard_normal((4, 3)), rng.standard_normal((2, 4)))
    x, y = rng.standard_normal((3, 30)), rng.standard_normal((2, 30))
    net = NetworkModel(weights, loss_kind=MSE)
    loss, mse = evaluate(net, Dataset(x, y, REGRESSION), batch_size=7)
    assert checks.check_regression(weights, 0.01, x, y, loss, mse) == []
    assert checks.check_regression(weights, 0.01, x, y, loss, mse * (1 + 1e-6))
    assert checks.check_regression(weights, 0.01, x, y, loss + 1e-6, mse)


def test_finite_and_open_unit_checks():
    assert checks.check_finite("v", [0.5, 2.0]) == []
    assert checks.check_finite("v", [0.5, np.nan])
    assert checks.check_finite("v", np.inf)
    assert checks.check_open_unit("s", [[0.1, 0.9]]) == []
    for bad in (np.nan, 0.0, 1.0, -0.2):
        assert checks.check_open_unit("s", [[0.1, bad]])


def test_quality_floors():
    assert checks.check_accuracy_floor(0.31, 0.3) == []
    assert checks.check_accuracy_floor(0.29, 0.3)
    assert checks.check_accuracy_floor(float("nan"), 0.3)
    targets = np.array([[0.0, 2.0, 4.0]])
    assert checks.check_mse_below_variance(2.0, targets) == []
    assert checks.check_mse_below_variance(float(np.var(targets)), targets)
    assert checks.check_mse_below_variance(float("nan"), targets)


def test_same_weights():
    w = (np.ones((2, 2)), np.zeros((1, 2)))
    assert checks.check_same_weights("bypass", w, (w[0].copy(), w[1] + 5e-13)) == []
    assert checks.check_same_weights("bypass", w, (w[0] + 1e-9, w[1]))


# ---------------------------------------------------------------------------
# The command line
# ---------------------------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_cli_prints_every_metric(trace, section):
    done = subprocess.run(
        RUN + ["--workload", "tiny_mix", "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    out = _last_json(done.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    if trace:
        assert out["metrics"]["optim.steps.oagd"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
