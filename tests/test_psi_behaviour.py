"""How the step-size model psi behaves today, pinned on two scales.

On the 10-1 regression net (ROADMAP item 2) psi's first step can overshoot
the quadratic's stability bound 2/lambda_max, and from the third step on
the step collapses towards the OPEN_EPS floor, so the run ends worse than
predicting the targets' mean.  On the 784-100-10 glyph net (ROADMAP item 8)
psi barely learns: every step stays at psi's initial output
0.5 * eta0 + 0.25, and a frozen psi (`meta_learning_rate=0`) takes the same
steps.  The behaviour a working psi should show is written as strict
xfails, so a change that brings it about has to remove their markers.
"""

from dataclasses import replace

import numpy as np
import pytest

from samt.harness import TrainConfig, build_state, load_datasets
from samt.model import block_loss_and_gradients
from samt.stepsize import grad_features
from samt.trainer import evaluate, train_epoch

REGRESSION = TrainConfig(
    dataset="synthetic", widths=(10, 1), n_train=512, n_test=256, train_batch=32, epochs=2, optimizer="samt_s"
)
# bound is 2 / lambda_max of the training split's 2 E[x x^T]; the features are the first gradient's
REGRESSION_FACTS = {
    2: dict(step=0.901, bound=0.788, losses=(10.7, 29.5), test_mse=18.1, target_var=12.34, var=6.43, norm=8.11),
    193: dict(step=0.679, bound=0.748, losses=(9.09, 19.6), test_mse=15.9, target_var=7.33, var=6.06, norm=8.14),
}
COLLAPSED = 2e-3  # every step from the third on stays below this


@pytest.fixture(scope="module")
def regression_runs():
    runs = {}
    for seed in REGRESSION_FACTS:
        config = replace(REGRESSION, seed=seed)
        train, test = load_datasets(config)
        state = build_state(config, train)
        net0, events = state.net, []
        for _ in range(config.epochs):
            state, _ = train_epoch(state, train, config.train_batch, trace=events.append)
        x = train.features
        _, grads = block_loss_and_gradients(net0, events[0].main_batch, (0,))
        runs[seed] = dict(
            steps=np.array([e.step[0, 0] for e in events]),
            losses=[e.loss for e in events],
            bound=2.0 / np.linalg.eigvalsh(2.0 * (x @ x.T) / x.shape[1]).max(),
            test_mse=evaluate(state.net, test, config.eval_batch)[0],
            target_var=test.targets.var(),
            features=grad_features(grads[0]).ravel(),
        )
    return runs


@pytest.mark.parametrize("seed", REGRESSION_FACTS)
def test_regression_features_carry_the_loss_scale(regression_runs, seed):
    facts, features = REGRESSION_FACTS[seed], regression_runs[seed]["features"]
    assert features[1] == pytest.approx(facts["var"], abs=0.01) and features[4] == pytest.approx(facts["norm"], abs=0.01)


@pytest.mark.parametrize("seed", REGRESSION_FACTS)
def test_regression_first_step_against_the_stability_bound(regression_runs, seed):
    facts, run = REGRESSION_FACTS[seed], regression_runs[seed]
    assert run["steps"][0] == pytest.approx(facts["step"], abs=1e-3)
    assert run["bound"] == pytest.approx(facts["bound"], abs=1e-3)
    assert run["losses"][:2] == pytest.approx(facts["losses"], rel=1e-2)  # the loss after the first step rises


@pytest.mark.parametrize("seed", REGRESSION_FACTS)
def test_regression_step_collapses_and_the_run_ends_above_the_target_variance(regression_runs, seed):
    facts, run = REGRESSION_FACTS[seed], regression_runs[seed]
    assert len(run["steps"]) == 32 and run["steps"][2:].max() < COLLAPSED
    assert run["test_mse"] == pytest.approx(facts["test_mse"], abs=0.05)
    assert run["target_var"] == pytest.approx(facts["target_var"], abs=0.01)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: psi's step overshoots 2/lambda_max or collapses")
def test_regression_step_stays_below_the_bound_without_collapsing(regression_runs):
    for run in regression_runs.values():
        assert run["steps"].max() <= run["bound"] and run["steps"][2:].max() >= COLLAPSED
        assert run["test_mse"] < run["target_var"]


DESK = TrainConfig(
    dataset="synthetic_images", widths=(784, 100, 10), n_train=1024, n_test=1, train_batch=64, epochs=1
)
INITIAL_STEP = 0.5 * DESK.eta0 + 0.25  # psi's output when both heads are near 0.5
# optimizer: (largest relative change of a psi matrix, largest step difference from a frozen psi)
DESK_BOUNDS = {"samt_s": (2.5e-4, 2.5e-4), "samt_e": (1e-6, 1e-6)}


@pytest.fixture(scope="module")
def desk_runs():
    train, _ = load_datasets(DESK)
    runs = {}
    for optimizer in DESK_BOUNDS:
        steps, states = {}, {}
        for rate in (0.0, DESK.meta_learning_rate):  # a frozen psi keeps its initial weights
            config = replace(DESK, optimizer=optimizer, meta_learning_rate=rate)
            record = steps[rate] = []
            states[rate], _ = train_epoch(
                build_state(config, train), train, DESK.train_batch, trace=lambda e: record.append(e.step)
            )
        frozen, learning = (
            [e.state.psi for e in states[rate].engines] for rate in (0.0, DESK.meta_learning_rate)
        )
        runs[optimizer] = dict(
            steps=np.concatenate([s.ravel() for s in steps[DESK.meta_learning_rate]]),
            frozen_difference=max(np.abs(a - b).max() for a, b in zip(*steps.values(), strict=True)),
            # 16 meta steps per block fold every pending update into w3
            pending=[psi.pending.n for psi in learning],
            relative_change=max(
                np.linalg.norm(b - a) / np.linalg.norm(a)
                for f, l in zip(frozen, learning)
                for a, b in zip(f.weights, l.weights)
            ),
        )
    return runs


@pytest.mark.parametrize("optimizer", DESK_BOUNDS)
def test_desk_step_stays_at_psis_initial_output(desk_runs, optimizer):
    run = desk_runs[optimizer]
    assert run["steps"].size and np.abs(run["steps"] - INITIAL_STEP).max() < 0.02


@pytest.mark.parametrize("optimizer", DESK_BOUNDS)
def test_desk_psi_barely_learns_and_a_frozen_psi_takes_the_same_steps(desk_runs, optimizer):
    change, difference = DESK_BOUNDS[optimizer]
    run = desk_runs[optimizer]
    assert run["pending"] == [0, 0] and 0.0 < run["relative_change"] < change
    assert 0.0 < run["frozen_difference"] < difference


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: on the desk net psi does not move the step")
def test_desk_psi_moves_the_step(desk_runs):
    assert all(run["frozen_difference"] > 0.02 for run in desk_runs.values())
