"""Microbenchmarks: one 500-step ``simulate`` and one ``closed_loop`` per kind,
one block-tridiagonal solve at N=500 and N=5000 with d=3, the prediction
loss of one validation-sized set (8 trajectories x 500 steps), the
prediction losses of 9 models on 3 trajectories of 5000 steps (the scoring
shape of a ``long-record`` scenario), one
``ltvmodels_fit`` that iterates (500 steps, not screened at its lam), one 3x3
``tvera_fit`` on 4 free + 10 forced experiments of 500 steps, one
``save_dataset`` + ``load_dataset`` round trip of 4 trajectories x 5000 steps,
one ``lqr_ltv`` and one ``feedforward`` of the ``ltv`` linearization at 5000
steps, and the ``ltv`` time-law tables (RK4 stage parameters plus the ZOH
linearization) at N=500 and N=5000.

A few pedantic rounds keep them cheap in the test run; for timings, run

    PYTHONPATH=src python -m pytest tests/test_perf.py --benchmark-only

and add ``--benchmark-autosave`` to keep a record under ``.benchmarks/``.
"""

from dataclasses import replace

import numpy as np
import pytest

import ltvbench as lb
from conftest import model_trajectories
from ltvbench.control import (
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    with_feedforward,
)
from ltvbench.datagen import Dataset, Split, load_dataset, save_dataset, tvera_experiments
from ltvbench.dynamics import LINEAR_SUBSTEPS, _stage_params, ground_truth_ltv, scenario, simulate
from ltvbench.ident import (
    ltvmodels_fit,
    solve_block_tridiag,
    trajectory_prediction_loss,
    tvera_fit,
)

ROUNDS = dict(rounds=3, iterations=1, warmup_rounds=1)


@pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
def test_simulate_rollout(benchmark, name):
    spec = scenario(name)
    inputs = 3.0 * np.sin(2.0 * (np.arange(spec.n_steps) * spec.dt))
    traj = benchmark.pedantic(
        simulate, args=(spec, [1.9, 0.3], inputs), kwargs={"seed": 1}, **ROUNDS
    )
    assert traj.n_steps == spec.n_steps == 500


@pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
def test_closed_loop_rollout(benchmark, name):
    spec = scenario(name)
    model = ground_truth_ltv(spec)
    ref = default_reference(spec.horizon)
    sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
    traj = benchmark.pedantic(
        closed_loop, args=(spec, sched, ref, [0.5, 0.0]), kwargs={"seed": 1}, **ROUNDS
    )
    assert traj.n_steps == spec.n_steps


@pytest.mark.parametrize("n", [500, 5000])
def test_block_tridiag_solve(benchmark, n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, 6, 3))
    gram = np.einsum("kli,klj->kij", m, m)
    rhs = rng.normal(size=(n, 3, 2))
    x = benchmark.pedantic(solve_block_tridiag, args=(gram, 0.5, rhs), **ROUNDS)
    assert x.shape == (n, 3, 2)


def test_validation_set_loss(benchmark):
    model = ground_truth_ltv(scenario("ltv"))
    trajs = model_trajectories(model, 8, seed=0)
    loss = benchmark.pedantic(trajectory_prediction_loss, args=(model, trajs), **ROUNDS)
    assert trajs[0].n_steps == 500
    assert loss <= 1e-10


def test_long_record_losses(benchmark):
    spec = replace(scenario("ltv"), horizon=100.0)
    truth = ground_truth_ltv(spec)
    models = [replace(truth, A=truth.A * (1.0 - 1e-3 * g)) for g in range(9)]
    trajs = model_trajectories(truth, 3, seed=0)
    losses = benchmark.pedantic(trajectory_prediction_loss, args=(models, trajs), **ROUNDS)
    assert trajs[0].n_steps == 5000
    assert losses.shape == (9,) and losses[0] <= 1e-10


def test_ltvmodels_fit(benchmark):
    traj = model_trajectories(ground_truth_ltv(scenario("ltv")), 1, seed=3, noise=1e-3)[0]
    fit = benchmark.pedantic(ltvmodels_fit, args=(traj,), kwargs={"lam": 0.1}, **ROUNDS)
    assert traj.n_steps == 500
    assert fit.info["iterations"] > 0
    assert fit.info["converged"] and fit.info["gap"] <= 1e-8


def test_tvera_fit(benchmark):
    experiments = tvera_experiments(scenario("ltv"), 4, 10, 1e-6, master_seed=3)
    fit = benchmark.pedantic(
        tvera_fit, args=(experiments,), kwargs={"hankel_rows": 3, "hankel_cols": 3}, **ROUNDS
    )
    assert fit.n_steps == 500
    assert fit.info["n_experiments"] == 14


def test_dataset_round_trip(benchmark, tmp_path):
    spec = replace(scenario("ltv"), horizon=100.0)
    trajs = model_trajectories(ground_truth_ltv(spec), 4, seed=0)
    ds = Dataset(split=Split.TRAIN, trajectories=trajs, scenario=spec)

    def round_trip():
        save_dataset(ds, tmp_path / "train")
        return load_dataset(tmp_path / "train")

    loaded = benchmark.pedantic(round_trip, **ROUNDS)
    assert trajs[0].n_steps == 5000
    assert loaded == ds


def test_lqr_ltv(benchmark):
    model = ground_truth_ltv(replace(scenario("ltv"), horizon=100.0))
    sched = benchmark.pedantic(lqr_ltv, args=(model, default_weights()), **ROUNDS)
    assert sched.K.shape == (5000, 1, 2)
    assert sched.cost_to_go.shape == (5001, 2, 2)


def test_feedforward(benchmark):
    spec = replace(scenario("ltv"), horizon=100.0)
    model = ground_truth_ltv(spec)
    ref = default_reference(spec.horizon)
    u_ff = benchmark.pedantic(feedforward, args=(model, ref), **ROUNDS)
    assert u_ff.shape == (5000, 1)


@pytest.mark.parametrize("n", [500, 5000])
def test_time_law_tables(benchmark, n):
    spec = replace(scenario("ltv"), horizon=n * 0.02)

    def tables():
        return _stage_params(spec), ground_truth_ltv(spec)

    stages, model = benchmark.pedantic(tables, **ROUNDS)
    assert stages.shape == (n, LINEAR_SUBSTEPS, 12)
    assert model.n_steps == n
