import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import model_trajectories, rollout_model
from ltvbench.bench import ecdf_residuals
from ltvbench.dynamics import Trajectory
from ltvbench.ident import per_trajectory_losses, predict_rollout, trajectory_prediction_loss
from ltvbench.models import LtvModel


def scalar_model(a, b, n):
    return LtvModel.from_constant(
        np.array([[float(a)]]), np.array([[float(b)]]), n, 1.0
    )


class TestPredictRollout:
    def test_identity_dynamics_hold_state(self):
        model = LtvModel.from_constant(np.eye(2), np.zeros((2, 1)), 5, 0.1)
        states = predict_rollout(model, [1.5, -0.5], np.ones((5, 1)))
        assert_allclose(states, np.tile([1.5, -0.5], (6, 1)))

    def test_hand_iterated_scalar_case(self):
        # x+ = 2x + u from 1 with u = (1, 1): 1, 3, 7
        states = predict_rollout(scalar_model(2, 1, 2), [1.0], [[1.0], [1.0]])
        assert_allclose(states, [[1.0], [3.0], [7.0]])

    def test_self_consistency_on_generated_data(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=0)[0]
        predicted = predict_rollout(constant_model, traj.states[0], traj.inputs)
        assert_allclose(predicted, traj.states, atol=1e-12)

    def test_too_many_inputs_rejected(self, constant_model):
        with pytest.raises(ValueError):
            predict_rollout(constant_model, [0.0, 0.0], np.zeros((1000, 1)))


class TestPredictionLoss:
    def test_perfect_model_gives_zero(self, constant_model):
        # data produced by the model's own recursion: residuals exactly zero
        rng = np.random.default_rng(1)
        trajs = []
        for _ in range(3):
            inputs = rng.normal(size=(constant_model.n_steps, 1))
            states = rollout_model(constant_model, rng.normal(size=2), inputs)
            trajs.append(
                Trajectory(
                    times=np.arange(len(states), dtype=float), states=states, inputs=inputs
                )
            )
        assert trajectory_prediction_loss(constant_model, trajs) == 0.0

    def test_single_unit_residual(self):
        # one trajectory, one step, scalar state, residual exactly 1
        model = scalar_model(0, 0, 1)
        traj = Trajectory(
            times=np.arange(2.0), states=np.array([[0.0], [1.0]]), inputs=np.zeros((1, 1))
        )
        assert trajectory_prediction_loss(model, [traj]) == 1.0

    def test_averages_per_trajectory_values(self):
        # residuals 1 and 3 at the single predicted step: loss (1 + 3) / 2
        model = scalar_model(0, 0, 1)
        t1 = Trajectory(times=np.arange(2.0), states=np.array([[0.0], [1.0]]), inputs=np.zeros((1, 1)))
        t3 = Trajectory(times=np.arange(2.0), states=np.array([[0.0], [3.0]]), inputs=np.zeros((1, 1)))
        assert per_trajectory_losses(model, [t1, t3]).tolist() == [1.0, 3.0]
        assert trajectory_prediction_loss(model, [t1, t3]) == 2.0

    def test_component_sum_is_not_averaged(self):
        # p=2 with unit residual in each component at the single step:
        # sqrt((1/1) * (1^2 + 1^2)) = sqrt(2), not 1
        model = LtvModel.from_constant(np.zeros((2, 2)), np.zeros((2, 1)), 1, 1.0)
        traj = Trajectory(
            times=np.arange(2.0),
            states=np.array([[0.0, 0.0], [1.0, 1.0]]),
            inputs=np.zeros((1, 1)),
        )
        assert trajectory_prediction_loss(model, [traj]) == pytest.approx(np.sqrt(2.0))


def random_model(rng, n, p, q, stacked):
    """Random (A, B) per step; ``stacked`` stores them as strided views of
    (N, p+q, p) blocks, the layout the fits return."""
    if stacked:
        blocks = rng.normal(0.0, 0.6 / math.sqrt(p), (n, p + q, p))
        return LtvModel.from_stacked(blocks, q=q, dt=0.1)
    A = rng.normal(0.0, 0.6 / math.sqrt(p), (n, p, p))
    return LtvModel(A=A, B=rng.normal(size=(n, p, q)), dt=0.1)


def random_set(rng, n, p, q, ell):
    """Recorded trajectories that the model does not reproduce."""
    return [
        Trajectory(
            times=np.arange(n + 1, dtype=float),
            states=rng.normal(size=(n + 1, p)),
            inputs=rng.normal(size=(n, q)),
        )
        for _ in range(ell)
    ]


def oracle_rollouts(model, trajs):
    return [rollout_model(model, t.states[0], t.inputs) for t in trajs]


SHAPES = dict(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 3),
    q=st.integers(1, 2),
    n=st.integers(1, 60),
    ell=st.integers(1, 6),
    stacked=st.booleans(),
)


class TestBatchedRollout:
    @settings(max_examples=60, deadline=None)
    @given(**SHAPES)
    def test_stack_matches_scalar_oracle(self, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, p, q, stacked)
        x0 = rng.normal(size=(ell, p))
        inputs = rng.normal(size=(n, ell, q))
        states = predict_rollout(model, x0, inputs)
        assert states.shape == (n + 1, ell, p)
        for l in range(ell):
            oracle = rollout_model(model, x0[l], inputs[:, l])
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.max(np.abs(states[:, l] - oracle)) <= 1e-12 * scale
            assert_allclose(predict_rollout(model, x0[l], inputs[:, l]), states[:, l], rtol=0, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(**SHAPES)
    def test_losses_match_per_trajectory_formula(self, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, p, q, stacked)
        trajs = random_set(rng, n, p, q, ell)
        expected = [
            math.sqrt(float(np.sum((pred[1:] - t.states[1:]) ** 2)) / n)
            for pred, t in zip(oracle_rollouts(model, trajs), trajs)
        ]
        losses = per_trajectory_losses(model, trajs)
        assert_allclose(losses, expected, rtol=1e-12, atol=0)
        assert trajectory_prediction_loss(model, trajs) == pytest.approx(np.mean(expected), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(**SHAPES)
    def test_ragged_set_and_too_many_inputs_rejected(self, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, p, q, stacked)
        trajs = random_set(rng, n, p, q, ell)
        longer = random_set(rng, n + 1, p, q, 1)
        with pytest.raises(ValueError, match="ragged"):
            per_trajectory_losses(model, trajs + longer)
        with pytest.raises(ValueError, match="model covers"):
            per_trajectory_losses(model, longer)
        with pytest.raises(ValueError, match="model covers"):
            predict_rollout(model, np.zeros((ell, p)), np.zeros((n + 1, ell, q)))

    @settings(max_examples=20, deadline=None)
    @given(**SHAPES)
    def test_ecdf_residuals_match_per_trajectory_oracle(self, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, p, q, stacked)
        trajs = random_set(rng, n, p, q, ell)
        samples = [
            np.abs(pred[1:, 0] - t.states[1:, 0]) / np.mean(np.abs(t.states[:, 0]))
            for pred, t in zip(oracle_rollouts(model, trajs), trajs)
        ]
        expected = np.sort(np.concatenate(samples))
        series = ecdf_residuals(model, trajs)
        scale = max(1.0, float(np.max(expected)))
        assert np.max(np.abs(series.values - expected)) <= 1e-12 * scale
        assert_allclose(series.fractions, np.arange(1, n * ell + 1) / (n * ell))
