import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import model_trajectories, rollout_model
from ltvbench.bench import ecdf_residuals
from ltvbench.dynamics import Trajectory
from ltvbench.exceptions import InputError
from ltvbench.ident import per_trajectory_losses, rollout_residuals, trajectory_prediction_loss
from ltvbench.models import LtvModel


def scalar_model(a, b, n):
    return LtvModel.from_constant(
        np.array([[float(a)]]), np.array([[float(b)]]), n, 1.0
    )


def predicted(models, x0, inputs):
    """The states x(1..N), shape (N, G, p), that ``models`` predict from
    ``x0``: their residuals against a record that is zero after x(0)."""
    inputs = np.asarray(inputs, dtype=float)
    states = np.zeros((len(inputs) + 1, len(x0)))
    states[0] = x0
    traj = Trajectory(times=np.arange(len(states), dtype=float), states=states, inputs=inputs)
    return rollout_residuals(models, [traj])[:, :, 0]


class TestPredictRollout:
    """``rollout_residuals``: the one rollout of models against recorded data."""

    def test_identity_dynamics_hold_state(self):
        model = LtvModel.from_constant(np.eye(2), np.zeros((2, 1)), 5, 0.1)
        states = predicted([model], [1.5, -0.5], np.ones((5, 1)))
        assert states.shape == (5, 1, 2)
        assert_allclose(states[:, 0], np.tile([1.5, -0.5], (5, 1)))

    def test_hand_iterated_scalar_case(self):
        # x+ = 2x + u from 1 with u = (1, 1): 1, 3, 7; x+ = -x: 1, -1, 1
        states = predicted([scalar_model(2, 1, 2), scalar_model(-1, 0, 2)], [1.0], [[1.0], [1.0]])
        assert_allclose(states[..., 0], [[3.0, -1.0], [7.0, 1.0]])

    def test_self_consistency_on_generated_data(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=0)[0]
        residuals = rollout_residuals([constant_model], [traj])
        assert residuals.shape == (constant_model.n_steps, 1, 1, 2)
        assert_allclose(residuals, 0.0, atol=1e-12)

    def test_too_many_inputs_rejected(self, constant_model):
        with pytest.raises(ValueError, match="model covers"):
            predicted([constant_model], [0.0, 0.0], np.zeros((1000, 1)))


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
    @given(g=st.integers(1, 3), **SHAPES)
    def test_stack_matches_scalar_oracle(self, g, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        models = [random_model(rng, n, p, q, stacked) for _ in range(g)]
        trajs = random_set(rng, n, p, q, ell)
        residuals = rollout_residuals(models, trajs)
        assert residuals.shape == (n, g, ell, p)
        for i, model in enumerate(models):
            for l, oracle in enumerate(oracle_rollouts(model, trajs)):
                expected = oracle[1:] - trajs[l].states[1:]
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(residuals[:, i, l] - expected)) <= 1e-12 * scale
                # a trajectory of the set rolls out byte for byte as it does alone
                alone = rollout_residuals([model], [trajs[l]])[:, 0, 0]
                assert alone.tobytes() == residuals[:, i, l].tobytes()
            # a model of the stack rolls out byte for byte as it does alone
            assert_allclose(rollout_residuals([model], trajs)[:, 0], residuals[:, i], rtol=0, atol=0)

    def test_long_stack_matches_each_model_alone(self):
        # 1100 steps, where the cases drawn above have at most 60: a fault
        # that shows only far into a long record is seen here
        rng = np.random.default_rng(11)
        models = [random_model(rng, 1100, 2, 1, stacked) for stacked in (True, False, True)]
        trajs = random_set(rng, 1100, 2, 1, 2)
        residuals = rollout_residuals(models, trajs)
        assert residuals.shape == (1100, 3, 2, 2)
        for i, model in enumerate(models):
            for l, oracle in enumerate(oracle_rollouts(model, trajs)):
                alone = rollout_residuals([model], [trajs[l]])[:, 0, 0]
                assert alone.tobytes() == residuals[:, i, l].tobytes()
                expected = oracle[1:] - trajs[l].states[1:]
                scale = max(1.0, float(np.max(np.abs(oracle))))
                assert np.max(np.abs(alone - expected)) <= 1e-12 * scale

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
            rollout_residuals([random_model(rng, n + 1, p, q, stacked), model], longer)

    @settings(max_examples=20, deadline=None)
    @given(**SHAPES)
    def test_ecdf_residuals_match_per_trajectory_oracle(self, seed, p, q, n, ell, stacked):
        rng = np.random.default_rng(seed)
        models = [random_model(rng, n, p, q, stacked) for _ in range(2)]
        trajs = random_set(rng, n, p, q, ell)
        values = ecdf_residuals(models, trajs)
        assert values.shape == (2, n * ell)
        for model, got in zip(models, values):
            samples = [
                np.abs(pred[1:, 0] - t.states[1:, 0]) / np.mean(np.abs(t.states[:, 0]))
                for pred, t in zip(oracle_rollouts(model, trajs), trajs)
            ]
            expected = np.sort(np.concatenate(samples))
            scale = max(1.0, float(np.max(expected)))
            assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("p, q", [(3, 1), (2, 2)], ids=["three-states", "two-inputs"])
def test_model_of_another_shape_is_an_input_error(constant_model, p, q):
    # caught before the rollout, so numpy's broadcast error never surfaces
    other = LtvModel.from_constant(0.5 * np.eye(p), np.ones((p, q)), constant_model.n_steps, 0.02)
    data = model_trajectories(constant_model, 2, seed=1)
    with pytest.raises(InputError, match=f"model has p={p} and q={q}, the data p=2 and q=1"):
        rollout_residuals([constant_model, other], data)
