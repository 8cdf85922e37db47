import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import model_trajectories
from ltvbench.dynamics import ground_truth_ltv, scenario
from ltvbench.exceptions import ExcitationError
from ltvbench.ident import (
    CosmicConfig,
    cosmic_fit,
    cosmic_objective,
    lti_fit,
)
from ltvbench.ident.cosmic import cosmic_problem
from ltvbench.ident.regression import _stack_all
from ltvbench.models import LtvModel


def dense_normal_solution(trajs, lam):
    """Independent oracle: assemble and solve the full stacked normal equations."""
    v, xn = _stack_all(trajs)
    n, _, d = v.shape
    p = xn.shape[2]
    lam_vec = np.full(n + 1, lam)
    lam_vec[0] = lam_vec[-1] = 0.0
    big = np.zeros((n * d, n * d))
    rhs = np.zeros((n * d, p))
    for k in range(n):
        big[k * d : (k + 1) * d, k * d : (k + 1) * d] = v[k].T @ v[k] / n + (
            lam_vec[k] + lam_vec[k + 1]
        ) * np.eye(d)
        if k > 0:
            big[k * d : (k + 1) * d, (k - 1) * d : k * d] = -lam_vec[k] * np.eye(d)
            big[(k - 1) * d : k * d, k * d : (k + 1) * d] = -lam_vec[k] * np.eye(d)
        rhs[k * d : (k + 1) * d] = v[k].T @ xn[k] / n
    return np.linalg.solve(big, rhs).reshape(n, d, p)


class TestCosmicFit:
    def test_recovers_constant_system(self, constant_model):
        trajs = model_trajectories(constant_model, 6, seed=0)
        fit = cosmic_fit(trajs, CosmicConfig(lam=1.0))
        assert np.max(np.abs(fit.A - constant_model.A)) <= 1e-6
        assert np.max(np.abs(fit.B - constant_model.B)) <= 1e-6

    def test_recovers_time_varying_truth_at_small_lam(self):
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = model_trajectories(truth, 8, seed=1)
        fit = cosmic_fit(trajs, CosmicConfig(lam=1e-6))
        assert np.max(np.abs(fit.A - truth.A)) <= 1e-4
        assert np.max(np.abs(fit.B - truth.B)) <= 1e-4

    def test_large_lam_collapses_to_pooled_least_squares(self):
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = model_trajectories(truth, 8, seed=2)
        fit = cosmic_fit(trajs, CosmicConfig(lam=1e9))
        blocks = fit.stacked()
        assert np.max(np.abs(blocks - blocks.mean(axis=0))) <= 1e-6
        pooled = lti_fit(trajs).stacked()[0]
        assert np.max(np.abs(blocks[0] - pooled)) <= 1e-5

    def test_matches_dense_normal_solve(self, constant_model):
        trajs = model_trajectories(constant_model, 5, seed=3, noise=0.01)
        short = [
            type(t)(times=t.times[:4], states=t.states[:4], inputs=t.inputs[:3])
            for t in trajs
        ]
        fit = cosmic_fit(short, CosmicConfig(lam=0.7))
        assert np.max(np.abs(fit.stacked() - dense_normal_solution(short, 0.7))) <= 1e-10

    def test_single_trajectory_mode(self, constant_model):
        trajs = model_trajectories(constant_model, 4, seed=4, noise=1e-3)
        single = cosmic_fit(trajs, CosmicConfig(lam=0.1, single_trajectory=True))
        first_only = cosmic_fit(trajs[:1], CosmicConfig(lam=0.1))
        assert_allclose(single.A, first_only.A)
        assert single.method == "cosmic-single"
        multi = cosmic_fit(trajs, CosmicConfig(lam=0.1))
        assert not np.allclose(single.A, multi.A)

    def test_unexcited_data_raises(self):
        from ltvbench.dynamics import Trajectory

        traj = Trajectory(
            times=np.arange(6.0), states=np.zeros((6, 2)), inputs=np.zeros((5, 1))
        )
        with pytest.raises(ExcitationError):
            cosmic_fit([traj], CosmicConfig(lam=1.0))

    def test_preconditioning_survives_badly_scaled_channels(self, constant_model):
        # one state channel six orders larger: recovery should still be exact
        scale = np.array([1e6, 1.0])
        A = constant_model.A * (scale[None, :, None] / scale[None, None, :])
        B = constant_model.B * scale[None, :, None]
        scaled_model = LtvModel(A=A, B=B, dt=constant_model.dt)
        trajs = model_trajectories(scaled_model, 6, seed=5)
        fit = cosmic_fit(trajs, CosmicConfig(lam=1e-8))
        assert np.max(np.abs(fit.A - scaled_model.A)) <= 1e-6
        assert fit.preconditioning is not None
        assert fit.preconditioning["state_scale"][0] < 1e-4


class TestCosmicObjective:
    def test_zero_at_perfect_constant_model(self, constant_model):
        trajs = model_trajectories(constant_model, 3, seed=6)
        total, fidelity, smoothness = cosmic_objective(constant_model, trajs, 2.0)
        assert total <= 1e-20
        assert fidelity <= 1e-20
        assert smoothness == 0.0

    def test_smoothness_zero_iff_blocks_equal(self, constant_model):
        trajs = model_trajectories(constant_model, 3, seed=7)
        varying = LtvModel(
            A=constant_model.A + np.linspace(0, 0.01, constant_model.n_steps)[:, None, None],
            B=constant_model.B,
            dt=constant_model.dt,
        )
        assert cosmic_objective(constant_model, trajs, 1.0)[2] == 0.0
        assert cosmic_objective(varying, trajs, 1.0)[2] > 0.0

    def test_finite_difference_gradient_vanishes_at_fit(self, constant_model):
        trajs = model_trajectories(constant_model, 4, seed=8, noise=0.05)
        short = [
            type(t)(times=t.times[:7], states=t.states[:7], inputs=t.inputs[:6])
            for t in trajs
        ]
        lam = 0.3
        fit = cosmic_fit(short, CosmicConfig(lam=lam))
        blocks = fit.stacked()
        h = 1e-6
        worst = 0.0
        for idx in np.ndindex(blocks.shape):
            up = blocks.copy()
            up[idx] += h
            down = blocks.copy()
            down[idx] -= h
            f_up = cosmic_objective(LtvModel.from_stacked(up, 1, fit.dt), short, lam)[0]
            f_dn = cosmic_objective(LtvModel.from_stacked(down, 1, fit.dt), short, lam)[0]
            worst = max(worst, abs(f_up - f_dn) / (2 * h))
        assert worst <= 1e-6

    def test_smoothness_path_non_increasing_in_lam(self):
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = model_trajectories(truth, 6, seed=9, noise=1e-3)
        path = []
        for lam in np.logspace(-4, 4, 9):
            blocks = cosmic_fit(trajs, CosmicConfig(lam=float(lam))).stacked()
            path.append(float(np.sum((blocks[1:] - blocks[:-1]) ** 2)))
        assert all(b <= a * (1 + 1e-9) for a, b in zip(path, path[1:]))


class TestSharedProblem:
    """A tuning grid builds cosmic's lam-independent set-up once."""

    @pytest.mark.parametrize("single", [False, True])
    def test_one_problem_serves_every_lam(self, constant_model, single):
        trajs = model_trajectories(constant_model, 5, seed=21, noise=1e-3)
        problem = cosmic_problem(trajs, single_trajectory=single)
        for lam in (1e-3, 1.0, 1e3, 1.0):   # a repeated lam sees the same set-up
            cfg = CosmicConfig(lam=lam, single_trajectory=single)
            shared, own = cosmic_fit(problem, cfg), cosmic_fit(trajs, cfg)
            assert shared.stacked().tobytes() == own.stacked().tobytes()
            assert (shared.method, shared.hyperparams) == (own.method, own.hyperparams)
            assert shared.preconditioning == own.preconditioning
            assert shared.info == own.info
        assert not problem.gram.flags.writeable and not problem.rhs.flags.writeable

    def test_problem_and_config_must_agree(self, constant_model):
        trajs = model_trajectories(constant_model, 3, seed=22)
        with pytest.raises(ValueError, match="single_trajectory"):
            cosmic_fit(cosmic_problem(trajs), CosmicConfig(single_trajectory=True))
