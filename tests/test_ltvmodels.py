import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import model_trajectories, rollout_model
from ltvbench.dynamics import Trajectory, ground_truth_ltv, scenario
from ltvbench.ident import LtvModelsConfig, lti_fit, ltvmodels_fit
from ltvbench.ident.ltvmodels import _shrink_blocks


class TestBlockSoftThreshold:
    def test_kill_zone(self):
        v = np.array([[[0.3], [0.4]], [[0.0], [0.0]]])     # norms 0.5 and 0
        assert_allclose(_shrink_blocks(v, 0.5), 0.0)
        assert_allclose(_shrink_blocks(v, 0.6), 0.0)

    def test_shrinks_along_the_input_direction(self):
        rng = np.random.default_rng(0)
        for tau in rng.uniform(0.0, 2.0, size=5):
            v = rng.normal(size=(20, 3, 2))
            out = _shrink_blocks(v, tau)
            for block, shrunk in zip(v, out):
                norm = np.linalg.norm(block)
                if norm <= tau:
                    assert_allclose(shrunk, 0.0)
                else:
                    assert_allclose(shrunk, (1.0 - tau / norm) * block)
                    assert np.linalg.norm(shrunk) == pytest.approx(norm - tau)


class TestLtvModelsFit:
    def test_large_lam_matches_pooled_least_squares(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=1)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=1e6))
        blocks = fit.stacked()
        assert np.max(np.abs(blocks - blocks.mean(axis=0))) <= 1e-4
        pair = lti_fit([traj])
        pooled = np.concatenate([pair.A.T, pair.B.T], axis=0)
        assert np.max(np.abs(blocks[0] - pooled)) <= 1e-4

    def test_reported_objective_is_monotone(self):
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=2, noise=1e-3)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=1.0))
        history = np.array(fit.info["objective"])
        assert len(history) > 3
        assert np.all(np.diff(history) <= 1e-9)

    def test_objective_of_fit_beats_unsmoothed_start(self):
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=3, noise=1e-3)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.1))
        history = fit.info["objective"]
        assert history[-1] < history[0]

    def test_detects_piecewise_constant_dynamics(self):
        truth = ground_truth_ltv(scenario("inst-reconfig"))
        traj = model_trajectories(truth, 1, seed=4)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.01))
        predicted = rollout_model(fit, traj.states[0], traj.inputs)
        residual = predicted[1:] - traj.states[1:]
        assert np.sqrt(np.mean(np.sum(residual**2, axis=1))) < 0.5

    def test_cap_sets_converged_false(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=5, noise=1e-2)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.5, max_iter=3))
        assert fit.info["converged"] is False
        assert fit.info["iterations"] == 3

    def test_needs_two_transitions(self):
        traj = Trajectory(
            times=np.arange(2.0), states=np.zeros((2, 2)), inputs=np.zeros((1, 1))
        )
        with pytest.raises(ValueError):
            ltvmodels_fit(traj)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LtvModelsConfig(lam=0.0)
        with pytest.raises(ValueError):
            LtvModelsConfig(lam=1.0, rho=-1.0)
