import numpy as np
import pytest

from conftest import model_trajectories, rollout_model
from ltvbench.datagen import tvera_experiments
from ltvbench.dynamics import Trajectory, ground_truth_ltv, scenario
from ltvbench.exceptions import ExcitationError, RealizationError
from ltvbench.ident import TveraConfig, per_trajectory_losses, tvera_fit
from ltvbench.models import LtvModel, MatrixPair


def exact_experiments(model, n_free=4, n_forced=10, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(model.n_steps + 1) * model.dt
    trajs = []
    for _ in range(n_free):
        x0 = rng.uniform(-1.0, 1.0, model.p)
        inputs = np.zeros((model.n_steps, model.q))
        trajs.append(Trajectory(times=times, states=rollout_model(model, x0, inputs), inputs=inputs))
    for _ in range(n_forced):
        inputs = rng.normal(0.0, 1.0, (model.n_steps, model.q))
        trajs.append(
            Trajectory(times=times, states=rollout_model(model, np.zeros(model.p), inputs), inputs=inputs)
        )
    return trajs


class TestTveraExact:
    def test_realization_matches_truth_on_exact_data(self):
        truth = ground_truth_ltv(scenario("ltv"))
        fit = tvera_fit(exact_experiments(truth), TveraConfig())
        assert np.max(np.abs(fit.A - truth.A)) <= 1e-6
        assert np.max(np.abs(fit.B - truth.B)) <= 1e-6

    def test_rollouts_match_fresh_trajectories(self):
        truth = ground_truth_ltv(scenario("mixed-reconfig"))
        fit = tvera_fit(exact_experiments(truth, seed=1), TveraConfig())
        tests = model_trajectories(truth, 3, seed=2)
        losses = per_trajectory_losses(fit, tests)
        assert np.max(losses) <= 1e-4

    def test_hankel_of_order_p_system_has_rank_p(self):
        # independent construction from the true model: H = O R with
        # h(i, j) = Phi(i, j+1) B(j)
        truth = ground_truth_ltv(scenario("ltv"))
        k, s, r = 10, 3, 3
        h = np.zeros((s * 2, r * 1))
        for i in range(s):
            for j in range(r):
                phi = np.eye(2)
                for step in range(k - j, k + i):      # Phi(k+i, k-j)
                    phi = truth.A[step] @ phi
                block = phi @ truth.B[k - 1 - j]
                h[i * 2 : (i + 1) * 2, j : j + 1] = block
        sv = np.linalg.svd(h, compute_uv=False)
        assert sv[1] / sv[0] > 1e-6
        assert sv[2] / sv[0] < 1e-10


class TestTveraErrors:
    def test_insufficient_experiments(self):
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = exact_experiments(truth, n_free=2, n_forced=3)
        with pytest.raises(ExcitationError):
            tvera_fit(trajs, TveraConfig(n_free=4, n_forced=10))

    def test_collapsed_hankel_spectrum(self):
        # zero input map: the Hankel matrices vanish identically
        dead = LtvModel.from_constant(
            MatrixPair(np.array([[0.9, 0.1], [0.0, 0.8]]), np.zeros((2, 1))), 60, 0.02
        )
        trajs = exact_experiments(dead, n_free=6, n_forced=8, seed=3)
        with pytest.raises(RealizationError):
            tvera_fit(trajs, TveraConfig(n_free=4, n_forced=8))


class TestTveraNoisy:
    def test_still_produces_bounded_rollouts(self):
        spec = scenario("ltv")
        experiments = tvera_experiments(spec, n_free=4, n_forced=10, noise_var=1e-6, master_seed=3)
        fit = tvera_fit(experiments, TveraConfig())
        truth = ground_truth_ltv(spec)
        tests = model_trajectories(truth, 4, seed=4)
        losses = per_trajectory_losses(fit, tests)
        assert np.all(np.isfinite(losses))
        # noisy realization is far off the truth but not divergent
        assert 1e-4 < np.mean(losses) < 50.0
