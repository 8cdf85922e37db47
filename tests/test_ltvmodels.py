import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import model_trajectories, rollout_model
from ltvbench.dynamics import Trajectory, ground_truth_ltv, scenario
import ltvbench.ident.ltvmodels as ltvmodels
from ltvbench.exceptions import NumericalError
from ltvbench.ident import LtvModelsConfig, lti_fit, ltvmodels_fit
from ltvbench.ident.ltvmodels import certify
from ltvbench.models import LtvModel


def regressors(traj):
    return np.concatenate([traj.states[:-1], traj.inputs], axis=1), traj.states[1:]


def objective(blocks, traj, lam):
    """P(C): squared one-step residuals plus lam times the jump norms."""
    v, y = regressors(traj)
    residual = np.einsum("ti,tip->tp", v, blocks) - y
    jumps = np.sqrt(np.sum(np.diff(blocks, axis=0) ** 2, axis=(1, 2)))
    return float(np.sum(residual**2)) + lam * float(np.sum(jumps))


def pooled_blocks(traj):
    return lti_fit([traj]).stacked()


def jumping_trajectory(seed, n, p, noise=1e-2):
    """One noisy trajectory of a random stable model whose blocks jump once."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, p, p))
    a *= 0.9 / np.linalg.norm(a, ord=2, axis=(1, 2))[:, None, None]
    jump = int(rng.integers(1, n))
    A = np.where((np.arange(n) < jump)[:, None, None], a[0], a[1])
    B = np.repeat(rng.normal(size=(1, p, 1)), n, axis=0)
    return model_trajectories(LtvModel(A=A, B=B, dt=0.1), 1, seed=seed, noise=noise)[0]


class TestCertificate:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        p=st.integers(1, 2),
        log_lam=st.floats(-4.0, 4.0),
    )
    def test_gap_bounds_the_excess_over_any_perturbation(self, seed, n, p, log_lam):
        lam = 10.0**log_lam
        traj = jumping_trajectory(seed, n, p)
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=lam))
        gap = fit.info["gap"]
        assert fit.info["converged"] == (gap <= 1e-8)
        blocks = fit.stacked()
        best = objective(blocks, traj, lam)
        # With N = p + 1 the pooled fit interpolates, and P is rounding noise
        # far below this scale.
        rounding = 1e-20 * float(np.sum(traj.states**2))
        assert best == pytest.approx(fit.info["objective"][-1], rel=1e-12, abs=rounding)
        rng = np.random.default_rng(seed)
        others = [pooled_blocks(traj)] + [
            blocks + 10.0 ** rng.uniform(-9, 0) * rng.normal(size=blocks.shape)
            for _ in range(20)
        ]
        for other in others:
            assert best - objective(other, traj, lam) <= (gap + 1e-12) * best + rounding

    @pytest.mark.parametrize("seed", range(6))
    def test_summation_by_parts_equals_primal_minus_dual(self, seed):
        # The certificate evaluates P - dual as a sum of nonnegative terms;
        # here it is checked against the dual formula itself, at arbitrary
        # blocks far enough from optimal that the formula's cancellation is mild.
        traj = jumping_trajectory(seed, 30, 2, noise=0.1)
        v, y = regressors(traj)
        rng = np.random.default_rng(seed)
        lam = [1e-3, 1e-1, 10.0][seed % 3]
        start = pooled_blocks(traj) + 0.3 * rng.normal(size=(30, 3, 2))
        shifted, total, gap = certify(start, v, y, lam)
        assert_allclose(np.diff(shifted, axis=0), np.diff(start, axis=0), atol=1e-14)
        residual = np.einsum("ti,tip->tp", v, shifted) - y
        grads = 2.0 * v[:, :, None] * residual[:, None, :]
        assert np.abs(grads.sum(axis=0)).max() <= 1e-10
        assert total == pytest.approx(objective(shifted, traj, lam), rel=1e-12)
        assert total <= objective(start, traj, lam)
        top = np.sqrt(np.sum(np.cumsum(grads, axis=0)[:-1] ** 2, axis=(1, 2))).max()
        a = min(1.0, lam / top)
        dual = float(np.sum(-(a**2) * residual**2 - 2.0 * a * residual * y))
        assert gap == pytest.approx((total - dual) / total, rel=1e-8)


class TestNewtonSteps:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 40),
        p=st.integers(1, 2),
        log_lam=st.floats(-4.0, 4.0),
    )
    def test_jumping_fits_converge_within_the_default_cap(self, seed, n, p, log_lam):
        fit = ltvmodels_fit(jumping_trajectory(seed, n, p), LtvModelsConfig(lam=10.0**log_lam))
        assert fit.info["converged"]
        assert fit.info["iterations"] < LtvModelsConfig().max_iter

    # Steps of the dual-estimate Newton method; the barrier-Hessian method it
    # replaced took 35, 46 and 67.
    @pytest.mark.parametrize(
        "kind, seed, noise, lam, bound",
        [
            ("ltv", 3, 1e-3, 0.1, 25),             # 22
            ("ltv", 2, 1e-3, 0.01, 24),            # 21
            ("inst-reconfig", 4, 0.0, 0.01, 42),   # 37
        ],
    )
    def test_iterating_fits_take_few_steps(self, kind, seed, noise, lam, bound):
        truth = ground_truth_ltv(scenario(kind))
        traj = model_trajectories(truth, 1, seed=seed, noise=noise)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=lam))
        assert fit.info["converged"]
        assert 0 < fit.info["iterations"] <= bound


class TestScreening:
    def test_pooled_fit_is_exact_from_the_largest_prefix_gradient(self):
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=6, noise=1e-3)[0]
        v, y = regressors(traj)
        pooled = pooled_blocks(traj)
        residual = np.einsum("ti,tip->tp", v, pooled) - y
        prefix = np.cumsum(2.0 * v[:, :, None] * residual[:, None, :], axis=0)
        lam_max = float(np.sqrt(np.sum(prefix[:-1] ** 2, axis=(1, 2))).max())

        for lam in (lam_max, 10.0 * lam_max):
            fit = ltvmodels_fit(traj, LtvModelsConfig(lam=lam))
            assert fit.info["iterations"] == 0
            assert fit.info["converged"] and fit.info["gap"] <= 1e-8
            assert_allclose(fit.stacked(), pooled, rtol=1e-9, atol=1e-12)

        below = ltvmodels_fit(traj, LtvModelsConfig(lam=0.99 * lam_max))
        assert below.info["iterations"] > 0
        assert below.info["converged"]
        blocks = below.stacked()
        assert np.max(np.abs(blocks - pooled)) > 1e-9
        assert objective(blocks, traj, 0.99 * lam_max) < objective(
            pooled, traj, 0.99 * lam_max
        )


class TestLtvModelsFit:
    def test_large_lam_matches_pooled_least_squares(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=1)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=1e6))
        blocks = fit.stacked()
        assert np.max(np.abs(blocks - blocks.mean(axis=0))) <= 1e-4
        pooled = lti_fit([traj]).stacked()[0]
        assert np.max(np.abs(blocks[0] - pooled)) <= 1e-4

    def test_reported_objective_is_monotone(self):
        # At lam = 1 this trajectory's pooled fit is the exact optimum: the
        # start certifies and the history is the single start objective.
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=2, noise=1e-3)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=1.0))
        assert fit.info["iterations"] == 0
        assert fit.info["converged"] and fit.info["gap"] <= 1e-8
        assert fit.info["objective"] == [pytest.approx(objective(fit.stacked(), traj, 1.0))]

    def test_objective_history_is_monotone_while_iterating(self):
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=2, noise=1e-3)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.01))
        history = np.array(fit.info["objective"])
        assert len(history) == fit.info["iterations"] + 1 > 3
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] < history[0]
        assert fit.info["converged"]

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
        # This data screens at lam = 0.5: the pooled start certifies, so the
        # cap is never reached.
        traj = model_trajectories(constant_model, 1, seed=5, noise=1e-2)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.5, max_iter=3))
        assert fit.info["converged"] is True
        assert fit.info["iterations"] == 0

    def test_cap_on_an_iterating_fit_reports_its_gap(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=5, noise=1e-2)[0]
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.05, max_iter=3))
        assert fit.info["converged"] is False
        assert fit.info["iterations"] == 3
        assert len(fit.info["objective"]) == 4
        assert fit.info["gap"] > 1e-8
        full = ltvmodels_fit(traj, LtvModelsConfig(lam=0.05))
        assert full.info["converged"] and full.info["iterations"] > 3
        excess = (fit.info["objective"][-1] - full.info["objective"][-1]) / fit.info["objective"][-1]
        assert excess <= fit.info["gap"]

    @pytest.mark.parametrize("max_iter", [1, 2, 3, None])
    def test_info_holds_python_scalars(self, constant_model, max_iter):
        traj = model_trajectories(constant_model, 1, seed=5, noise=1e-2)[0]
        cfg = LtvModelsConfig(lam=0.05, **({} if max_iter is None else {"max_iter": max_iter}))
        info = ltvmodels_fit(traj, cfg).info
        assert type(info["converged"]) is bool
        assert info["converged"] is (max_iter is None)
        assert type(info["gap"]) is float
        assert type(info["iterations"]) is int
        assert all(type(value) is float for value in info["objective"])

    def test_indefinite_newton_system_returns_the_incumbent(self, monkeypatch):
        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=2, noise=1e-3)[0]
        real = ltvmodels.factor_block_tridiag
        calls = []

        def fails_after_five(diag, upper):
            calls.append(None)
            if len(calls) > 5:
                raise NumericalError("banded factorization failed; system not PD")
            return real(diag, upper)

        monkeypatch.setattr(ltvmodels, "factor_block_tridiag", fails_after_five)
        fit = ltvmodels_fit(traj, LtvModelsConfig(lam=0.01))
        assert fit.info["iterations"] == 5
        assert fit.info["converged"] is False and fit.info["gap"] > 1e-8
        assert len(fit.info["objective"]) == 6
        assert objective(fit.stacked(), traj, 0.01) == pytest.approx(fit.info["objective"][-1])

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
            LtvModelsConfig(lam=1.0, max_iter=0)
