import numpy as np
import pytest

import ltvbench.ident.tuning as tuning
from conftest import model_trajectories
from ltvbench.bench import BenchConfig, _scenario_data, method_grid
from ltvbench.datagen import Split, tvera_experiments
from ltvbench.dynamics import Trajectory
from ltvbench.exceptions import ExcitationError, TuningError
from ltvbench.ident import fit_method, trajectory_prediction_loss, tune


class TestFitMethod:
    def test_dispatch_tags(self, constant_model):
        trajs = model_trajectories(constant_model, 5, seed=0, noise=1e-4)
        assert fit_method("cosmic", trajs, {"lam": 1.0}).method == "cosmic"
        assert fit_method("cosmic-single", trajs, {"lam": 1.0}).method == "cosmic-single"
        assert fit_method("perstep", trajs).method == "perstep"
        lti = fit_method("lti", trajs)
        assert lti.method == "lti"
        assert lti.n_steps == constant_model.n_steps
        with pytest.raises(ValueError):
            fit_method("nope", trajs)

    def test_default_grids(self):
        cfg = BenchConfig()
        assert len(method_grid("cosmic", cfg)) == 9
        assert method_grid("perstep", cfg) == ({},)
        assert method_grid("tvera", cfg) == tuple(
            {"hankel_rows": n, "hankel_cols": n} for n in (2, 3, 4)
        )


def equal_losses(models, data):
    """One validation loss per model, all equal: every grid point ties."""
    return np.ones(len(models))


class TestTune:
    def test_singleton_grid_returns_that_point(self, constant_model):
        train = model_trajectories(constant_model, 5, seed=1, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=2)
        result = tune("cosmic", [{"lam": 0.5}], train, val)
        assert result.best_params == {"lam": 0.5}
        assert len(result.rows) == 1

    def test_exact_ties_resolve_to_larger_lam(self, monkeypatch, constant_model):
        train = model_trajectories(constant_model, 5, seed=3, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=4)
        monkeypatch.setattr(tuning, "trajectory_prediction_loss", equal_losses)
        result = tune("cosmic", [{"lam": 0.01}, {"lam": 10.0}], train, val)
        assert result.best_params == {"lam": 10.0}

    def test_grid_sorted_by_lam_before_evaluation(self, monkeypatch, constant_model):
        train = model_trajectories(constant_model, 5, seed=5, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=6)
        monkeypatch.setattr(tuning, "trajectory_prediction_loss", equal_losses)
        result = tune("cosmic", [{"lam": 10.0}, {"lam": 0.01}], train, val)
        assert [r.params["lam"] for r in result.rows] == [0.01, 10.0]
        assert result.best_params == {"lam": 10.0}

    def test_partial_failures_recorded(self, constant_model):
        train = model_trajectories(constant_model, 5, seed=7, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=8)
        result = tune("cosmic", [{"lam": -1.0}, {"lam": 1.0}], train, val)
        failed = [r for r in result.rows if r.error is not None]
        assert len(failed) == 1
        assert result.best_params == {"lam": 1.0}

    def test_non_finite_loss_never_wins(self, monkeypatch, constant_model):
        # the first point's model rolls out to NaN; a NaN loss compares False
        # against everything, so it must be recorded as failed, not kept
        def fit(method, data, params):
            model = fit_method(method, data, params)
            if params["lam"] == 0.01:
                model.A[5] = np.nan
            return model

        monkeypatch.setattr(tuning, "fit_method", fit)
        train = model_trajectories(constant_model, 5, seed=13, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=14)
        result = tune("cosmic", [{"lam": 0.01}, {"lam": 1.0}], train, val)
        assert result.best_params == {"lam": 1.0}
        assert np.isfinite(result.best_loss)
        first = result.rows[0]
        assert first.loss is None and "validation loss is nan" in first.error

    def test_all_failures_raise_with_diagnostics(self, constant_model):
        train = model_trajectories(constant_model, 5, seed=9, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=10)
        with pytest.raises(TuningError) as exc_info:
            tune("cosmic", [{"lam": -1.0}, {"lam": -2.0}], train, val)
        assert len(exc_info.value.diagnostics) == 2

    @pytest.mark.parametrize("method", ["cosmic", "cosmic-single"])
    def test_unexcited_training_set_fails_every_point_alike(self, monkeypatch, method):
        # at rest with zero input the rows span rank 0 < 3, so cosmic's shared
        # set-up cannot be built; every point still calls its own fit and
        # records the error that fitting it alone raises
        rest = Trajectory(times=np.arange(11) * 0.1, states=np.zeros((11, 2)), inputs=np.zeros(10))
        calls = []

        def fit(method, data, params):
            calls.append(params)
            return fit_method(method, data, params)

        monkeypatch.setattr(tuning, "fit_method", fit)
        grid = [{"lam": 0.1}, {"lam": 1.0}, {"lam": 10.0}]
        with pytest.raises(TuningError) as failed:
            tune(method, grid, [rest, rest], [rest])
        with pytest.raises(ExcitationError) as alone:
            fit_method(method, [rest, rest], {"lam": 1.0})
        assert calls == grid
        assert failed.value.diagnostics == [f"{point}: {alone.value}" for point in grid]

    def test_programming_error_propagates(self, monkeypatch, constant_model):
        # only data, settings and linear-algebra failures become grid-point errors
        def broken_fit(*args, **kwargs):
            raise TypeError("bug in a fit")

        monkeypatch.setattr(tuning, "fit_method", broken_fit)
        train = model_trajectories(constant_model, 5, seed=12, noise=1e-4)
        with pytest.raises(TypeError, match="bug in a fit"):
            tune("cosmic", [{"lam": 0.5}, {"lam": 1.0}], train, train)

    def test_empty_grid_rejected(self, constant_model):
        train = model_trajectories(constant_model, 5, seed=11)
        with pytest.raises(ValueError):
            tune("cosmic", [], train, train)

    def test_validation_curve_falls_then_rises(self):
        # coarse pre-scans put the best smoothing near 1e-3 for this setup;
        # the recorded sweep should be unimodal around it
        cfg = BenchConfig(l_train=8, l_val=4, l_test=4)
        _, _, splits = _scenario_data("ltv", cfg)
        result = tune(
            "cosmic", method_grid("cosmic", cfg), splits[Split.TRAIN], splits[Split.VALIDATION]
        )
        losses = [r.loss for r in result.rows]
        best = int(np.argmin(losses))
        assert 0 < best < len(losses) - 1
        assert all(losses[i] >= losses[i + 1] for i in range(0, best))
        assert all(losses[i] <= losses[i + 1] for i in range(best, len(losses) - 1))
        assert result.best_params == result.rows[best].params


class TestGridScoring:
    """``tune`` fits every point, then scores all fitted models in one batched
    rollout; each loss must be what scoring that model alone gives."""

    CFG = BenchConfig(scenarios=("ltv",), l_train=4, l_val=2, l_test=2, lambda_grid=(1e-3, 1e-1, 10.0))

    def splits(self, method):
        spec, seed, splits = _scenario_data("ltv", self.CFG)
        train = splits[Split.TRAIN]
        if method == "tvera":
            train = tvera_experiments(spec, n_free=4, n_forced=6, master_seed=seed)
        return train, splits[Split.VALIDATION]

    def recording_fits(self, monkeypatch, change=None):
        """Patch ``fit_method`` to keep every fitted model, after ``change``."""
        models = {}

        def fit(method, data, params):
            model = fit_method(method, data, params)
            if change is not None:
                change(params, model)
            models[tuple(params.values())] = model
            return model

        monkeypatch.setattr(tuning, "fit_method", fit)
        return models

    @pytest.mark.parametrize("method", ["cosmic", "ltvmodels", "tvera"])
    def test_losses_equal_scoring_each_model_alone(self, monkeypatch, method):
        models = self.recording_fits(monkeypatch)
        train, val = self.splits(method)
        grid = method_grid(method, self.CFG)
        result = tune(method, grid, train, val)
        scored = [row for row in result.rows if row.error is None]
        assert len(result.rows) == len(grid) and len(scored) == len(models) >= 2
        for row in scored:
            alone = trajectory_prediction_loss(models[tuple(row.params.values())], val)
            assert type(row.loss) is float and row.loss.hex() == alone.hex()
        assert result.best_loss == min(row.loss for row in scored)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_failed_and_non_finite_points_are_recorded_and_never_win(self, monkeypatch):
        def change(params, model):
            if params["lam"] == 1e-3:
                raise ExcitationError("too few samples")
            if params["lam"] == 10.0:
                model.A[3] = np.inf   # rolls out to inf or nan

        models = self.recording_fits(monkeypatch, change)
        train, val = self.splits("cosmic")
        result = tune("cosmic", method_grid("cosmic", self.CFG), train, val)
        failed, scored, overflowed = result.rows
        assert failed.loss is None and failed.error == "too few samples"
        assert overflowed.loss is None and "validation loss is" in overflowed.error
        assert scored.error is None and scored.loss == trajectory_prediction_loss(models[(0.1,)], val)
        assert result.best_params == {"lam": 0.1}
        # each row keeps its point's fit, also when only the loss failed
        assert failed.model is None
        assert scored.model is result.best_model and overflowed.model is models[(10.0,)]

    def test_a_set_that_cannot_be_scored_fails_every_point(self):
        # validation trajectories longer than the training ones: no model
        # covers them, and each point records why
        train, val = self.splits("cosmic")
        cut = [first_steps(traj, 250) for traj in train.trajectories]
        with pytest.raises(TuningError) as info:
            tune("cosmic", method_grid("cosmic", self.CFG), cut, val)
        assert len(info.value.diagnostics) == 3
        assert all("model covers 250 steps" in line for line in info.value.diagnostics)

    def test_exact_ties_go_to_the_larger_lam(self):
        # at these lams every fit is the pooled constant model, so all
        # validation losses are equal bit for bit
        train, val = self.splits("ltvmodels")
        result = tune("ltvmodels", [{"lam": 1e4}, {"lam": 1e2}, {"lam": 1e3}], train, val)
        assert len({row.loss for row in result.rows}) == 1
        assert result.best_params == {"lam": 1e4}


def first_steps(traj, n):
    """The first ``n`` steps of ``traj``."""
    return Trajectory(times=traj.times[: n + 1], states=traj.states[: n + 1], inputs=traj.inputs[:n])
