import numpy as np
import pytest

import ltvbench.ident.tuning as tuning
from conftest import model_trajectories
from ltvbench.bench import BenchConfig, _scenario_data, method_grid
from ltvbench.datagen import Split
from ltvbench.exceptions import TuningError
from ltvbench.ident import fit_method, tune


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
        monkeypatch.setattr(tuning, "trajectory_prediction_loss", lambda model, data: 1.0)
        result = tune("cosmic", [{"lam": 0.01}, {"lam": 10.0}], train, val)
        assert result.best_params == {"lam": 10.0}

    def test_grid_sorted_by_lam_before_evaluation(self, monkeypatch, constant_model):
        train = model_trajectories(constant_model, 5, seed=5, noise=1e-4)
        val = model_trajectories(constant_model, 2, seed=6)
        monkeypatch.setattr(tuning, "trajectory_prediction_loss", lambda model, data: 1.0)
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
