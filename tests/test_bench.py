import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ltvbench.bench as bench
import ltvbench.datagen as datagen
import ltvbench.ident.tuning as tuning
from ltvbench.datagen import Split
from ltvbench.dynamics import scenario
from conftest import model_trajectories
from ltvbench.bench import (
    BenchConfig,
    ecdf_residuals,
    lambda_sweep,
    run_bench,
    run_control_benchmark,
    run_prediction_benchmark,
    write_prediction_csv,
)

SMALL = BenchConfig(
    scenarios=("ltv",),
    l_train=6,
    l_val=3,
    l_test=3,
    lambda_grid=(1e-3, 1e-1, 10.0),
    tvera_rows_cols=((3, 3),),
    master_seed=13,
)


class TestEcdf:
    def test_perfect_model_all_zero(self, constant_model):
        from conftest import rollout_model
        from ltvbench.dynamics import Trajectory

        rng = np.random.default_rng(0)
        trajs = []
        for _ in range(3):
            inputs = rng.normal(size=(constant_model.n_steps, 1))
            states = rollout_model(constant_model, rng.normal(0.0, 2.0, 2), inputs)
            trajs.append(
                Trajectory(
                    times=np.arange(len(states), dtype=float), states=states, inputs=inputs
                )
            )
        series = ecdf_residuals(constant_model, trajs)
        assert_allclose(series.values, 0.0)
        n = len(series.values)
        assert_allclose(series.fractions, np.arange(1, n + 1) / n)

    def test_fractions_non_decreasing_end_at_one(self, constant_model):
        noisy = model_trajectories(constant_model, 2, seed=1, noise=0.01)
        series = ecdf_residuals(constant_model, noisy)
        assert np.all(np.diff(series.fractions) > 0)
        assert series.fractions[-1] == 1.0
        assert np.all(np.diff(series.values) >= 0)

    def test_zero_position_trajectory_rejected(self, constant_model):
        trajs = model_trajectories(constant_model, 1, seed=2)
        trajs[0].states[:, 0] = 0.0
        with pytest.raises(ValueError):
            ecdf_residuals(constant_model, trajs)


class TestPredictionBenchmark:
    def test_every_cell_present_and_failures_recorded(self):
        # two training trajectories are too few for the per-step fit, so that
        # cell must fail while the rest of the run continues
        cfg = BenchConfig(
            scenarios=("ltv",),
            l_train=2,
            l_val=2,
            l_test=2,
            lambda_grid=(1e-3,),
            tvera_rows_cols=((3, 3),),
        )
        rows = run_prediction_benchmark(cfg)
        assert len(rows) == 6
        by_method = {r.method: r for r in rows}
        assert by_method["perstep"].error is not None
        assert by_method["cosmic"].error is None
        assert by_method["cosmic"].mean is not None

    def test_deterministic_under_master_seed(self):
        a = run_prediction_benchmark(SMALL)
        b = run_prediction_benchmark(SMALL)
        assert a == b

    def test_parallel_workers_match_sequential(self):
        a = run_prediction_benchmark(replace(SMALL, scenarios=("ltv", "nl")))
        b = run_prediction_benchmark(replace(SMALL, scenarios=("ltv", "nl"), jobs=2))
        assert a == b


class TestControlBenchmark:
    def test_rows_and_stats(self):
        rows = run_control_benchmark(SMALL)
        assert [r.controller for r in rows] == ["cosmic", "linearization", "lti"]
        for row in rows:
            assert row.error is None
            assert row.mean >= 0.0 and row.std >= 0.0 and row.rmse >= 0.0


class TestLambdaSweep:
    def test_smoothness_path_and_plateau(self):
        cfg = BenchConfig(scenarios=("ltv",), l_train=6, l_val=3, l_test=3)
        grid = (1e-3, 1e-1, 10.0, 1e3)
        rows = lambda_sweep("ltv", grid, cfg)
        smooth = [r.smoothness for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(smooth, smooth[1:]))
        assert all(r.tracking_rmse is not None for r in rows)

    def test_infinite_smoothing_matches_lti_controller(self):
        from ltvbench.bench import _scenario_data, _schedule, _tracking_stats
        from ltvbench.control import default_reference
        from ltvbench.datagen import Split
        from ltvbench.ident import CosmicConfig, cosmic_fit, fit_method

        cfg = BenchConfig(scenarios=("ltv",), l_train=6, l_val=3, l_test=3)
        spec, _, splits = _scenario_data("ltv", cfg)
        ref = default_reference(spec.horizon)

        def rmse_for(model):
            return _tracking_stats(spec, _schedule(model, ref), ref, cfg, "ltv")[2]

        plateau = rmse_for(cosmic_fit(splits[Split.TRAIN], CosmicConfig(lam=1e9)))
        lti = rmse_for(fit_method("lti", splits[Split.TRAIN]))
        assert plateau == pytest.approx(lti, rel=0.05)


class TestEmit:
    def test_run_bench_writes_deterministic_files(self, tmp_path):
        run_bench("control", SMALL, tmp_path / "a")
        run_bench("control", SMALL, tmp_path / "b")
        for name in ("table2.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_prediction_csv_shape(self, tmp_path):
        rows = run_prediction_benchmark(SMALL)
        write_prediction_csv(rows, tmp_path / "table1.csv")
        lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert lines[0].startswith("scenario,method,mean_loss")
        assert len(lines) == 1 + len(SMALL.scenarios) * 6

    def test_ecdf_csv_sorted(self, tmp_path):
        cfg = BenchConfig(
            scenarios=("ltv",), l_train=4, l_val=2, l_test=2,
            lambda_grid=(1e-3,), tvera_rows_cols=((3, 3),),
        )
        run_bench("ecdf", cfg, tmp_path)
        lines = (tmp_path / "ecdf_ltv.csv").read_text().strip().splitlines()[1:]
        by_method = {}
        for line in lines:
            method, value, fraction = line.split(",")
            by_method.setdefault(method, []).append(float(value))
        assert set(by_method) == {"cosmic", "tvera", "linearization"}
        for values in by_method.values():
            assert values == sorted(values)

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(ValueError):
            run_bench("nope", SMALL, tmp_path)


def test_ecdf_cosmic_dominates_realization_baseline():
    # tuned smoothed fit should sit far left of the realization baseline
    from ltvbench.bench import run_ecdf_suite

    cfg = BenchConfig(
        scenarios=("ltv",), l_train=8, l_val=4, l_test=4,
        lambda_grid=(1e-3, 1e-1), tvera_rows_cols=((3, 3),),
    )
    series = run_ecdf_suite(cfg)["ltv"]
    cosmic = series["cosmic"]
    tvera = series["tvera"]
    assert np.median(cosmic.values) < 0.1 * np.median(tvera.values)
    frac_cosmic = np.mean(cosmic.values <= 0.1)
    frac_tvera = np.mean(tvera.values <= 0.1)
    assert frac_cosmic > frac_tvera


def _count_calls(monkeypatch, module, name) -> list:
    """Record the first argument of every call: a spec's name, or a method."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(getattr(args[0], "name", args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _benchmark_modules() -> tuple:
    """``benchmarks/layers.py`` and ``benchmarks/workloads.py``, loaded from
    their files without writing bytecode next to them."""
    modules = []
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        for name in ("layers", "workloads"):
            spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCHMARKS / f"{name}.py")
            module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return tuple(modules)


class TestPipeline:
    """Every suite builds each scenario's data once, and only the suites that
    score the realization baseline build its experiments."""

    CFG = replace(SMALL, scenarios=("ltv", "nl"), l_train=4, l_val=2, l_test=2)

    @pytest.mark.parametrize(
        "suite, tvera_builds",
        [("prediction", 1), ("ecdf", 1), ("control", 0), ("lambda", 0)],
    )
    def test_one_dataset_build_per_scenario(self, monkeypatch, tmp_path, suite, tvera_builds):
        datasets = _count_calls(monkeypatch, bench, "build_dataset")
        experiments = _count_calls(monkeypatch, bench, "tvera_experiments")
        run_bench(suite, self.CFG, tmp_path)
        # the lambda sweep runs on the first scenario only
        names = list(self.CFG.scenarios[:1] if suite == "lambda" else self.CFG.scenarios)
        assert datasets == names
        assert experiments == names * tvera_builds

    def test_benchmark_call_paths_resolve(self):
        # the benchmark traces these bindings; each must still name a function
        layers, workloads = _benchmark_modules()
        for module, attr, _, _ in layers.call_paths(workloads):
            if isinstance(module, str):
                module = importlib.import_module(module)
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_one_simulate_call_per_trajectory(self, monkeypatch):
        # the benchmark counts simulate calls as trajectories
        calls = _count_calls(monkeypatch, datagen, "simulate")
        spec = scenario("nl")
        splits = datagen.build_dataset(
            spec, datagen.default_excitations(spec.horizon), counts=(3, 2, 2), n_free=1
        )
        assert calls == ["nl"] * sum(len(ds) for ds in splits.values()) == ["nl"] * 9
        calls.clear()
        assert len(datagen.tvera_experiments(spec, n_free=2, n_forced=3)) == len(calls) == 5

    def test_one_fit_call_per_grid_point(self, monkeypatch):
        # the benchmark counts fit_method calls as fits; scoring is batched
        fits = _count_calls(monkeypatch, tuning, "fit_method")
        scored = _count_calls(monkeypatch, tuning, "trajectory_prediction_loss")
        _, _, splits = bench._scenario_data("ltv", self.CFG)
        grid = bench.method_grid("ltvmodels", self.CFG)
        tuning.tune("ltvmodels", grid, splits[Split.TRAIN], splits[Split.VALIDATION])
        assert fits == ["ltvmodels"] * len(grid) == ["ltvmodels"] * 3
        assert len(scored) == 1 and len(scored[0]) == len(grid)

    def test_ecdf_parallel_workers_write_same_bytes(self, tmp_path):
        run_bench("ecdf", self.CFG, tmp_path / "seq")
        written = run_bench("ecdf", replace(self.CFG, jobs=2), tmp_path / "par")
        assert written == ["ecdf_ltv.csv", "ecdf_nl.csv"]
        for name in written:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_programming_error_fails_the_prediction_run(monkeypatch):
    # a TypeError is a bug, not an error cell
    def broken_fit(*args, **kwargs):
        raise TypeError("bug in a fit")

    monkeypatch.setattr(tuning, "fit_method", broken_fit)
    monkeypatch.setattr(bench, "fit_method", broken_fit)
    with pytest.raises(TypeError, match="bug in a fit"):
        run_prediction_benchmark(SMALL)
