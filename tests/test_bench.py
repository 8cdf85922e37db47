import importlib
import importlib.util
import json
import math
import pickle
import re
import sys
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ltvbench.bench as bench
import ltvbench.cli as cli
import ltvbench.datagen as datagen
import ltvbench.ident.cosmic as cosmic
import ltvbench.ident.tuning as tuning
from ltvbench.control import GainSchedule, closed_loop, default_reference, tracking_errors
from ltvbench.datagen import Split
from ltvbench.dynamics import Trajectory, ground_truth_ltv, scenario
from conftest import model_trajectories
from ltvbench.bench import (
    BenchConfig,
    ecdf_residuals,
    run_bench,
    write_ecdf_csv,
    write_prediction_csv,
)
from ltvbench.exceptions import (
    DataFormatError,
    ExcitationError,
    InputError,
    InstabilityError,
    IntegrationError,
    LtvBenchError,
    NumericalError,
    RealizationError,
    SynthesisError,
    TuningError,
)
from ltvbench.toolchain import openblas_symbol

BLAS_THREAD_GETTER = "scipy_openblas_get_num_threads64_"


def blas_threads(name, cfg) -> int:
    """The thread count of numpy's bundled OpenBLAS in the calling process."""
    return openblas_symbol(BLAS_THREAD_GETTER)()


SMALL = BenchConfig(
    scenarios=("ltv",),
    l_train=6,
    l_val=3,
    l_test=3,
    lambda_grid=(1e-3, 1e-1, 10.0),
    master_seed=13,
)


def suite_results(suite, cfg) -> list:
    """Each scenario's results (tables' rows, ECDF series, sweep rows), as
    ``run_bench`` gathers them."""
    return bench._map_scenarios(partial(bench._scenario_results, suite), cfg)


def suite_rows(suite, cfg, table) -> list:
    """One table's rows over every scenario, in ``run_bench``'s order."""
    return [row for result in suite_results(suite, cfg) for row in result[table]]


def written_ecdf(values_by_method, path) -> dict:
    """method -> (values, fractions), read back from ``write_ecdf_csv``'s file."""
    write_ecdf_csv(values_by_method, path)
    columns = {}
    for line in path.read_text().splitlines()[1:]:
        method, value, fraction = line.split(",")
        columns.setdefault(method, ([], []))
        columns[method][0].append(float(value))
        columns[method][1].append(float(fraction))
    return columns


# the paper's protocol, as BenchConfig() gives it and manifest.json records it
PROTOCOL = {
    "scenarios": ("ltv", "nl", "nld", "inst-reconfig", "mixed-reconfig"),
    "master_seed": 0,
    "l_train": 20,
    "l_val": 8,
    "l_test": 8,
    "n_free": 2,
    "noise_var": 1e-6,
    "input_noise_var": 0.01,
    "lambda_grid": (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0, 1e4),
    "tvera_rows_cols": ((2, 2), (3, 3), (4, 4)),
    "tvera_free": 4,
    "tvera_forced": 10,
    "initial_conditions": ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (2.0, 0.0)),
    "jobs": 1,
}
FIXED = ("n_free", "input_noise_var", "tvera_rows_cols", "tvera_free", "tvera_forced",
         "initial_conditions")


class TestConfig:
    def test_defaults_are_the_protocol(self):
        cfg = BenchConfig()
        assert asdict(cfg) == PROTOCOL
        assert {name: getattr(cfg, name) for name in FIXED} == {n: PROTOCOL[n] for n in FIXED}
        settable = [f.name for f in fields(BenchConfig) if f.init]
        assert settable == [
            "scenarios", "master_seed", "l_train", "l_val", "l_test", "noise_var", "lambda_grid",
            "jobs",
        ]

    @pytest.mark.parametrize("name", FIXED)
    def test_fixed_values_are_not_settable(self, name):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            BenchConfig(**{name: PROTOCOL[name]})
        with pytest.raises(ValueError, match=f"field {name} is declared with init=False"):
            replace(SMALL, **{name: PROTOCOL[name]})


class TestEcdf:
    def test_perfect_model_all_zero(self, constant_model, tmp_path):
        from conftest import rollout_model

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
        (values,) = ecdf_residuals([constant_model], trajs)
        assert_allclose(values, 0.0)
        n = len(values)
        written, fractions = written_ecdf({"cosmic": values}, tmp_path / "ecdf.csv")["cosmic"]
        assert written == values.tolist()
        assert fractions == (np.arange(1, n + 1) / n).tolist()

    def test_fractions_non_decreasing_end_at_one(self, constant_model, tmp_path):
        noisy = model_trajectories(constant_model, 2, seed=1, noise=0.01)
        values = ecdf_residuals([constant_model, constant_model], noisy)
        assert np.array_equal(values[0], values[1])
        series = written_ecdf({"cosmic": values[0], "lti": values[1][:7]}, tmp_path / "ecdf.csv")
        assert list(series) == ["cosmic", "lti"]
        for written, fractions in series.values():
            assert np.all(np.diff(fractions) > 0)
            assert fractions[-1] == 1.0
            assert np.all(np.diff(written) >= 0)

    def test_zero_position_trajectory_rejected(self, constant_model):
        trajs = model_trajectories(constant_model, 1, seed=2)
        trajs[0].states[:, 0] = 0.0
        with pytest.raises(ValueError):
            ecdf_residuals([constant_model], trajs)


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
        )
        rows = suite_rows("prediction", cfg, "table1")
        assert len(rows) == 6
        by_method = {r.method: r for r in rows}
        assert by_method["perstep"].error is not None
        assert by_method["cosmic"].error is None
        assert by_method["cosmic"].mean is not None

    def test_scoring_error_is_recorded_on_every_fitted_cell(self, monkeypatch):
        # the fitted models are scored together, so they fail together; a
        # method without a model keeps its own error
        real = bench.fit_method

        def fit(method, *args):
            if method == "perstep":
                raise ExcitationError("too few trajectories")
            return real(method, *args)

        def unscorable(models, data):
            assert len(models) == 5
            raise NumericalError("non-finite rollout")

        monkeypatch.setattr(bench, "fit_method", fit)
        monkeypatch.setattr(bench, "per_trajectory_losses", unscorable)
        rows = {r.method: r for r in suite_rows("prediction", SMALL, "table1")}
        assert rows.pop("perstep").error == "ExcitationError: too few trajectories"
        assert [r.error for r in rows.values()] == ["NumericalError: non-finite rollout"] * 5
        assert all(r.mean is None and r.n_test == 0 and r.best_params == {} for r in rows.values())

    def test_deterministic_under_master_seed(self):
        a = suite_rows("prediction", SMALL, "table1")
        b = suite_rows("prediction", SMALL, "table1")
        assert a == b

    def test_parallel_workers_match_sequential(self):
        a = suite_rows("prediction", replace(SMALL, scenarios=("ltv", "nl")), "table1")
        b = suite_rows("prediction", replace(SMALL, scenarios=("ltv", "nl"), jobs=2), "table1")
        assert a == b

    def test_each_parallel_worker_runs_one_blas_thread(self):
        if openblas_symbol(BLAS_THREAD_GETTER) is None:
            pytest.skip("no bundled OpenBLAS with a thread count to read")
        cfg = replace(SMALL, scenarios=("ltv", "nl"), jobs=2)
        assert bench._map_scenarios(blas_threads, cfg) == [1, 1]


class TestControlBenchmark:
    def test_rows_and_stats(self):
        rows = suite_rows("control", SMALL, "table2")
        assert [r.controller for r in rows] == ["cosmic", "linearization", "lti"]
        for row in rows:
            assert row.error is None
            assert row.mean >= 0.0 and row.std >= 0.0 and row.rmse >= 0.0

    def test_failed_schedule_is_only_its_own_row(self, monkeypatch):
        # each controller's schedule is its own: a failed feedforward of the
        # lti model is its row's error, and the other rows are as without it
        clean = suite_rows("control", SMALL, "table2")
        real = bench.feedforward

        def feedforward(model, ref):
            if model.method == "lti":
                raise SynthesisError("feedforward at step 3: B(k) is rank-deficient")
            return real(model, ref)

        monkeypatch.setattr(bench, "feedforward", feedforward)
        rows = suite_rows("control", SMALL, "table2")
        assert [r.controller for r in rows] == ["cosmic", "linearization", "lti"]
        assert rows[2] == replace(
            clean[2], mean=None, std=None, rmse=None,
            error="SynthesisError: feedforward at step 3: B(k) is rank-deficient",
        )
        assert rows[:2] == clean[:2]

    def test_guard_trip_pools_the_partial_run(self):
        # destabilizing gains trip the guard from every initial condition; the
        # errors up to each trip are pooled, each run's rms skips its error at
        # t=0 (four of the five x0 are off the reference there) and the row is
        # unstable.  The ltv plant draws no noise, so the runs' seeds do not
        # matter.
        spec = scenario("ltv")
        ref = default_reference(spec.horizon)
        n = spec.n_steps
        sched = GainSchedule(K=np.full((n, 1, 2), -20.0), u_ff=np.zeros((n, 1)))
        runs = []
        for x0 in SMALL.initial_conditions:
            with pytest.raises(InstabilityError) as trip:
                closed_loop(spec, sched, ref, np.array(x0))
            partial = Trajectory(trip.value.times, trip.value.states, trip.value.inputs)
            runs.append(tracking_errors(partial, ref))
            assert len(runs[-1]) < n + 1
        assert [errors[0] for errors in runs] == [0.0, 2.0, 1.0, 1.0, 1.0]
        mean, std, rmse, unstable = bench._tracking_stats(spec, sched, ref, SMALL, "ltv")
        assert unstable
        pooled = np.concatenate(runs)
        assert (mean, std) == (np.mean(pooled), np.std(pooled))
        rms = [math.sqrt(float(np.mean(errors[1:] ** 2))) for errors in runs]
        assert rmse == float(np.mean(rms)) / n


class TestLambdaSweep:
    def test_smoothness_path_and_plateau(self):
        # the sweep keeps the grid's order, which tune does not
        cfg = BenchConfig(
            scenarios=("ltv",), l_train=6, l_val=3, l_test=3, lambda_grid=(1e-3, 10.0, 1e-1, 1e3),
        )
        rows = suite_results("all", cfg)[0]["sweep"]
        assert [r.lam for r in rows] == list(cfg.lambda_grid)
        rows.sort(key=lambda r: r.lam)
        smooth = [r.smoothness for r in rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(smooth, smooth[1:]))
        assert all(r.tracking_rmse is not None for r in rows)

    def test_infinite_smoothing_matches_lti_controller(self):
        from ltvbench.bench import _scenario_data, _tracking_stats
        from ltvbench.control import (
            default_reference,
            default_weights,
            feedforward,
            lqr_ltv,
            with_feedforward,
        )
        from ltvbench.datagen import Split
        from ltvbench.ident import cosmic_fit, fit_method

        cfg = BenchConfig(scenarios=("ltv",), l_train=6, l_val=3, l_test=3)
        spec, _, splits = _scenario_data("ltv", cfg)
        ref = default_reference(spec.horizon)

        def rmse_for(model):
            sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
            return _tracking_stats(spec, sched, ref, cfg, "ltv")[2]

        plateau = rmse_for(cosmic_fit(splits[Split.TRAIN], lam=1e9))
        lti = rmse_for(fit_method("lti", splits[Split.TRAIN]))
        assert plateau == pytest.approx(lti, rel=0.05)


class TestEmit:
    def test_run_bench_writes_deterministic_files(self, tmp_path):
        run_bench("control", SMALL, tmp_path / "a")
        run_bench("control", SMALL, tmp_path / "b")
        for name in ("table2.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_prediction_csv_shape(self, tmp_path):
        rows = suite_rows("prediction", SMALL, "table1")
        write_prediction_csv(rows, tmp_path / "table1.csv")
        lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
        assert lines[0].startswith("scenario,method,mean_loss")
        assert len(lines) == 1 + len(SMALL.scenarios) * 6

    def test_ecdf_csv_sorted(self, tmp_path):
        cfg = BenchConfig(
            scenarios=("ltv",), l_train=4, l_val=2, l_test=2, lambda_grid=(1e-3,),
        )
        run_bench("all", cfg, tmp_path)
        lines = (tmp_path / "ecdf_ltv.csv").read_text().strip().splitlines()[1:]
        by_method = {}
        for line in lines:
            method, value, fraction = line.split(",")
            by_method.setdefault(method, []).append(float(value))
        assert set(by_method) == {"cosmic", "tvera", "linearization"}
        for values in by_method.values():
            assert values == sorted(values)

    def test_unknown_suite(self, tmp_path):
        # ``all`` writes what the ecdf and lambda suites wrote
        for suite in ("nope", "ecdf", "lambda"):
            with pytest.raises(ValueError, match="unknown suite"):
                run_bench(suite, SMALL, tmp_path / suite)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lambda_grid", (1e-3, -1.0), "lambda values must be positive and finite"),
            ("lambda_grid", (math.nan,), "lambda values must be positive and finite"),
            ("lambda_grid", (), "lambda values must be positive and finite, got ()"),
            ("lambda_grid", (0.1, 1.0, 1e-1), "lambda values given more than once: 0.1"),
            ("master_seed", -1, "master_seed must be a non-negative integer"),
            ("master_seed", 7.5, "master_seed must be a non-negative integer, got 7.5"),
            ("jobs", 1.5, "jobs must be at least 1 and an integer, got 1.5"),
        ],
    )
    def test_bad_config_rejected_before_any_work(
        self, tmp_path, monkeypatch, field, value, message
    ):
        built = []
        monkeypatch.setattr(bench, "_scenario_data", lambda *args: built.append(args))
        with pytest.raises(InputError, match=re.escape(message)):
            run_bench("prediction", replace(SMALL, **{field: value}), tmp_path / "out")
        assert not built and not (tmp_path / "out").exists()

    def test_manifest_records_the_toolchain(self, tmp_path):
        from ltvbench.toolchain import toolchain

        run_bench("control", SMALL, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["toolchain"] == toolchain()
        assert set(manifest["toolchain"]) == {"python", "numpy", "openblas_core_numpy"}

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_bench("control", replace(SMALL, jobs=jobs), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_scenarios_are_known_by_their_canonical_names(self, tmp_path):
        # the seed, the row labels and the ECDF file name come from the
        # canonical name, so a spelling of it runs the same data
        cfg = replace(SMALL, lambda_grid=(1e-3,))
        run_bench("all", cfg, tmp_path / "canonical")
        run_bench("all", replace(cfg, scenarios=(" LTV ",)), tmp_path / "spelled")
        for name in ("table1.csv", "table2.csv", "ecdf_ltv.csv", "lambda_sweep.csv", "manifest.json"):
            assert (tmp_path / "spelled" / name).read_bytes() == (
                tmp_path / "canonical" / name
            ).read_bytes()
        assert bench.scenario_names(("Inst_Reconfig", "nl")) == ("inst-reconfig", "nl")

    @pytest.mark.parametrize(
        "names, message",
        [
            (("ltv", "ltv"), "more than once: ltv"),
            (("inst-reconfig", "nl", "Inst_Reconfig"), "more than once: inst-reconfig"),
            (("ltv", "bogus"), "unknown scenario 'bogus'"),
        ],
        ids=["repeated", "two-spellings", "unknown"],
    )
    def test_bad_scenario_lists_fail_before_any_work(self, tmp_path, monkeypatch, names, message):
        built = []
        monkeypatch.setattr(bench, "_scenario_data", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=message):
            run_bench("control", replace(SMALL, scenarios=names), tmp_path / "out")
        assert not built
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", bench.SUITES)
    def test_empty_scenario_list_fails_before_any_work(self, tmp_path, suite):
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(InputError, match="need at least one scenario"):
            run_bench(suite, replace(SMALL, scenarios=()), out)
        assert list(out.iterdir()) == []


def test_ecdf_cosmic_dominates_realization_baseline():
    # tuned smoothed fit should sit far left of the realization baseline
    cfg = BenchConfig(
        scenarios=("ltv",), l_train=8, l_val=4, l_test=4, lambda_grid=(1e-3, 1e-1),
    )
    values = suite_results("all", cfg)[0]["ecdf"]
    cosmic = values["cosmic"]
    tvera = values["tvera"]
    assert np.median(cosmic) < 0.1 * np.median(tvera)
    frac_cosmic = np.mean(cosmic <= 0.1)
    frac_tvera = np.mean(tvera <= 0.1)
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
    """Every suite builds each scenario's data once and tunes each method
    once, and only the suites that score the realization baseline build its
    experiments."""

    CFG = replace(SMALL, scenarios=("ltv", "nl"), l_train=4, l_val=2, l_test=2)

    @pytest.mark.parametrize(
        "suite, tvera_builds",
        [("prediction", 1), ("control", 0), ("all", 1)],
    )
    def test_one_dataset_build_per_scenario(self, monkeypatch, tmp_path, suite, tvera_builds):
        datasets = _count_calls(monkeypatch, bench, "build_dataset")
        experiments = _count_calls(monkeypatch, bench, "tvera_experiments")
        tunes = _count_calls(monkeypatch, bench, "tune")
        run_bench(suite, self.CFG, tmp_path)
        names = list(self.CFG.scenarios)
        assert datasets == names
        assert experiments == names * tvera_builds
        # the ECDFs and the sweep read the tuned models of table1 and table2
        tuned = ["cosmic"] if suite == "control" else ["tvera", "ltvmodels", "cosmic-single", "cosmic"]
        assert tunes == tuned * len(names)

    def test_benchmark_call_paths_resolve(self):
        # the benchmark traces these bindings; each must still name a function
        layers, workloads = _benchmark_modules()
        for module, attr, _, _ in layers.call_paths(workloads):
            if isinstance(module, str):
                module = importlib.import_module(module)
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    def test_benchmark_config_reads_resolve(self):
        # the workloads read these BenchConfig attributes; each must still
        # resolve, at the counts the benchmark traces, with no workload run
        _, workloads = _benchmark_modules()
        assert workloads.Prediction(1).expected_counts() == {
            "dynamics.simulate": 270, "ident.fit": 155, "control.closed_loop": 0,
        }
        assert workloads.Control(1).expected_counts() == {
            "dynamics.simulate": 200, "ident.fit": 50, "control.closed_loop": 75,
        }
        cfg = workloads.BenchConfig(master_seed=workloads.MASTER_SEED, jobs=1)
        for name in ("input_noise_var", "noise_var", "initial_conditions", "lambda_grid"):
            assert hasattr(cfg, name), f"LongRecord reads BenchConfig.{name}"

    def test_one_simulate_call_per_trajectory(self, monkeypatch):
        # the benchmark counts simulate calls as trajectories
        calls = _count_calls(monkeypatch, datagen, "simulate")
        spec = scenario("nl")
        splits = datagen.build_dataset(
            spec, datagen.default_excitations(spec.horizon, 0.01), (3, 2, 2), 1e-6, n_free=1
        )
        assert calls == ["nl"] * sum(len(ds) for ds in splits.values()) == ["nl"] * 9
        calls.clear()
        assert len(datagen.tvera_experiments(spec, 2, 3, 1e-6)) == len(calls) == 5

    @pytest.mark.parametrize("method", ["cosmic", "cosmic-single"])
    def test_one_solve_per_cosmic_fit(self, monkeypatch, method):
        # the benchmark traces this binding as ident.tridiag and counts its
        # blocks, N per fit
        fits = _count_calls(monkeypatch, tuning, "fit_method")
        solves = _count_calls(monkeypatch, cosmic, "solve_block_tridiag")
        spec, _, splits = bench._scenario_data("ltv", self.CFG)
        grid = bench.method_grid(method, self.CFG)
        tuning.tune(method, grid, splits[Split.TRAIN], splits[Split.VALIDATION])
        assert len(fits) == len(solves) == len(grid) == 3
        assert [len(gram) for gram in solves] == [spec.n_steps] * len(grid)

    def test_one_fit_call_per_grid_point(self, monkeypatch):
        # the benchmark counts fit_method calls as fits; scoring is batched
        fits = _count_calls(monkeypatch, tuning, "fit_method")
        scored = _count_calls(monkeypatch, tuning, "trajectory_prediction_loss")
        _, _, splits = bench._scenario_data("ltv", self.CFG)
        grid = bench.method_grid("ltvmodels", self.CFG)
        tuning.tune("ltvmodels", grid, splits[Split.TRAIN], splits[Split.VALIDATION])
        assert fits == ["ltvmodels"] * len(grid) == ["ltvmodels"] * 3
        assert len(scored) == 1 and len(scored[0]) == len(grid)

    @pytest.mark.parametrize(
        "suite, controllers, tuned, fits",
        [
            # per scenario: the models given a gain recursion, the tuned
            # methods that share a cosmic set-up, and the fit calls that
            # tune (grid points: 3 lambdas for each of three methods and
            # tvera's 3 shapes) and bench (untuned methods) make
            ("prediction", [], ["cosmic-single", "cosmic"], (12, 1)),
            ("control", ["cosmic", "linearization", "lti"], ["cosmic"], (3, 1)),
            ("all", ["cosmic", "linearization", "lti"], ["cosmic-single", "cosmic"], (12, 2)),
        ],
    )
    def test_shared_work_per_scenario(self, monkeypatch, tmp_path, suite, controllers, tuned, fits):
        recursions = _count_calls(monkeypatch, bench, "lqr_ltv")
        setups = []
        for method in ("cosmic", "cosmic-single"):
            data, setup, fit = tuning.METHODS[method]

            def counted(train, method=method, setup=setup):
                setups.append(method)
                return setup(train)

            monkeypatch.setitem(tuning.METHODS, method, (data, counted, fit))
        tuned_fits = _count_calls(monkeypatch, tuning, "fit_method")
        bench_fits = _count_calls(monkeypatch, bench, "fit_method")
        scored = _count_calls(monkeypatch, bench, "per_trajectory_losses")
        ecdf_rollouts = _count_calls(monkeypatch, bench, "rollout_residuals")
        run_bench(suite, self.CFG, tmp_path)
        scenarios = len(self.CFG.scenarios)
        # one recursion per model; all adds the first scenario's sweep points,
        # after its controllers
        sweep = list(self.CFG.lambda_grid) if suite == "all" else []
        assert [model.method for model in recursions] == (
            controllers + ["cosmic"] * len(sweep) + controllers * (scenarios - 1)
        )
        swept = recursions[len(controllers):len(controllers) + len(sweep)]
        assert [model.hyperparams["lam"] for model in swept] == sweep
        assert setups == tuned * scenarios
        assert (len(tuned_fits), len(bench_fits)) == (fits[0] * scenarios, fits[1] * scenarios)
        # table1 scores the six models in one stacked rollout, the ECDFs
        # their three in another
        assert [len(models) for models in scored] == [6] * scenarios * (suite != "control")
        assert [len(models) for models in ecdf_rollouts] == [3] * scenarios * (suite == "all")

    def test_all_parallel_workers_write_same_bytes(self, tmp_path):
        run_bench("all", self.CFG, tmp_path / "seq")
        written = run_bench("all", replace(self.CFG, jobs=2), tmp_path / "par")
        assert written == [
            "table1.csv", "table2.csv", "ecdf_ltv.csv", "ecdf_nl.csv", "lambda_sweep.csv"
        ]
        for name in written:
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
        manifest = json.loads((tmp_path / "par" / "manifest.json").read_text())
        assert (manifest["suite"], manifest["files"]) == ("all", written)

    def test_scenario_bytes_do_not_depend_on_the_scenario_list(self, tmp_path):
        # each scenario draws from its own streams: listing the scenarios in
        # the other order moves its rows, not their bytes (the sweep follows
        # the first scenario, by design)
        forward, backward = tmp_path / "forward", tmp_path / "backward"
        run_bench("all", self.CFG, forward)
        run_bench("all", replace(self.CFG, scenarios=self.CFG.scenarios[::-1]), backward)
        for table in ("table1.csv", "table2.csv"):
            lines = {run: (run / table).read_text().splitlines() for run in (forward, backward)}
            assert lines[forward][0] == lines[backward][0]
            for name in self.CFG.scenarios:
                rows = {run: [row for row in lines[run] if row.startswith(f"{name},")] for run in lines}
                assert rows[forward] and rows[forward] == rows[backward]
        for name in self.CFG.scenarios:
            ecdf = f"ecdf_{name}.csv"
            assert (forward / ecdf).read_bytes() == (backward / ecdf).read_bytes()

    def test_all_tables_match_the_single_suites(self, tmp_path):
        run_bench("all", self.CFG, tmp_path / "all")
        for suite, table in (("prediction", "table1.csv"), ("control", "table2.csv")):
            assert run_bench(suite, self.CFG, tmp_path / suite) == [table]
            assert (tmp_path / "all" / table).read_bytes() == (tmp_path / suite / table).read_bytes()

    @pytest.mark.parametrize("fault", ["sweep point", "sweep gains", "ecdf model"])
    def test_failed_sweep_point_or_ecdf_model_fails_the_run(self, monkeypatch, tmp_path, fault):
        # table1 and table2 record each failure in a cell; the sweep and the
        # ECDFs have no cell to record it in, so the all run fails and writes
        # nothing
        if fault == "sweep point":
            real = tuning.fit_method

            def fit(method, data, params):
                if method == "cosmic" and params["lam"] == self.CFG.lambda_grid[1]:
                    raise NumericalError("singular system")
                return real(method, data, params)

            monkeypatch.setattr(tuning, "fit_method", fit)
            error, match = TuningError, "lambda sweep point lam=0.1 failed to fit: singular system"
        elif fault == "sweep gains":
            real = bench.lqr_ltv

            def lqr(model, weights):
                if model.hyperparams.get("lam") == self.CFG.lambda_grid[1]:
                    raise SynthesisError("singular input-cost term at step 7")
                return real(model, weights)

            monkeypatch.setattr(bench, "lqr_ltv", lqr)
            error, match = SynthesisError, "singular input-cost term at step 7"
        else:
            def no_experiments(*args, **kwargs):
                raise ExcitationError("no experiments")

            monkeypatch.setattr(bench, "tvera_experiments", no_experiments)
            error, match = ExcitationError, "no experiments"
        run_bench("prediction", self.CFG, tmp_path / "prediction")
        assert (tmp_path / "prediction" / "table1.csv").is_file()
        with pytest.raises(error, match=match):
            run_bench("all", self.CFG, tmp_path / "all")
        assert not (tmp_path / "all").exists()


def test_programming_error_fails_the_prediction_run(monkeypatch, tmp_path):
    # a TypeError is a bug, not an error cell
    def broken_fit(*args, **kwargs):
        raise TypeError("bug in a fit")

    monkeypatch.setattr(tuning, "fit_method", broken_fit)
    monkeypatch.setattr(bench, "fit_method", broken_fit)
    with pytest.raises(TypeError, match="bug in a fit"):
        run_bench("prediction", SMALL, tmp_path)


# Bugs as numpy raises them: none is an LtvBenchError, so none may become a cell.
BUGS = {
    ValueError: lambda: np.ones(3) + np.ones(2),   # a failed broadcast
    TypeError: lambda: float(None),
    np.linalg.LinAlgError: lambda: np.linalg.inv(np.zeros((2, 2))),
}


@pytest.mark.parametrize("error", list(BUGS), ids=lambda error: error.__name__)
def test_a_bug_in_one_grid_point_fails_the_run(monkeypatch, tmp_path, error):
    # the bug is in one ltvmodels grid point, which only a suite reaches
    real = tuning.fit_method

    def fit(method, data, params):
        if method == "ltvmodels" and params["lam"] == SMALL.lambda_grid[1]:
            BUGS[error]()
        return real(method, data, params)

    monkeypatch.setattr(tuning, "fit_method", fit)
    with pytest.raises(error) as failed:
        run_bench("prediction", SMALL, tmp_path / "api")
    assert not isinstance(failed.value, LtvBenchError)
    argv = [
        "bench", "--suite", "prediction", "--seed", str(SMALL.master_seed), "--scenarios", "ltv",
        "--l-train", "6", "--l-val", "3", "--l-test", "3", "--lambda-grid", "1e-3,1e-1,10",
        "--out", str(tmp_path / "cli"),
    ]
    with pytest.raises(error):
        cli.main(argv)
    assert not (tmp_path / "api").exists() and not (tmp_path / "cli").exists()


RECORDED = (
    InputError, DataFormatError, ExcitationError, RealizationError, NumericalError,
    IntegrationError, SynthesisError, InstabilityError, TuningError,
)


def test_recorded_types_are_the_package_errors():
    def subclasses(cls):
        return set(cls.__subclasses__()).union(*map(subclasses, cls.__subclasses__()))

    assert subclasses(LtvBenchError) == set(RECORDED)
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("error", RECORDED, ids=lambda error: error.__name__)
def test_recorded_error_crosses_a_process_unchanged(error):
    # with --jobs above one a recorded error reaches its cell through pickle
    exc = error(7)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is error and bench._error(back) == bench._error(exc)


@pytest.mark.parametrize("error", RECORDED, ids=lambda error: error.__name__)
def test_each_recorded_type_becomes_its_cell_and_grid_row(monkeypatch, constant_model, error):
    exc = error("no model")
    cell = f"{error.__name__}: {exc}"

    def fail(*args, **kwargs):
        raise exc

    # _entry records the fit's error in the entry
    monkeypatch.setattr(bench, "fit_method", fail)
    entry = bench._entry("perstep", None, 0, {Split.TRAIN: None}, SMALL)
    assert entry.model is exc
    # table1: the failed entry is its own cell; a failed scoring is every fitted cell
    test = model_trajectories(constant_model, 2, seed=3)
    entries = {m: bench.Entry(constant_model) for m in bench.PREDICTION_METHODS}
    entries["perstep"] = entry
    rows = bench._prediction_rows("ltv", entries, test)
    assert [r.error for r in rows] == [cell if r.method == "perstep" else None for r in rows]
    monkeypatch.setattr(bench, "per_trajectory_losses", fail)
    assert [r.error for r in bench._prediction_rows("ltv", entries, test)] == [cell] * 6
    # table2: the failed entry is its own row
    spec = scenario("ltv")
    entries = {c: bench.Entry(ground_truth_ltv(spec)) for c in bench.CONTROLLERS}
    entries["lti"] = entry
    rows = bench._control_rows("ltv", spec, entries, SMALL)
    assert [r.error for r in rows] == [None, None, cell]
    # tune: a failed grid point is its row's error
    real = tuning.fit_method

    def fit(method, data, params):
        if params["lam"] == 1.0:
            raise exc
        return real(method, data, params)

    monkeypatch.setattr(tuning, "fit_method", fit)
    train = model_trajectories(constant_model, 5, seed=4, noise=1e-4)
    result = tuning.tune("cosmic", [{"lam": 0.1}, {"lam": 1.0}], train, test)
    assert [row.error for row in result.rows] == [None, str(exc)]
    assert result.best_params == {"lam": 0.1}
