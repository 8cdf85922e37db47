import csv
import json
import os
import subprocess
import sys
from inspect import signature
from pathlib import Path

import numpy as np
import pytest

import ltvbench
from ltvbench.bench import BenchConfig
from ltvbench.cli import build_parser, main
from ltvbench.datagen import load_dataset
from ltvbench.ident import METHODS
from ltvbench.models import load_model
from ltvbench.toolchain import toolchain


def run(*argv):
    return main(list(argv))


def dataset_args(out, seed="7"):
    return (
        "dataset", "--scenario", "ltv", "--seed", seed, "--out", str(out),
        "--l-train", "5", "--l-val", "3", "--l-test", "3",
    )


class TestDatasetCommand:
    def test_identical_reruns(self, tmp_path):
        assert run(*dataset_args(tmp_path / "d1")) == 0
        assert run(*dataset_args(tmp_path / "d2")) == 0
        for split in ("train", "validation", "test"):
            a = sorted((tmp_path / "d1" / split).iterdir())
            b = sorted((tmp_path / "d2" / split).iterdir())
            assert [p.name for p in a] == [p.name for p in b]
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()

    def test_loadable_output(self, tmp_path):
        run(*dataset_args(tmp_path / "d"))
        ds = load_dataset(tmp_path / "d" / "train")
        assert len(ds) == 5
        assert (tmp_path / "d" / "run_manifest.json").exists()

    def test_experiments_flag(self, tmp_path):
        code = run(
            "dataset", "--scenario", "ltv", "--seed", "3", "--out", str(tmp_path / "e"),
            "--experiments", "--n-free-experiments", "2", "--n-forced-experiments", "4",
        )
        assert code == 0
        assert len(load_dataset(tmp_path / "e")) == 6

    def test_negative_experiment_counts_are_two(self, tmp_path, capsys):
        # they once wrote "wrote 0 experiment trajectories" and exited 0
        code = run(
            "dataset", "--scenario", "ltv", "--seed", "3", "--out", str(tmp_path / "e"),
            "--experiments", "--n-free-experiments", "-1", "--n-forced-experiments", "-5",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench dataset: error: experiment counts must be >= 0")
        assert not (tmp_path / "e").exists()


class TestIdentifyAndTune:
    def test_identify_then_singleton_tune_identical_files(self, tmp_path):
        run(*dataset_args(tmp_path / "d"))
        data = tmp_path / "d" / "train"
        assert run(
            "identify", "--method", "cosmic", "--lambda", "1.0",
            "--data", str(data), "--out", str(tmp_path / "m1.json"),
        ) == 0
        assert run(
            "tune", "--method", "cosmic", "--grid", "1.0",
            "--train", str(data), "--validation", str(tmp_path / "d" / "validation"),
            "--out", str(tmp_path / "m2.json"),
        ) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        model = load_model(tmp_path / "m1.json")
        assert model.method == "cosmic"
        assert model.n_steps == 500

    def test_tune_writes_grid_report(self, tmp_path):
        run(*dataset_args(tmp_path / "d"))
        run(
            "tune", "--method", "cosmic", "--grid", "0.001,0.1",
            "--train", str(tmp_path / "d" / "train"),
            "--validation", str(tmp_path / "d" / "validation"),
            "--out", str(tmp_path / "m.json"),
        )
        report = (tmp_path / "m_grid.csv").read_text().strip().splitlines()
        assert report[0] == "params,loss,error"
        assert len(report) == 3
        with open(tmp_path / "m_grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [json.loads(row["params"]) for row in rows] == [{"lam": 0.001}, {"lam": 0.1}]
        assert all(float(row["loss"]) > 0 and row["error"] == "" for row in rows)

    def test_identify_tvera_counts_experiments_from_data(self, tmp_path):
        run(
            "dataset", "--scenario", "ltv", "--seed", "3", "--out", str(tmp_path / "e"),
            "--experiments", "--n-free-experiments", "2", "--n-forced-experiments", "6",
        )
        out = tmp_path / "m.json"
        args = ("identify", "--method", "tvera", "--data", str(tmp_path / "e"), "--out", str(out))
        assert run(*args, "--hankel-rows", "2", "--hankel-cols", "2") == 0
        model = load_model(out)
        assert model.hyperparams == {"hankel_rows": 2, "hankel_cols": 2, "order": 2}
        assert run(*args, "--n-free-experiments", "2") == 1

    @pytest.mark.parametrize("method", ["tvera", "perstep", "lti"])
    def test_grid_rejected_for_methods_without_lambda(self, tmp_path, capsys, method):
        code = run(
            "tune", "--method", method, "--grid", "1",
            "--train", str(tmp_path / "d"), "--validation", str(tmp_path / "d"),
            "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert repr(method) in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestControlCommand:
    def test_closed_loop_from_model_file(self, tmp_path):
        run(*dataset_args(tmp_path / "d"))
        run(
            "identify", "--method", "cosmic", "--lambda", "0.001",
            "--data", str(tmp_path / "d" / "train"), "--out", str(tmp_path / "m.json"),
        )
        code = run(
            "control", "--model", str(tmp_path / "m.json"), "--scenario", "ltv",
            "--x0", "1,0", "--seed", "3", "--out", str(tmp_path / "traj.csv"),
            "--gains-out", str(tmp_path / "gains.json"),
        )
        assert code == 0
        lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 501
        assert (tmp_path / "gains.json").exists()

    def test_linearization_model_shortcut(self, tmp_path):
        code = run(
            "control", "--model", "linearization", "--scenario", "nl",
            "--x0", "0,1", "--seed", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0

    def test_scenario_file_accepted(self, tmp_path):
        from ltvbench.dynamics import save_scenario, scenario

        save_scenario(scenario("nld"), tmp_path / "plant.json")
        code = run(
            "control", "--model", "linearization", "--scenario",
            str(tmp_path / "plant.json"), "--x0", "1,0", "--seed", "2",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0

    def test_model_time_step_must_match_scenario(self, tmp_path, capsys):
        from dataclasses import replace

        from ltvbench.dynamics import ground_truth_ltv, save_scenario, scenario
        from ltvbench.models import save_model

        save_model(ground_truth_ltv(scenario("ltv")), tmp_path / "m.json")   # dt 0.02, N 500
        save_scenario(replace(scenario("ltv"), dt=0.01, horizon=5.0), tmp_path / "plant.json")
        code = run(
            "control", "--model", str(tmp_path / "m.json"), "--scenario",
            str(tmp_path / "plant.json"), "--x0", "1,0", "--seed", "2",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench control: error:")
        assert "0.02" in err and "0.01" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("p, q", [(2, 2), (3, 1)], ids=["two-inputs", "three-states"])
    def test_model_must_fit_the_plant(self, tmp_path, capsys, p, q):
        from ltvbench.models import LtvModel, save_model

        model = LtvModel.from_constant(0.5 * np.eye(p), np.ones((p, q)), 500, 0.02)
        save_model(model, tmp_path / "m.json")
        code = run(
            "control", "--model", str(tmp_path / "m.json"), "--scenario", "ltv",
            "--x0", "1,0", "--seed", "2", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench control: error:")
        assert f"p={p} and q={q}" in err
        assert not (tmp_path / "t.csv").exists()


class TestBenchCommand:
    def test_control_suite_reruns_byte_identical(self, tmp_path):
        args = (
            "bench", "--suite", "control", "--seed", "5", "--scenarios", "ltv",
            "--l-train", "5", "--l-val", "3", "--l-test", "3",
        )
        assert run(*args, "--out", str(tmp_path / "b1")) == 0
        assert run(*args, "--out", str(tmp_path / "b2")) == 0
        assert (tmp_path / "b1" / "table2.csv").read_bytes() == (
            tmp_path / "b2" / "table2.csv"
        ).read_bytes()
        manifest = json.loads((tmp_path / "b1" / "manifest.json").read_text())
        assert manifest["suite"] == "control"
        assert manifest["config"]["master_seed"] == 5

    def test_all_suite(self, tmp_path):
        code = run(
            "bench", "--suite", "all", "--seed", "2", "--scenarios", "ltv",
            "--l-train", "5", "--l-val", "3", "--l-test", "3",
            "--lambda-grid", "0.001,0.1,10", "--out", str(tmp_path / "sweep"),
        )
        assert code == 0
        lines = (tmp_path / "sweep" / "lambda_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        written = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["files"]
        assert written == ["table1.csv", "table2.csv", "ecdf_ltv.csv", "lambda_sweep.csv"]

    @pytest.mark.parametrize("suite", ["ecdf", "lambda"])
    def test_retired_suites_are_usage_errors(self, tmp_path, capsys, suite):
        args = ("bench", "--suite", suite, "--seed", "1", "--out", str(tmp_path / "b"))
        assert run(*args) == 1
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        code = run(
            "bench", "--suite", "control", "--seed", "1", "--scenarios", "ltv",
            "--jobs", jobs, "--out", str(tmp_path / "b"),
        )
        assert code == 1
        assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "names, message",
        [("ltv,ltv", "more than once: ltv"), ("ltv,LTV", "more than once: ltv"),
         ("ltv,bogus", "unknown scenario 'bogus'"), ("", "unknown scenario ''")],
        ids=["repeated", "two-spellings", "unknown", "empty"],
    )
    def test_bad_scenario_lists_are_usage_errors(self, tmp_path, capsys, names, message):
        code = run(
            "bench", "--suite", "control", "--seed", "1", "--scenarios", names,
            "--out", str(tmp_path / "b"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: argument --scenarios:" in err and message in err
        assert not (tmp_path / "b").exists()

    def test_lambda_lists_skip_blank_entries(self, tmp_path, capsys):
        # tune --grid and bench --lambda-grid read their lists with one parser
        run(*dataset_args(tmp_path / "d"))
        assert run(
            "tune", "--method", "cosmic", "--grid", "1e-3,,1e-1,",
            "--train", str(tmp_path / "d" / "train"),
            "--validation", str(tmp_path / "d" / "validation"),
            "--out", str(tmp_path / "m.json"),
        ) == 0
        with open(tmp_path / "m_grid.csv", newline="") as fh:
            assert [json.loads(row["params"]) for row in csv.DictReader(fh)] == [
                {"lam": 0.001}, {"lam": 0.1}
            ]
        assert run(
            "bench", "--suite", "control", "--seed", "1", "--scenarios", "ltv",
            "--l-train", "5", "--l-val", "3", "--l-test", "3",
            "--lambda-grid", "1e-3,,1e-1", "--out", str(tmp_path / "b"),
        ) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["config"]["lambda_grid"] == [0.001, 0.1]
        # a list with no value in it is an error of either command
        tune_args = ("tune", "--method", "cosmic", "--train", "d", "--validation", "d")
        bench_args = ("bench", "--suite", "control", "--seed", "1")
        for args in (tune_args + ("--grid",), bench_args + ("--lambda-grid",)):
            for blank in (" , ", ""):
                assert run(*args, blank, "--out", str(tmp_path / "blank")) == 2
                assert f"no lambda values in {blank!r}" in capsys.readouterr().err
        assert not (tmp_path / "blank").exists()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_lambda_lists_reject_a_bad_value_before_any_work(self, tmp_path, capsys, value):
        # a non-positive lambda once ran as failed grid points that bench's
        # tables do not show
        run(*dataset_args(tmp_path / "d"))
        capsys.readouterr()
        grid = f"{value},1e-3,0.1"
        tune_args = (
            "tune", "--method", "ltvmodels", f"--grid={grid}", "--train",
            str(tmp_path / "d" / "train"), "--validation", str(tmp_path / "d" / "validation"),
        )
        bench_args = (
            "bench", "--suite", "prediction", "--seed", "7", "--scenarios", "ltv",
            "--l-train", "6", "--l-val", "3", "--l-test", "3", f"--lambda-grid={grid}",
        )
        for args in (tune_args, bench_args):
            assert run(*args, "--out", str(tmp_path / "out" / "m.json")) == 2
            err = capsys.readouterr().err
            assert f"error: lambda values must be positive and finite, got ({float(value)}," in err
        out = str(tmp_path / "out" / "m.json")
        assert run(*tune_args[:3], "--grid=1e-3,x", *tune_args[4:], "--out", out) == 2
        assert "cannot parse lambda values '1e-3,x'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lambda_lists_reject_a_repeated_value_before_any_work(self, tmp_path, capsys):
        # a repeated lambda would be fitted twice and written as two equal rows;
        # values are compared as floats, so 1e-1 repeats 0.1
        run(*dataset_args(tmp_path / "d"))
        capsys.readouterr()
        grid = "0.1,1e-3,1e-1"
        tune_args = (
            "tune", "--method", "cosmic", "--grid", grid, "--train",
            str(tmp_path / "d" / "train"), "--validation", str(tmp_path / "d" / "validation"),
        )
        bench_args = (
            "bench", "--suite", "all", "--seed", "7", "--scenarios", "ltv",
            "--l-train", "6", "--l-val", "3", "--l-test", "3", "--lambda-grid", grid,
        )
        for args in (tune_args, bench_args):
            assert run(*args, "--out", str(tmp_path / "out" / "m.json")) == 2
            assert "error: lambda values given more than once: 0.1\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lambda_list_starting_with_a_minus_needs_the_equals_form(self, tmp_path, capsys):
        # argparse reads "-1,1e-3" after a space as an option; such a list is
        # never valid, since every lambda must be positive
        tune_args = ("tune", "--method", "cosmic", "--train", "d", "--validation", "d", "--grid")
        bench_args = ("bench", "--suite", "control", "--seed", "1", "--lambda-grid")
        for args, option in ((tune_args, "--grid"), (bench_args, "--lambda-grid")):
            assert run(*args, "-1,1e-3", "--out", str(tmp_path / "out")) == 1
            assert f"argument {option}: expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run("identify", "--method", "bogus", "--data", "x", "--out", "y") == 1
        assert run("nonsense") == 1
        assert run("dataset", "--scenario", "ltv", "--out", "d") == 1   # --seed required

    def test_runtime_error_is_two_and_names_stage(self, tmp_path, capsys):
        code = run(
            "identify", "--method", "cosmic", "--lambda", "1.0",
            "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "identify" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "dataset", "control", "bench"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        # numpy takes no negative seed
        args = {
            "simulate": ("--scenario", "ltv"),
            "dataset": ("--scenario", "ltv"),
            "control": ("--model", "linearization", "--scenario", "ltv"),
            "bench": ("--suite", "control"),
        }[command]
        assert run(command, *args, "--seed", "-3", "--out", str(tmp_path / "o")) == 1
        assert "argument --seed: must be a non-negative integer, got '-3'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_model_of_another_length_is_two(self, tmp_path, capsys):
        from ltvbench.models import LtvModel, save_model

        model = LtvModel.from_constant(0.5 * np.eye(2), np.ones((2, 1)), 250, 0.02)
        save_model(model, tmp_path / "m.json")
        code = run(
            "control", "--model", str(tmp_path / "m.json"), "--scenario", "ltv",
            "--x0", "1,0", "--seed", "2", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench control: error: model covers 250 steps, the scenario 500")
        assert not (tmp_path / "t.csv").exists()

    def test_simulate_smoke(self, tmp_path):
        assert run(
            "simulate", "--scenario", "mixed-reconfig", "--x0", "0.5,0", "--input",
            "chirp", "--seed", "4", "--out", str(tmp_path / "sim.csv"),
        ) == 0
        assert (tmp_path / "sim.csv.manifest.json").exists()

    @pytest.mark.parametrize("name", ["ltv", "inst-reconfig"])
    def test_infinite_horizon_file_is_two(self, tmp_path, capsys, name):
        from ltvbench.dynamics import save_scenario, scenario

        path = tmp_path / "spec.json"
        save_scenario(scenario(name), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "horizon": float("inf")}))
        code = run(
            "simulate", "--scenario", str(path), "--seed", "1", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench simulate: error:") and "horizon" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("name", ["inst-reconfig", "mixed-reconfig"])
    def test_frames_off_the_step_grid_file_is_two(self, tmp_path, capsys, name):
        from ltvbench.dynamics import save_scenario, scenario

        path = tmp_path / "spec.json"
        save_scenario(scenario(name), path)
        # 2 s / 0.03 = 66.7 steps per frame; the horizon is 50 whole steps
        path.write_text(json.dumps({**json.loads(path.read_text()), "dt": 0.03, "horizon": 1.5}))
        code = run(
            "simulate", "--scenario", str(path), "--seed", "1", "--out", str(tmp_path / "s.csv")
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ltvbench simulate: error:") and "start on a step" in err
        assert not (tmp_path / "s.csv").exists()


def test_size_defaults_come_from_bench_config(tmp_path):
    # each dataset mode's manifest records the values it read, and only those
    cfg = BenchConfig()
    common = {"command", "scenario", "seed", "out", "experiments"}
    read = {}
    for mode, flag in (("chirp", ()), ("--experiments", ("--experiments",))):
        out = tmp_path / mode
        assert run("dataset", "--scenario", "ltv", "--seed", "1", "--out", str(out), *flag) == 0
        options = json.loads((out / "run_manifest.json").read_text())["options"]
        read[mode] = {k: v for k, v in options.items() if k not in common}
    assert read["chirp"] == {
        "l_train": cfg.l_train, "l_val": cfg.l_val, "l_test": cfg.l_test, "n_free": cfg.n_free,
        "noise_var": cfg.noise_var, "input_noise_var": cfg.input_noise_var,
    }
    assert read["--experiments"] == {
        "n_free_experiments": cfg.tvera_free, "n_forced_experiments": cfg.tvera_forced,
        "noise_var": cfg.noise_var,
    }
    bn = build_parser().parse_args(["bench", "--suite", "control", "--seed", "1", "--out", "b"])
    assert (bn.l_train, bn.l_val, bn.l_test) == (cfg.l_train, cfg.l_val, cfg.l_test)
    assert (bn.noise_var, bn.jobs) == (cfg.noise_var, cfg.jobs)


# identify's hyperparameter options, by the keyword argument each sets
FIT_OPTIONS = {"lam": "--lambda", "hankel_rows": "--hankel-rows", "hankel_cols": "--hankel-cols"}


def test_identify_without_options_takes_the_fits_defaults(tmp_path):
    # the CLI states no default of its own: a left-out option is not passed
    run(*dataset_args(tmp_path / "d"))
    run(
        "dataset", "--scenario", "ltv", "--seed", "3", "--out", str(tmp_path / "e"),
        "--experiments", "--n-free-experiments", "2", "--n-forced-experiments", "6",
    )
    for method, (_, _, fit) in METHODS.items():
        data = str(tmp_path / ("e" if method == "tvera" else "d/train"))
        defaults = {name: p.default for name, p in list(signature(fit).parameters.items())[1:]}
        explicit = [arg for name, v in defaults.items() for arg in (FIT_OPTIONS[name], str(v))]
        left_out, given = tmp_path / f"{method}-0.json", tmp_path / f"{method}-1.json"
        assert run("identify", "--method", method, "--data", data, "--out", str(left_out)) == 0
        assert run(
            "identify", "--method", method, *explicit, "--data", data, "--out", str(given)
        ) == 0
        assert left_out.read_bytes() == given.read_bytes(), method
        options = [
            json.loads(Path(f"{out}.manifest.json").read_text())["options"]
            for out in (left_out, given)
        ]
        assert not set(FIT_OPTIONS) & set(options[0])
        assert {k: v for k, v in options[1].items() if k in FIT_OPTIONS} == defaults


@pytest.mark.parametrize(
    "method, option",
    [
        (method, option)
        for method, takes in {
            "cosmic": ("--lambda",), "cosmic-single": ("--lambda",), "ltvmodels": ("--lambda",),
            "tvera": ("--hankel-rows", "--hankel-cols"), "perstep": (), "lti": (),
        }.items()
        for option in FIT_OPTIONS.values()
        if option not in takes
    ],
)
def test_identify_option_the_fit_does_not_take_is_a_usage_error(tmp_path, capsys, method, option):
    # it was once ignored: exit 0, and a manifest recording a value nothing used
    out = tmp_path / "m.json"
    data = str(tmp_path / "d")
    code = run("identify", "--method", method, option, "5", "--data", data, "--out", str(out))
    assert code == 1
    assert f"error: argument {option}: method {method!r} does not take" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (("identify", "--method", "perstep", "--lambda", "5", "--data", "d"),
         "argument --lambda: method 'perstep' does not take lam"),
        (("bench", "--suite", "control", "--seed", "1", "--jobs", "0"),
         "argument --jobs: must be at least 1, got 0"),
        (("bench", "--suite", "control", "--seed", "1", "--scenarios", "ltv,bogus"),
         "argument --scenarios: unknown scenario 'bogus'"),
        # each dataset mode once ignored the other's options: exit 0, and a
        # manifest recording values nothing read
        (("dataset", "--scenario", "ltv", "--seed", "1", "--experiments", "--l-train", "3",
          "--n-free", "9"),
         "argument --l-train: read in chirp mode only"),
        (("dataset", "--scenario", "ltv", "--seed", "1", "--experiments", "--input-noise-var",
          "0.5"),
         "argument --input-noise-var: read in chirp mode only"),
        (("dataset", "--scenario", "ltv", "--seed", "1", "--n-forced-experiments", "2",
          "--l-train", "2", "--l-val", "1", "--l-test", "1"),
         "argument --n-forced-experiments: read in --experiments mode only"),
    ],
    ids=["fit-option", "jobs", "scenarios", "chirp-option", "chirp-noise", "experiments-option"],
)
def test_post_parse_usage_errors_name_their_subcommand(tmp_path, capsys, argv, message):
    # as argparse's own errors do: the subcommand's usage, then its error line
    code = run(*argv, "--out", str(tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: ltvbench {argv[0]} ")
    assert f"\nltvbench {argv[0]}: error: {message}" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "dataset", "identify", "tune", "control"])
def test_cli_manifest_records_the_toolchain(tmp_path, command):
    run(*dataset_args(tmp_path / "d"))
    out = tmp_path / "o.json"
    args = {
        "simulate": ("--scenario", "ltv", "--seed", "1"),
        "dataset": ("--scenario", "ltv", "--seed", "1", "--l-train", "2", "--l-val", "1",
                    "--l-test", "1"),
        "identify": ("--method", "perstep", "--data", str(tmp_path / "d" / "train")),
        "tune": ("--method", "lti", "--train", str(tmp_path / "d" / "train"),
                 "--validation", str(tmp_path / "d" / "validation")),
        "control": ("--model", "linearization", "--scenario", "ltv", "--seed", "1"),
    }[command]
    assert run(command, *args, "--out", str(out)) == 0
    path = out / "run_manifest.json" if command == "dataset" else Path(f"{out}.manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["toolchain"] == toolchain()
    assert (manifest["command"], manifest["version"]) == (command, ltvbench.__version__)
    assert manifest["options"]["out"] == str(out)


def test_module_entry_point_runs_from_a_checkout():
    # ``python -m ltvbench`` needs only the package on the path, no install
    src = str(Path(ltvbench.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-m", "ltvbench", "--version"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"ltvbench {ltvbench.__version__}\n"
