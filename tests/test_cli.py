import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ltvbench
from ltvbench.bench import BenchConfig
from ltvbench.cli import build_parser, main
from ltvbench.datagen import load_dataset
from ltvbench.models import load_model


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
         ("ltv,bogus", "unknown scenario 'bogus'")],
        ids=["repeated", "two-spellings", "unknown"],
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
            assert run(*args, " , ", "--out", str(tmp_path / "blank")) == 2
            assert "no lambda values in ' , '" in capsys.readouterr().err
        assert not (tmp_path / "blank").exists()


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


def test_size_defaults_come_from_bench_config():
    cfg = BenchConfig()
    parse = build_parser().parse_args
    ds = parse(["dataset", "--scenario", "ltv", "--seed", "1", "--out", "d"])
    assert (ds.l_train, ds.l_val, ds.l_test, ds.n_free) == (cfg.l_train, cfg.l_val, cfg.l_test, cfg.n_free)
    assert (ds.noise_var, ds.input_noise_var) == (cfg.noise_var, cfg.input_noise_var)
    assert (ds.n_free_experiments, ds.n_forced_experiments) == (cfg.tvera_free, cfg.tvera_forced)
    bn = parse(["bench", "--suite", "control", "--seed", "1", "--out", "b"])
    assert (bn.l_train, bn.l_val, bn.l_test) == (cfg.l_train, cfg.l_val, cfg.l_test)
    assert (bn.noise_var, bn.jobs) == (cfg.noise_var, cfg.jobs)


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
