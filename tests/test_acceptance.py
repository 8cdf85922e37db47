"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  The two benchmark suites run once per
session at full default configuration (each twice, for the byte-identity
check) through module-scoped fixtures; one run of the ``all`` suite writes
all eight artifacts, which are compared with the golden set and whose two
tables must match the single suites' byte for byte.
"""

import csv
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import model_trajectories
from golden import check_golden
from ltvbench.bench import BenchConfig, run_bench
from ltvbench.control import CostWeights, default_weights, lqr_ltv
from ltvbench.dynamics import BUILTIN_SCENARIOS, Trajectory, ground_truth_ltv, scenario
from ltvbench.ident import (
    CosmicConfig,
    LtvModelsConfig,
    cosmic_fit,
    cosmic_objective,
    lti_fit,
    ltvmodels_fit,
    perstep_ls_fit,
    solve_block_tridiag,
    trajectory_prediction_loss,
)
from ltvbench.ident.regression import _stack_all
from ltvbench.models import LtvModel


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


DEFAULT_CFG = BenchConfig(master_seed=7)


@pytest.fixture(scope="module")
def prediction_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("prediction")
    start = time.perf_counter()
    run_bench("prediction", DEFAULT_CFG, root / "a")
    elapsed = time.perf_counter() - start
    run_bench("prediction", DEFAULT_CFG, root / "b")
    return root / "a", root / "b", elapsed


@pytest.fixture(scope="module")
def control_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("control")
    run_bench("control", DEFAULT_CFG, root / "a")
    run_bench("control", DEFAULT_CFG, root / "b")
    return root / "a", root / "b"


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("all")
    run_bench("all", DEFAULT_CFG, out)
    return out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def random_trajectories(rng, n_steps, count, p=2, q=1):
    times = np.arange(n_steps + 1, dtype=float) * 0.02
    return [
        Trajectory(
            times=times,
            states=rng.normal(size=(n_steps + 1, p)),
            inputs=rng.normal(size=(n_steps, q)),
        )
        for _ in range(count)
    ]


def test_criterion_1_block_solver_oracle_and_scaling():
    with criterion(1, "block-tridiagonal solve matches dense solve, scales linearly"):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 10):
            trajs = random_trajectories(rng, n, count=5)
            lam = 0.8
            fit = cosmic_fit(trajs, CosmicConfig(lam=lam))
            v, xn = _stack_all(trajs)
            d = 3
            big = np.zeros((n * d, n * d))
            rhs = np.zeros((n * d, 2))
            lam_vec = np.full(n + 1, lam)
            lam_vec[0] = lam_vec[-1] = 0.0
            for k in range(n):
                big[k * d : (k + 1) * d, k * d : (k + 1) * d] = v[k].T @ v[k] / n + (
                    lam_vec[k] + lam_vec[k + 1]
                ) * np.eye(d)
                if k > 0:
                    big[k * d : (k + 1) * d, (k - 1) * d : k * d] = -lam * np.eye(d)
                    big[(k - 1) * d : k * d, k * d : (k + 1) * d] = -lam * np.eye(d)
                rhs[k * d : (k + 1) * d] = v[k].T @ xn[k] / n
            dense = np.linalg.solve(big, rhs).reshape(n, d, 2)
            assert np.max(np.abs(fit.stacked() - dense)) <= 1e-10

        def solve_time(n_steps):
            gram_rng = np.random.default_rng(n_steps)
            m = gram_rng.normal(size=(n_steps, 6, 3))
            gram = np.einsum("kli,klj->kij", m, m)
            lam_vec = np.full(n_steps + 1, 0.5)
            lam_vec[0] = lam_vec[-1] = 0.0
            rhs = gram_rng.normal(size=(n_steps, 3, 2))
            best = np.inf
            for _ in range(5):
                start = time.perf_counter()
                solve_block_tridiag(gram, lam_vec, rhs)
                best = min(best, time.perf_counter() - start)
            return best

        ratio = solve_time(2000) / solve_time(200)
        assert ratio <= 15.0, f"time ratio {ratio:.1f} exceeds linear-scaling bound"


def test_criterion_2_recovery_on_exact_data():
    with criterion(2, "exact-data recovery within stated tolerances in under 10 s"):
        start = time.perf_counter()
        for name in BUILTIN_SCENARIOS:
            truth = ground_truth_ltv(scenario(name))
            # rich excitation: the reconfiguration frame jumps are large, so
            # the smoothing bias at lam=1e-6 only drops below 1e-4 once the
            # per-step data energy dominates the coupling
            trajs = model_trajectories(
                truth, 150, seed=hash(name) % 2**32, input_std=3.0
            )
            smooth = cosmic_fit(trajs, CosmicConfig(lam=1e-6))
            assert np.max(np.abs(smooth.A - truth.A)) <= 1e-4
            assert np.max(np.abs(smooth.B - truth.B)) <= 1e-4
            perstep = perstep_ls_fit(trajs)
            assert np.max(np.abs(perstep.A - truth.A)) <= 1e-8
            assert np.max(np.abs(perstep.B - truth.B)) <= 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"recovery took {elapsed:.1f} s"


def test_criterion_3_optimality():
    with criterion(3, "vanishing gradient at the smoothed fit; monotone splitting solver"):
        rng = np.random.default_rng(3)
        trajs = random_trajectories(rng, 6, count=4)
        lam = 0.3
        fit = cosmic_fit(trajs, CosmicConfig(lam=lam))
        blocks = fit.stacked()
        h = 1e-6
        worst = 0.0
        for idx in np.ndindex(blocks.shape):
            up = blocks.copy()
            up[idx] += h
            down = blocks.copy()
            down[idx] -= h
            f_up = cosmic_objective(LtvModel.from_stacked(up, 1, fit.dt), trajs, lam)[0]
            f_dn = cosmic_objective(LtvModel.from_stacked(down, 1, fit.dt), trajs, lam)[0]
            worst = max(worst, abs(f_up - f_dn) / (2 * h))
        assert worst <= 1e-6, f"gradient inf-norm {worst:.2e}"

        truth = ground_truth_ltv(scenario("ltv"))
        traj = model_trajectories(truth, 1, seed=33, noise=1e-3)[0]
        solver = ltvmodels_fit(traj, LtvModelsConfig(lam=1.0))
        history = np.array(solver.info["objective"])
        assert np.all(np.diff(history) <= 1e-9)


def test_criterion_4_regularization_path():
    with criterion(4, "monotone smoothness path; huge-lam collapse to the pooled fit"):
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = model_trajectories(truth, 8, seed=44, noise=1e-3)
        path = []
        for lam in np.logspace(-4, 4, 9):
            blocks = cosmic_fit(trajs, CosmicConfig(lam=float(lam))).stacked()
            path.append(float(np.sum((blocks[1:] - blocks[:-1]) ** 2)))
        assert all(b <= a * (1 + 1e-9) for a, b in zip(path, path[1:]))

        blocks = cosmic_fit(trajs, CosmicConfig(lam=1e9)).stacked()
        assert np.max(np.abs(blocks - blocks.mean(axis=0))) <= 1e-6
        pooled = lti_fit(trajs).stacked()[0]
        assert np.max(np.abs(blocks[0] - pooled)) <= 1e-5


def test_criterion_5_prediction_ordering(prediction_runs):
    with criterion(5, "test-loss ordering across identification methods"):
        run_a, _, elapsed = prediction_runs
        assert elapsed < 600.0, f"prediction benchmark took {elapsed:.0f} s"
        rows = read_csv(run_a / "table1.csv")
        assert len(rows) == 5 * 6
        mean = {
            (r["scenario"], r["method"]): float(r["mean_loss"])
            for r in rows
            if r["mean_loss"]
        }
        for name in ("ltv", "mixed-reconfig"):
            cosmic = mean[(name, "cosmic")]
            assert cosmic < mean[(name, "cosmic-single")]
            assert cosmic < mean[(name, "ltvmodels")]
            assert cosmic < mean[(name, "tvera")]
            assert cosmic <= 0.2 * mean[(name, "tvera")]
        # smoothing never hurts on the linear scenarios at tuned strength
        for name in ("ltv", "inst-reconfig", "mixed-reconfig"):
            assert mean[(name, "cosmic")] <= mean[(name, "perstep")]


def test_criterion_6_tracking_ordering(control_runs):
    with criterion(6, "tracking-error ordering across controller sources"):
        rows = read_csv(control_runs[0] / "table2.csv")
        mean = {
            (r["scenario"], r["controller"]): float(r["mean"]) for r in rows if r["mean"]
        }
        for name in ("inst-reconfig", "mixed-reconfig"):
            assert mean[(name, "lti")] >= 10.0 * mean[(name, "cosmic")]
        for name in ("ltv", "nl", "nld"):
            lin = mean[(name, "linearization")]
            assert abs(mean[(name, "cosmic")] - lin) <= 0.10 * lin


def test_criterion_7_lqr_correctness():
    with criterion(7, "gain recursion: hand case, Riccati fixed point, PSD cost"):
        unit = LtvModel.from_constant(np.eye(1), np.eye(1), 1, 1.0)
        sched = lqr_ltv(unit, CostWeights(Q=np.eye(1), R=np.eye(1), H=np.eye(1)))
        assert sched.K[0, 0, 0] == 0.5
        assert sched.cost_to_go[0, 0, 0] == 1.5

        A = np.array([[1.0, 0.05], [-0.03, 0.98]])
        B = np.array([[0.0], [0.05]])
        weights = default_weights()
        model = LtvModel.from_constant(A, B, 500, 0.05)
        sched = lqr_ltv(model, weights)
        P = weights.H.copy()
        for _ in range(200000):
            gain = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
            P_next = weights.Q + A.T @ P @ A - A.T @ P @ B @ gain
            if np.max(np.abs(P_next - P)) < 1e-14:
                P = P_next
                break
            P = P_next
        K_fixed = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
        assert np.max(np.abs(sched.K[0] - K_fixed)) <= 1e-6
        for P_k in sched.cost_to_go[::25]:
            assert np.min(np.linalg.eigvalsh(P_k)) >= -1e-10


def test_criterion_8_prediction_loss_units():
    with criterion(8, "prediction-loss formula on constructed residuals"):
        zero = LtvModel.from_constant(
            np.zeros((1, 1)), np.zeros((1, 1)), 1, 1.0
        )
        hold = LtvModel.from_constant(np.eye(2), np.zeros((2, 1)), 4, 1.0)
        times = np.arange(5.0)
        perfect = Trajectory(
            times=times, states=np.ones((5, 2)), inputs=np.zeros((4, 1))
        )
        assert trajectory_prediction_loss(hold, [perfect]) == 0.0

        unit = Trajectory(
            times=np.arange(2.0), states=np.array([[0.0], [1.0]]), inputs=np.zeros((1, 1))
        )
        three = Trajectory(
            times=np.arange(2.0), states=np.array([[0.0], [3.0]]), inputs=np.zeros((1, 1))
        )
        assert trajectory_prediction_loss(zero, [unit]) == 1.0
        assert trajectory_prediction_loss(zero, [unit, three]) == 2.0


def test_criterion_9_bench_determinism(prediction_runs, control_runs):
    with criterion(9, "byte-identical benchmark outputs under one master seed"):
        for pair in (prediction_runs[:2], control_runs):
            a, b = pair
            csvs = sorted(p.name for p in a.glob("*.csv"))
            assert csvs
            for name in csvs:
                assert (a / name).read_bytes() == (b / name).read_bytes()


def test_golden_artifacts(prediction_runs, control_runs, all_run):
    # the eight artifacts at master seed 7 against tests/golden/; the bytes
    # depend on the toolchain, so another one fails here and is named
    differences = check_golden([all_run])
    assert not differences, "\n".join(differences)
    for run, table in ((prediction_runs[0], "table1.csv"), (control_runs[0], "table2.csv")):
        assert (run / table).read_bytes() == (all_run / table).read_bytes()
